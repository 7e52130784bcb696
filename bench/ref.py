"""Reference arithmetic the benchmark checks results against.

Nothing here imports twinroot: Coxeter elements are tuples of images of the
simple roots, finite fields are built from their irreducible polynomials,
and Laurent matrices are lists of {exponent: value} dicts.  The field
encoding (value = c0 + c1 * p for c0 + c1 * x) is the one twinroot's JSON
uses, so results can be compared value for value.
"""

from __future__ import annotations

import functools
import itertools

# --- Coxeter groups acting on the root lattice --------------------------------
#
# An element w is stored as cols, with cols[j] = w(alpha_j) in simple-root
# coordinates.  s_i(alpha_j) = alpha_j - a[i][j] alpha_i.


def identity(n):
    return tuple(tuple(1 if k == j else 0 for k in range(n)) for j in range(n))


def times_s(a, cols, i):
    """cols of w * s_i: (w s_i)(alpha_j) = w(alpha_j) - a[i][j] w(alpha_i)."""
    ci = cols[i]
    return tuple(
        col if a[i][j] == 0 else tuple(x - a[i][j] * y for x, y in zip(col, ci))
        for j, col in enumerate(cols)
    )


def element(a, word):
    cols = identity(len(a))
    for i in word:
        cols = times_s(a, cols, i)
    return cols


def act(cols, v):
    """w(v) for v in simple-root coordinates."""
    n = len(cols)
    return tuple(sum(v[j] * cols[j][k] for j in range(n)) for k in range(n))


def sign(v):
    """+1 / -1 for a sign-coherent nonzero vector, 0 otherwise."""
    if all(x >= 0 for x in v) and any(v):
        return 1
    if all(x <= 0 for x in v) and any(v):
        return -1
    return 0


def is_reduced(a, word):
    """Exchange condition: l(u s_i) > l(u) iff u(alpha_i) > 0, letter by letter."""
    cols = identity(len(a))
    for i in word:
        if sign(cols[i]) < 0:
            return False
        cols = times_s(a, cols, i)
    return True


def length(a, cols):
    """Length by stripping right descents (w(alpha_i) < 0) until the identity."""
    ident = identity(len(a))
    steps = 0
    while cols != ident:
        i = next(i for i, c in enumerate(cols) if sign(c) < 0)
        cols = times_s(a, cols, i)
        steps += 1
        if steps > 10**4:
            raise ValueError("length guard exceeded")
    return steps


def all_reduced_words(a, cols, memo=None):
    """Every reduced word of w: each ends in a right descent i, preceded by a
    reduced word of w s_i."""
    if memo is None:
        memo = {}
    if cols in memo:
        return memo[cols]
    descents = [i for i, c in enumerate(cols) if sign(c) < 0]
    if not descents:
        out = [()]
    else:
        out = []
        for i in descents:
            out.extend(u + (i,) for u in all_reduced_words(a, times_s(a, cols, i), memo))
    memo[cols] = out
    return out


def ball_layers(a, radius):
    """Elements of length 0..radius by breadth-first right multiplication."""
    n = len(a)
    layers = [[identity(n)]]
    seen = {identity(n)}
    for _ in range(radius):
        nxt = []
        for cols in layers[-1]:
            for i in range(n):
                if sign(cols[i]) < 0:
                    continue
                w = times_s(a, cols, i)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            break
        layers.append(nxt)
    return layers


def ball(a, radius):
    return [w for layer in ball_layers(a, radius) for w in layer]


def real_roots(a, level):
    """Orbit of the signed simple roots under up to `level` reflections."""
    n = len(a)
    simple = [tuple(s if k == i else 0 for k in range(n)) for i in range(n) for s in (1, -1)]
    seen = set(simple)
    frontier = list(simple)
    for _ in range(level):
        nxt = []
        for v in frontier:
            for i in range(n):
                pair = sum(a[i][j] * v[j] for j in range(n))
                u = tuple(x - (pair if k == i else 0) for k, x in enumerate(v))
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return sorted(seen)


def is_prenilpotent(chambers, alpha, beta):
    """Brute force: some chamber sees both roots positive and some both negative."""
    seen = set()
    for u in chambers:
        seen.add((sign(act(u, alpha)), sign(act(u, beta))))
        if (1, 1) in seen and (-1, -1) in seen:
            return True
    return False


def contained(chambers, alpha, beta, gamma):
    """Half-space containment of gamma over the given chambers: both-positive
    chambers see gamma positive, both-negative ones see it negative."""
    for u in chambers:
        sa, sb, sg = sign(act(u, alpha)), sign(act(u, beta)), sign(act(u, gamma))
        if sa > 0 and sb > 0 and sg < 0:
            return False
        if sa < 0 and sb < 0 and sg > 0:
            return False
    return True


def interval(chambers, candidates, alpha, beta):
    return sorted(g for g in candidates if contained(chambers, alpha, beta, g))


def inversion_set(a, cols):
    """Positive roots sent negative by w^-1, read off a reduced word of w."""
    word = min(all_reduced_words(a, cols))
    out, prefix = [], identity(len(a))
    for i in word:
        out.append(prefix[i])
        prefix = times_s(a, prefix, i)
    return out


# --- finite fields F_q from their irreducible polynomials ----------------------

IRREDUCIBLE = {2: (1, 1), 3: (1, 0)}  # (c0, c1) of x^2 + c1 x + c0 over F_p
PRIME_POWER = {2: (2, 1), 3: (3, 1), 4: (2, 2), 9: (3, 2)}


class Field:
    """F_q with q in {2, 3, 4, 9}; value c0 + c1 * p encodes c0 + c1 x."""

    def __init__(self, q):
        self.q = q
        self.p, self.e = PRIME_POWER[q]
        p = self.p
        self.add = [[self._enc(self._dig(x)[0] + self._dig(y)[0], self._dig(x)[1] + self._dig(y)[1])
                     for y in range(q)] for x in range(q)]
        self.mul = [[self._times(x, y) for y in range(q)] for x in range(q)]
        self.neg = [self._enc(-self._dig(x)[0], -self._dig(x)[1]) for x in range(q)]
        self.inv = [0] + [next(y for y in range(1, q) if self.mul[x][y] == 1) for x in range(1, q)]
        self.frob = [self._power(x, p) for x in range(q)]

    def _dig(self, x):
        return x % self.p, x // self.p

    def _enc(self, c0, c1):
        return c0 % self.p + (c1 % self.p) * self.p if self.e == 2 else c0 % self.p

    def _times(self, x, y):
        (x0, x1), (y0, y1) = self._dig(x), self._dig(y)
        if self.e == 1:
            return (x0 * y0) % self.p
        c0, c1 = IRREDUCIBLE[self.p]
        top = x1 * y1  # x^2 = -c1 x - c0
        return self._enc(x0 * y0 - top * c0, x0 * y1 + x1 * y0 - top * c1)

    def _power(self, x, k):
        out = 1
        for _ in range(k):
            out = self._times(out, x)
        return out


@functools.lru_cache(maxsize=None)
def field(q):
    return Field(q)


# --- Laurent polynomials and matrices over F_q ----------------------------------


def padd(f, a, b):
    out = dict(a)
    for e, v in b.items():
        s = f.add[out.get(e, 0)][v]
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def pmul(f, a, b):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = e1 + e2
            s = f.add[out.get(e, 0)][f.mul[v1][v2]]
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def mmul(f, x, y):
    n = len(x)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = {}
            for k in range(n):
                if x[i][k] and y[k][j]:
                    acc = padd(f, acc, pmul(f, x[i][k], y[k][j]))
            row.append(acc)
        out.append(row)
    return out


def mprod(f, *mats):
    out = mats[0]
    for m in mats[1:]:
        out = mmul(f, out, m)
    return out


def mident(n):
    return [[{0: 1} if i == j else {} for j in range(n)] for i in range(n)]


def elementary(f, n, i, j, k, r):
    """I + r t^k E_ij."""
    m = mident(n)
    if r % f.q:
        m[i][j] = {k: r}
    return m


def diag(entries):
    n = len(entries)
    return [[dict(entries[i]) if i == j else {} for j in range(n)] for i in range(n)]


def det(f, m):
    neg = lambda p: {e: f.neg[v] for e, v in p.items()}
    if len(m) == 2:
        return padd(f, pmul(f, m[0][0], m[1][1]), neg(pmul(f, m[0][1], m[1][0])))
    total = {}
    for perm in itertools.permutations(range(3)):
        term = {0: 1}
        for i, j in enumerate(perm):
            term = pmul(f, term, m[i][j])
        inversions = sum(1 for x in range(3) for y in range(x + 1, 3) if perm[x] > perm[y])
        total = padd(f, total, neg(term) if inversions % 2 else term)
    return total


def in_iwahori(f, m, sign_=1):
    """B_+ (sign 1): entries in F_q[t], strictly lower entries vanish at t = 0,
    det 1.  B_- (sign -1): the same in 1/t with the upper triangle."""
    n = len(m)
    for i in range(n):
        for j in range(n):
            p = m[i][j]
            if any(sign_ * e < 0 for e in p):
                return False
            if (i > j if sign_ > 0 else i < j) and p.get(0, 0):
                return False
    return det(f, m) == {0: 1}


def affine_simple_roots(n):
    """(i, j, level) of the affine nodes: node 0 is t E_{n-1,0}, node m is E_{m-1,m}."""
    return [(n - 1, 0, 1)] + [(m - 1, m, 0) for m in range(1, n)]


def canonical_s(f, n, node):
    """m(u_alpha(1)) = u_-alpha(-1) u_alpha(1) u_-alpha(-1) for the node's root."""
    i, j, k = affine_simple_roots(n)[node]
    minus = elementary(f, n, j, i, -k, f.neg[1])
    return mprod(f, minus, elementary(f, n, i, j, k, 1), minus)


def canonical_rep(f, n, word):
    out = mident(n)
    for node in word:
        out = mmul(f, out, canonical_s(f, n, node))
    return out


def affine_gcm(n):
    if n == 2:
        return ((2, -2), (-2, 2))
    return ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))


def random_iwahori(f, n, rng, sign_):
    """Random element of B_+ (or B_-): two positive (negative) affine
    root-group factors at levels 0 and 1 and a constant torus."""
    out = mident(n)
    for _ in range(2):
        i, j = rng.sample(range(n), 2)
        up = i < j if sign_ > 0 else i > j
        k = rng.choice((0, 1)) if up else 1
        out = mmul(f, out, elementary(f, n, i, j, sign_ * k, rng.randrange(1, f.q)))
    a = rng.randrange(1, f.q)
    units = [{0: 1}] * n
    units[0], units[-1] = {0: a}, {0: f.inv[a]}
    return mmul(f, out, diag(units))


def random_group_element(f, n, rng, steps, window):
    """Product of root-group elements at levels -1..1 and torus units,
    redrawn until every exponent lies within the window."""
    while True:
        out = mident(n)
        for _ in range(steps):
            if rng.randrange(3) < 2:
                i, j = rng.sample(range(n), 2)
                out = mmul(f, out, elementary(f, n, i, j, rng.randint(-1, 1), rng.randrange(1, f.q)))
            else:
                a, e = rng.randrange(1, f.q), rng.randint(-1, 1)
                units = [{0: 1}] * n
                units[0], units[-1] = {e: a}, {-e: f.inv[a]}
                out = mmul(f, out, diag(units))
        if all(abs(e) <= window for row in out for p in row for e in p):
            return out


def to_json_obj(f, m):
    """Matrix JSON in the CLI's schema {n, entries: [[[{k, c}]]]}."""
    def coeffs(v):
        return [v % f.p, v // f.p] if f.e == 2 else [v]

    return {
        "n": len(m),
        "entries": [[[{"k": e, "c": coeffs(v)} for e, v in sorted(p.items())] for p in row] for row in m],
    }


def from_json_obj(f, obj):
    out = []
    for row in obj["entries"]:
        out_row = []
        for poly in row:
            p = {}
            for term in poly:
                c = term["c"]
                v = c[0] + (c[1] * f.p if len(c) > 1 else 0)
                if v:
                    p[int(term["k"])] = v
            out_row.append(p)
        out.append(out_row)
    return out
