"""Real-root combinatorics: enumeration, prenilpotency, intervals, nibbling.

Roots are integer vectors in the W-orbit of the (signed) simple roots,
identified with half-spaces of chambers: the chamber indexed by u in W lies
on the positive side of gamma iff u(gamma) > 0.  Prenilpotency is decided
exactly from two pairings, and interval witness chambers come from the orbit
of the pair's dihedral reflection group, so neither needs a radius.  Interval
membership is certificate-based and exact on finite and affine GCMs; on the
others a bounded search that produces neither a witness nor a certificate
raises UndecidedError, never a silent guess.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from . import weyl
from .errors import (
    BadRoot,
    ExplosionGuard,
    IndexOutOfRange,
    NotNilpotentSet,
    NotPrenilpotent,
    NotSpherical,
    OracleInconsistent,
    OrderingFailed,
    RankMismatch,
    UndecidedError,
)
from .gcm import GeneralizedCartanMatrix, IntMatrix, IntVector
from .weyl import WeylElement, mat_mul, mat_vec, root_sign


DEFAULT_SEARCH_RADIUS = 8
DEFAULT_ROOT_CAP = 10**5


@dataclass(frozen=True)
class RootVector:
    """A real root as a sign-coherent integer vector in Z^n."""

    coords: IntVector

    def __post_init__(self):
        root_sign(self.coords)  # raises MixedSign when not coherent

    @property
    def sign(self) -> int:
        return root_sign(self.coords)

    def __neg__(self) -> "RootVector":
        return RootVector(tuple(-x for x in self.coords))

    def __repr__(self):
        return f"Root{self.coords}"


def is_positive(alpha: RootVector) -> bool:
    return alpha.sign > 0


def simple_root(A: GeneralizedCartanMatrix, i: int) -> RootVector:
    if not 0 <= i < A.n:
        raise IndexOutOfRange(f"simple root index {i} outside 0..{A.n - 1}")
    return RootVector(tuple(1 if k == i else 0 for k in range(A.n)))


def enumerate_real_roots(A: GeneralizedCartanMatrix, L: int) -> list[RootVector]:
    """All w(+-v_i) with l(w) <= L, deterministic (level, lex) order."""
    return [RootVector(v) for v in _root_vectors(A, L)]


def _reflect_root(A: GeneralizedCartanMatrix, v: IntVector, i: int) -> IntVector:
    """s_i(v), O(n): coordinate i becomes v_i - <v, alpha_i^vee> = v_i - sum_j a[i][j] v_j."""
    return v[:i] + (v[i] - sum(a * c for a, c in zip(A.a[i], v)),) + v[i + 1 :]


def _root_vectors(A: GeneralizedCartanMatrix, L: int):
    level = sorted(
        {tuple(sgn * x for x in row) for row in weyl.identity_matrix(A.n) for sgn in (1, -1)}
    )
    seen = set(level)
    out = list(level)
    for _ in range(L):
        nxt = set()
        for v in level:
            for i in range(A.n):
                w = _reflect_root(A, v, i)
                if w not in seen:
                    nxt.add(w)
        if not nxt:
            break
        level = sorted(nxt)
        seen.update(nxt)
        out.extend(level)
        if len(seen) > DEFAULT_ROOT_CAP:
            raise ExplosionGuard(f"root enumeration exceeded cap {DEFAULT_ROOT_CAP}")
    return out


@lru_cache(maxsize=4096)
def root_witness(A: GeneralizedCartanMatrix, v: IntVector) -> tuple[WeylElement, int, int]:
    """(w, i, sign) with v = w(sign * alpha_i); BadRoot if v is not real.

    Depth descent: while v is not sign * alpha_i, apply the s_i with
    sign * <v, alpha_i^vee> > 0 whose image is lexicographically least, so
    the height drops at every step.  When no such i exists, v is not a real
    root (Kac, Infinite-dimensional Lie algebras, Lemma 5.3).  The tie-break
    gives the w a breadth-first search over the roots finds first when each
    level is scanned in lexicographic order and the generators in index
    order.
    """
    if len(v) != A.n:
        raise RankMismatch("root length does not match the rank")
    sign = root_sign(v)
    x = v
    letters = []
    while True:
        support = [k for k, c in enumerate(x) if c]
        if len(support) == 1 and x[support[0]] == sign:
            return weyl.from_word(A, letters), support[0], sign
        images = []
        for i in range(A.n):
            y = _reflect_root(A, x, i)
            if sign * (x[i] - y[i]) > 0:  # x[i] - y[i] = <x, alpha_i^vee>
                images.append((y, i))
        if not images:
            raise BadRoot(f"{v} is not a real root")
        x, i = min(images)
        if sign * x[i] < 0:
            raise BadRoot(f"{v} is not a real root")
        letters.append(i)


def carrier_word(A: GeneralizedCartanMatrix, v: IntVector) -> tuple[int, tuple[int, ...]]:
    """(i, word) with v = w(alpha_i) for the w the word spells: the witness's
    w for v = w(alpha_i), w s_i for v = w(-alpha_i) (s_i sends alpha_i to
    -alpha_i).  U_v is the word's conjugate of the positive U_(alpha_i)."""
    w, i, sign = root_witness(A, tuple(v))
    return i, w.word if sign > 0 else w.word + (i,)


@lru_cache(maxsize=4096)
def reflection_matrix(A: GeneralizedCartanMatrix, alpha: RootVector):
    """Action matrix of the reflection through alpha (= w s_i w^{-1})."""
    w, i, _sign = root_witness(A, alpha.coords)
    return mat_mul(weyl._times_s(A.a, w.mat, i), w.inv)


# --- prenilpotency -----------------------------------------------------------


def _pairing(A: GeneralizedCartanMatrix, x: IntVector, y: IntVector) -> tuple[int, int]:
    """(<y, x^vee>, t) for real roots x, y, with t the sign of w^{-1} y for
    the witness (w, i, s) of x: x = w(s alpha_i), so x^vee = w(s alpha_i^vee)
    and <y, x^vee> = s (A w^{-1} y)_i."""
    w, i, s = root_witness(A, x)
    z = w.apply_inverse(y)
    return s * sum(a * c for a, c in zip(A.a[i], z)), root_sign(z)


def _empty_diagonal(A: GeneralizedCartanMatrix, x: IntVector, y: IntVector) -> tuple[int, ...]:
    """The signs t for which no chamber u has t u(x) > 0 and t u(y) > 0.

    Exact, from the two pairings c = <y, x^vee> and c' = <x, y^vee> (Kac,
    Infinite-dimensional Lie algebras, ch. 5; Abramenko-Brown, Buildings,
    on walls and prenilpotent pairs).  Take x != +-y.  A point f of a
    chamber has coordinates (a, b) = (f(x), f(y)); the reflections act on
    them by r_x: (a, b) -> (-a, b - c a) and r_y: (a, b) -> (a - c' b, -b),
    and on span(x, y) with trace(r_x r_y) = c c' - 2.  If c = 0 then
    r_x r_y r_x = r_y, so (r_x r_y)^2 = 1 and c' = 0; a sign mismatch of c
    and c' contradicts the theory and raises OracleInconsistent.
    - 0 <= c c' <= 3: r_x r_y has finite order, the walls cross and all
      four sign quadrants hold chambers.
    - c c' >= 4: the order is infinite, the walls are parallel and some
      quadrant is empty.  With (w, i, s) the witness of x and t the sign of
      w^{-1} y, the chambers w^{-1} and s_i w^{-1} lie in the quadrants
      (s, t) and (-s, t), since s_i keeps the sign of every real root but
      +-alpha_i; so (t, t) holds a chamber, with a point (a, b).  If c > 0,
      r_x(a, b) lies in (-t, -t) unless t b >= c t a, and then
      t(a - c' b) <= t a (1 - c c') < 0 puts r_y(a, b) there: the pair is
      prenilpotent.  If c < 0, r_y(a, b) lies in (t, -t); three quadrants
      hold chambers, so (-t, -t) is empty.
    """
    if y == x:
        return ()
    if y == tuple(-v for v in x):
        return (1, -1)
    c, t = _pairing(A, x, y)
    c_dual, _ = _pairing(A, y, x)
    if (c > 0) - (c < 0) != (c_dual > 0) - (c_dual < 0):
        raise OracleInconsistent(f"the pairings {c} and {c_dual} of {x} and {y} differ in sign")
    if c * c_dual <= 3 or c > 0:
        return ()
    return (-t,)


def is_prenilpotent_pair(A: GeneralizedCartanMatrix, alpha: RootVector, beta: RootVector) -> bool:
    """True iff some chamber lies on the positive side of both roots and some
    chamber on the negative side of both; decided exactly by _empty_diagonal."""
    if len(alpha.coords) != A.n or len(beta.coords) != A.n:
        raise RankMismatch("root length does not match the rank")
    return not _empty_diagonal(A, alpha.coords, beta.coords)


def _dihedral_walk(r0: IntMatrix, r1: IntMatrix):
    """(mat, inv) of every element of the group two involutions generate: the
    identity, then the two alternating words of each length in turn."""
    ident = weyl.identity_matrix(len(r0))
    yield ident, ident
    words = [(ident, ident, 0), (ident, ident, 1)]
    refl = (r0, r1)
    while True:
        words = [(mat_mul(m, refl[k]), mat_mul(refl[k], inv), 1 - k) for m, inv, k in words]
        for m, inv, _ in words:
            yield m, inv


def _witness_chambers(A: GeneralizedCartanMatrix, alpha: RootVector, beta: RootVector):
    """The first u and v of D = <r_alpha, r_beta> on the dihedral walk with
    u(alpha), u(beta) > 0 and v(alpha), v(beta) < 0, for a prenilpotent pair
    with alpha != +-beta.

    The walk ends: D acts simply transitively on the chambers of its own
    walls, those of alpha and beta among them, so each nonempty quadrant
    holds some D-chamber and with it a chamber u^{-1}C, u in D.  When the
    walls cross, |D| <= 12.
    """
    found = {}
    for mat, inv in _dihedral_walk(reflection_matrix(A, alpha), reflection_matrix(A, beta)):
        q = (root_sign(mat_vec(mat, alpha.coords)), root_sign(mat_vec(mat, beta.coords)))
        found.setdefault(q, (mat, inv))
        if (1, 1) in found and (-1, -1) in found:
            return weyl._from_matrices(A, *found[(1, 1)]), weyl._from_matrices(A, *found[(-1, -1)])


# --- region emptiness certificates ------------------------------------------


@lru_cache(maxsize=128)
def _cached_ball(A: GeneralizedCartanMatrix, radius: int):
    return tuple(weyl.enumerate_ball(A, radius))


@lru_cache(maxsize=128)
def _cached_heights(A: GeneralizedCartanMatrix, radius: int):
    """The column sums h_w of w.mat, w in _cached_ball: w(d) has height h_w . d."""
    return tuple(tuple(map(sum, zip(*w.mat))) for w in _cached_ball(A, radius))


def _eliminate(vectors):
    """Integer Gauss-Jordan on the matrix with the vectors as columns: the
    nonzero reduced rows and their pivot columns.  Scaling a row by a nonzero
    integer keeps its kernel, so free column fc has the kernel vector with 1
    at fc and -row[fc] / row[pc] at each pivot pc; no Fraction is formed."""
    rows = [list(row) for row in zip(*vectors)]
    pivots = []
    for c in range(len(vectors)):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r][c]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [p * x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _farkas_empty(deltas) -> bool:
    """True iff some l >= 0, l != 0 has sum l_i d_i = 0, that is (Gordan's
    alternative) iff no f has f(d_i) > 0 for all i.  A nonnegative kernel
    vector of a free column is such an l; any l is a sum of nonnegative
    circuits on at most rank + 1 deltas, so when the kernel has dimension
    > 1 some circuit misses a delta."""
    rows, pivots = _eliminate(deltas)
    free = [fc for fc in range(len(deltas)) if fc not in pivots]
    if any(all(row[fc] * row[pc] <= 0 for row, pc in zip(rows, pivots)) for fc in free):
        return True
    return len(free) > 1 and any(_farkas_empty(deltas[:i] + deltas[i + 1 :]) for i in range(len(deltas)))


@lru_cache(maxsize=128)
def _tits_cone_bound(A: GeneralizedCartanMatrix):
    """Deltas whose positive sides cut the Tits cone's interior out of V*:
    () for finite W, (delta,) for affine A (Kac, Infinite-dimensional Lie
    algebras, Prop. 5.8), None otherwise.  A is affine iff it has corank 1
    and a kernel vector delta > 0 (Thm 4.3; a decomposable A has none)."""
    if weyl.is_finite(A):
        return ()
    rows, pivots = _eliminate(tuple(zip(*A.a)))
    if len(pivots) != A.n - 1:
        return None
    fc = next(c for c in range(A.n) if c not in pivots)
    delta = [int(c == fc) for c in range(A.n)]
    for row, pc in zip(rows, pivots):  # keep delta integral: scale, then set entry pc
        f = delta[fc]
        delta = [x * row[pc] for x in delta]
        delta[pc] = -row[fc] * f
    if not (all(x > 0 for x in delta) or all(x < 0 for x in delta)):
        return None
    return (tuple(map(abs, delta)),)


def _region_empty(A, deltas, radius: int):
    """Chamber-emptiness of {u : u d > 0 for all d in deltas}.

    Returns True/False when certified/witnessed, None when undecided.  On
    finite or affine A the region holds a chamber iff it meets the Tits
    cone's interior, which _farkas_empty decides exactly.  Otherwise two
    certificates run before the ball scan, which only they spare.  The
    deltas are real roots by construction (closed_interval's alpha and beta
    pass root_witness, and each gamma is a w-image of a simple root), so the
    sign of u(d) is the sign of its height, which is never 0: the scan tests
    one dot product per delta.
    """
    bound = _tits_cone_bound(A)
    if bound is not None:
        return _farkas_empty(deltas + bound)
    # certificate 1: some pair already empty
    for i in range(len(deltas)):
        for j in range(i + 1, len(deltas)):
            if 1 in _empty_diagonal(A, deltas[i], deltas[j]):
                return True
    # certificate 2: conic (Farkas) obstruction
    if _farkas_empty(deltas):
        return True
    for h in _cached_heights(A, radius):
        if all(sum(map(mul, h, d)) > 0 for d in deltas):
            return False
    return None


@dataclass(frozen=True)
class RootInterval:
    alpha: RootVector
    beta: RootVector
    members: tuple[RootVector, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "alpha": list(self.alpha.coords),
                "beta": list(self.beta.coords),
                "members": [list(r.coords) for r in self.members],
            },
            sort_keys=True,
        )

    @property
    def open(self) -> tuple[RootVector, ...]:
        return tuple(g for g in self.members if g != self.alpha and g != self.beta)


def closed_interval(
    A: GeneralizedCartanMatrix,
    alpha: RootVector,
    beta: RootVector,
    search_radius: int = DEFAULT_SEARCH_RADIUS,
) -> RootInterval:
    """[alpha, beta] by half-space containment.

    Candidates are the roots crossed by a minimal gallery from a
    both-positive witness chamber u to a both-negative one v (from the
    dihedral walk), between its crossings of the alpha- and beta-walls:
    the chambers before the first of these are both-positive and those
    after the second both-negative, and a member separates every such pair.
    Each candidate gamma is kept iff the regions (-gamma, alpha, beta) and
    (gamma, -alpha, -beta) are certified chamber-empty; search_radius bounds
    only _region_empty's ball scans, which finite and affine A never run.
    """
    if not is_prenilpotent_pair(A, alpha, beta):
        raise NotPrenilpotent(f"{alpha}, {beta} is not a prenilpotent pair")
    if alpha == beta:
        return RootInterval(alpha, beta, (alpha,))
    u, v = _witness_chambers(A, alpha, beta)
    # inversion_order(u v^{-1}) lists the walls crossed on a minimal gallery
    # from C to u v^{-1} C, in order; u^{-1} moves them to the gallery u -> v
    crossed = [mat_vec(u.inv, d) for d in inversion_order(A, u * v.inverse())]
    first, last = sorted((crossed.index(alpha.coords), crossed.index(beta.coords)))
    candidates = set(crossed[first : last + 1])
    members = []
    neg_a = tuple(-x for x in alpha.coords)
    neg_b = tuple(-x for x in beta.coords)

    def region_status(deltas):
        status = _region_empty(A, deltas, search_radius)
        if status is None:
            status = _region_empty(A, deltas, 2 * search_radius)
        return status

    for gamma in sorted(candidates):
        neg = tuple(-x for x in gamma)
        if gamma in (alpha.coords, beta.coords):
            members.append(gamma)
            continue
        e1 = region_status((neg, alpha.coords, beta.coords))
        if e1 is False:
            continue
        e2 = region_status((gamma, neg_a, neg_b))
        if e2 is False:
            continue
        if e1 is None or e2 is None:
            raise UndecidedError(
                f"containment test for candidate {gamma} undecided at radius {search_radius}"
            )
        members.append(gamma)
    return RootInterval(alpha, beta, tuple(RootVector(g) for g in sorted(members)))


# --- nibbling sequences ------------------------------------------------------


@dataclass(frozen=True)
class NibblingSequence:
    roots: tuple[RootVector, ...]


def _parabolic_setup(A: GeneralizedCartanMatrix, J):
    J = tuple(sorted(J))
    if len(set(J)) < len(J) or any(not 0 <= j < A.n for j in J):
        raise IndexOutOfRange(f"J = {J} must hold distinct indices in 0..{A.n - 1}")
    sub = A.submatrix(J)
    if not weyl.is_finite(sub):
        raise NotSpherical(f"W_J for J={J} is not finite (a principal minor is not positive)")
    return J, sub


def _embed(J, n, vec_sub):
    out = [0] * n
    for pos, j in enumerate(J):
        out[j] = vec_sub[pos]
    return tuple(out)


def _restrict(J, vec, n):
    if any(vec[k] != 0 for k in range(n) if k not in J):
        return None
    return tuple(vec[j] for j in J)


def longest_element(A: GeneralizedCartanMatrix) -> WeylElement:
    """Longest element of a finite Weyl group (NotSpherical otherwise): the
    descent word of w0.rho_vee = -rho_vee."""
    _parabolic_setup(A, tuple(range(A.n)))
    return weyl.from_word(A, weyl.descend(A, (-1,) * A.n, weyl.DESCENT_GUARD))


def inversion_order(A: GeneralizedCartanMatrix, w: WeylElement):
    """beta_k = s_{i1}...s_{i(k-1)}(alpha_{ik}), column ik of the prefix's matrix."""
    prefix = weyl.identity_matrix(A.n)
    out = []
    for i in w.word:
        out.append(tuple(row[i] for row in prefix))
        prefix = weyl._times_s(A.a, prefix, i)
    return out


def nibbling_sequence(A: GeneralizedCartanMatrix, J, psi) -> NibblingSequence:
    """Order a nilpotent root set inside a spherical parabolic so that every
    open interval of a pair is sandwiched between its endpoints.

    Construction: the inversion order along the ShortLex-least reduced word
    of the longest element of W_J, restricted to psi (after translating psi
    into the positive system).  The nibbling property is re-verified and
    OrderingFailed is raised if it does not hold.
    """
    J, sub = _parabolic_setup(A, J)
    w0 = longest_element(sub)
    top = w0.length
    ball = _cached_ball(sub, top + 1)  # all of W_J
    n = A.n
    psi = [p if isinstance(p, RootVector) else RootVector(tuple(p)) for p in psi]
    sub_psi = []
    for p in psi:
        if len(p.coords) != n:
            raise RankMismatch(f"{p} has length {len(p.coords)}, not the rank {n}")
        r = _restrict(J, p.coords, n)
        if r is None:
            raise NotNilpotentSet(f"{p} is not a root of the parabolic W_J, J={J}")
        sub_psi.append(r)
    sub_roots = {tuple(v) for v in _root_vectors(sub, 2 * top + 2)}
    for r in sub_psi:
        if r not in sub_roots:
            raise NotNilpotentSet(f"{r} is not a real root of W_J")
    # sub_psi holds real roots, so a sign is the sign of a height (see _region_empty)
    positive = (all(sum(map(mul, h, r)) > 0 for r in sub_psi) for h in _cached_heights(sub, top + 1))
    mover = next((w for w, ok in zip(ball, positive) if ok), None)
    if mover is None:
        raise NotNilpotentSet("no element of W_J makes the whole set positive")
    order = inversion_order(sub, w0)
    position = {v: k for k, v in enumerate(order)}
    moved = [(position[mover.apply(r)], r) for r in sub_psi]
    moved.sort()
    ordered_sub = [r for _, r in moved]
    _verify_nibbling(sub, ordered_sub)
    return NibblingSequence(tuple(RootVector(_embed(J, n, r)) for r in ordered_sub))


def _verify_nibbling(sub, ordered):
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            a, b = RootVector(ordered[i]), RootVector(ordered[j])
            if not is_prenilpotent_pair(sub, a, b):
                raise OrderingFailed(f"pair {a}, {b} is not prenilpotent")
            between = {tuple(r) for r in ordered[i + 1 : j]}
            for g in closed_interval(sub, a, b).open:
                if g.coords not in between:
                    raise OrderingFailed(
                        f"open interval of {a}, {b} contains {g} outside positions {i}..{j}"
                    )
