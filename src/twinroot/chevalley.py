"""Split loop groups SL_n(F_q[t,t^-1]) for every n >= 2.

Root groups are I + r t^k E_ij; the affine Weyl group is realized over the
affine Cartan matrix, with cells computed from the relative position of
period lattice flags (an exact invariant of the double coset) and the
b1 * w * b2 factorization recovered by descent peeling, each letter's
root-group parameter read off the flag reduction.  The twist
theta(g) = J g(t^-1) J swaps B_+ and B_-, so the one Bruhat reader keys the
chambers of both halves of the twin building (bruhat_key).  Inputs are held
to the degree window +-WINDOW.  The quasi-split unitary descent, whose
root groups and mu-maps at its affine node are SL_3's own, lives in the
descent module.
"""

from __future__ import annotations

from functools import lru_cache

from . import weyl
from .errors import (
    BadRoot,
    DegreeWindowExceeded,
    NotUnimodular,
    OracleInconsistent,
    RankMismatch,
    TrivialElement,
)
from .fields import GaloisField, gf_of_order
from .gcm import validate_gcm
from .laurent import LaurentMatrix, LaurentPoly, diagonal, elementary
from .weyl import WeylElement

AffineRoot = tuple[int, int, int]  # (i, j, level): I + r t^level E_ij
WINDOW = 8  # group elements span t-degrees within +-WINDOW


class WordReps:
    """Weyl word -> (rep, rep^-1), where rep is the product of the canonical
    reflections s_hat(i) along the word (any word, reduced or not).

    An entry is built from its prefix's entry and its last letter's, one
    product per side, so each s_hat(i) is inverted once.  Root groups are
    conjugates of positive simple ones along a carrying word: root_groups."""

    def __init__(self, identity: LaurentMatrix, s_hat):
        self._s_hat = s_hat  # node -> matrix
        self._table = {(): (identity, identity)}

    def __getitem__(self, word: tuple) -> tuple[LaurentMatrix, LaurentMatrix]:
        if word not in self._table:
            if len(word) == 1:
                s = self._s_hat(word[0])
                self._table[word] = (s, s.inverse())
            else:
                (rep, rep_inv), (s, s_inv) = self[word[:-1]], self[word[-1:]]
                self._table[word] = (rep * s, s_inv * rep_inv)
        return self._table[word]

    def root_groups(self, carrier, simple):
        """vector -> [rep * u * rep^-1 for u in simple(i)] in simple(i)'s order,
        with (i, word) = carrier(vector), vector = w(alpha_i) and rep word's
        entry.  Formed once per root; every call hands out a fresh list."""
        groups = {}

        def group(vector) -> list[LaurentMatrix]:
            key = tuple(vector)
            if key not in groups:
                i, word = carrier(key)
                rep, rep_inv = self[word]
                groups[key] = tuple(rep * u * rep_inv for u in simple(i))
            return list(groups[key])

        return group


class LoopGroup:
    """SL_n over F_q[t, t^-1] with its affine BN-pair combinatorics."""

    def __init__(self, field: GaloisField, n: int):
        if n < 2:
            raise RankMismatch("loop groups need n >= 2")
        self.field = field
        self.n = n
        # the cyclic affine A_(n-1) Cartan matrix: -1 between cyclic
        # neighbours, -2 for n = 2, whose two nodes are neighbours twice
        link = -2 if n == 2 else -1
        self.gcm = validate_gcm(
            [[2 if i == j else link if (i - j) % n in (1, n - 1) else 0 for j in range(n)] for i in range(n)]
        )
        # node 0 is the level-1 affine node, nodes 1..n-1 the classical chain
        self.simple_roots: tuple[AffineRoot, ...] = tuple(
            [(n - 1, 0, 1)] + [(m - 1, m, 0) for m in range(1, n)]
        )
        self._delta = tuple(1 for _ in range(n))
        self.reps = WordReps(self.identity(), self._canonical_s)

    # --- root bookkeeping --------------------------------------------------

    def _classical_vector(self, i: int, j: int):
        """epsilon_i - epsilon_j (i < j) in simple coordinates (nodes 1..n-1)."""
        v = [0] * self.n
        for m in range(i + 1, j + 1):
            v[m] = 1
        return v

    def root_vector(self, root: AffineRoot):
        """Coordinates of an affine real root over the affine Cartan matrix."""
        i, j, k = root
        if i == j or not (0 <= i < self.n and 0 <= j < self.n):
            raise BadRoot(f"bad classical pair {(i, j)}")
        if i < j:
            v = self._classical_vector(i, j)
        else:
            v = [-x for x in self._classical_vector(j, i)]
        return tuple(v[m] + k * self._delta[m] for m in range(self.n))

    def vector_to_root(self, vector) -> AffineRoot:
        """The (i, j, k) whose root_vector is vector: k = v_0, and v_m - k on
        nodes 1..n-1 is epsilon_i - epsilon_j, +1 on nodes i+1..j (i < j) or
        -1 on nodes j+1..i (i > j); BadRoot otherwise."""
        k = vector[0]
        support = [m for m, x in enumerate(vector) if x != k]  # never node 0
        if support:
            lo, hi = support[0] - 1, support[-1]
            root = (lo, hi, k) if vector[support[0]] > k else (hi, lo, k)
            if self.root_vector(root) == tuple(vector):
                return root
        raise BadRoot(f"{vector} is not a real root of the affine system")

    # --- elements ------------------------------------------------------------

    def identity(self) -> LaurentMatrix:
        return LaurentMatrix.identity(self.field, self.n)

    def root_group_element(self, root: AffineRoot, r: int) -> LaurentMatrix:
        i, j, k = root
        if i == j or not (0 <= i < self.n and 0 <= j < self.n):
            raise BadRoot(f"bad classical pair {(i, j)}")
        return elementary(self.field, self.n, i, j, LaurentPoly.monomial(self.field, k, r))

    def u(self, node: int, r: int) -> LaurentMatrix:
        """Simple affine root group element for a diagram node."""
        return self.root_group_element(self.simple_roots[node], r)

    def root_group_elements(self, root: AffineRoot):
        return [self.root_group_element(root, r) for r in self.field.elements()]

    def mu_map(self, root: AffineRoot, r: int) -> LaurentMatrix:
        """m(u) = u_{-a}(-1/r) u_a(r) u_{-a}(-1/r); antidiagonal on the 2x2 block."""
        if r == 0:
            raise TrivialElement("mu-map of the trivial root group element")
        i, j, k = root
        f = self.field
        minus = self.root_group_element((j, i, -k), f.neg(f.inv(r)))
        return minus * self.root_group_element(root, r) * minus

    def theta(self, g: LaurentMatrix) -> LaurentMatrix:
        """J g(t^-1) J, J the antidiagonal permutation matrix: an involutive
        automorphism that sends B_- to B_+ and keeps the degree span."""
        f = self.field
        return LaurentMatrix(f, self.n, tuple(
            tuple(LaurentPoly(f, tuple((-e, v) for e, v in reversed(p.terms))) for p in reversed(row))
            for row in reversed(g.rows)
        ))

    def is_torus(self, g: LaurentMatrix) -> bool:
        for i in range(self.n):
            for j in range(self.n):
                p = g.entry(i, j)
                if i == j:
                    if not p.is_monomial():
                        return False
                elif not p.is_zero():
                    return False
        return True

    # --- Borel membership (syntactic) ---------------------------------------

    def in_borel(self, sign: int, g: LaurentMatrix) -> bool:
        """g in B_sign: no entry has a t-exponent of sign -sign, and no entry
        below (sign +1) or above (sign -1) the diagonal a constant term."""
        end = 0 if sign > 0 else -1  # the exponent farthest towards -sign
        for i, row in enumerate(g.rows):
            for j, p in enumerate(row):
                if p.terms and sign * p.terms[end][0] < (sign * (i - j) > 0):
                    return False
        return True

    # --- Weyl elements from monomial patterns --------------------------------
    #
    # A pattern lists (pi(j), e_j) for each column j of a monomial matrix,
    # whose column j is a unit times t^(e_j) e_(pi(j)).  Conjugating by it
    # sends the root group of (i, j, k) to that of (pi(i), pi(j), k + e_i - e_j)
    # and its inverse has the pattern (pi^-1, -e o pi^-1) (Bjorner-Brenti,
    # Combinatorics of Coxeter Groups, ch. 8: affine permutations).

    @lru_cache(maxsize=4096)
    def _weyl_of_pattern(self, pattern: tuple) -> WeylElement:
        """Affine Weyl element acting on the root groups as the pattern's
        matrices do; OracleInconsistent if pi is not a permutation or no
        Weyl element acts that way.  Cached: the cells of the elements, and
        of the remainders bruhat_cell peels, repeat a few patterns."""
        inverse = [None] * self.n
        for j, (i, e) in enumerate(pattern):
            inverse[i] = (j, -e)
        if None in inverse:
            raise OracleInconsistent("pattern rows do not form a permutation")

        def action(p):
            images = ((p[i][0], p[j][0], k + p[i][1] - p[j][1]) for i, j, k in self.simple_roots)
            cols = [self.root_vector(root) for root in images]
            return tuple(tuple(col[r] for col in cols) for r in range(self.n))

        w = weyl.element_of_action(self.gcm, action(pattern), action(inverse))
        if w is None:
            raise OracleInconsistent("monomial matrix does not act as a Weyl element")
        return w

    @lru_cache(maxsize=None)
    def _canonical_s(self, node: int) -> LaurentMatrix:
        return self.mu_map(self.simple_roots[node], 1)

    @lru_cache(maxsize=None)
    def _peel_factor(self, node: int, r: int) -> LaurentMatrix:
        """s_node^-1 * x_node(-r), the factor bruhat_cell peels off rest."""
        minus = self.root_group_element(self.simple_roots[node], self.field.neg(r))
        return self.reps[(node,)][1] * minus

    def canonical_representative(self, w: WeylElement) -> LaurentMatrix:
        return self.reps[w.word][0]

    # --- flag-jump invariants -------------------------------------------------
    #
    # The f-index of a term t^v e_i is i - n*v; the t=0 lattice flag is
    # Lambda_d = span{f-index <= d} over F_q[[t]] and the t=infinity flag is
    # indexed by the reversed basis.  The relative position of the standard
    # flag with g times the standard (resp. reversed) flag is a complete
    # invariant of the Iwahori double coset (resp. of B_+ g B_-).

    def _check_input(self, g: LaurentMatrix):
        if g.n != self.n or g.field is not self.field:
            raise RankMismatch(
                f"expected a {self.n}x{self.n} matrix over {self.field}, got {g.n}x{g.n} over {g.field}"
            )
        if g.max_degree_span() > WINDOW:
            raise DegreeWindowExceeded(
                f"matrix spans t-degrees beyond the window +-{WINDOW}"
            )
        if not g.det().is_one():
            raise NotUnimodular("group elements must have determinant 1")

    @staticmethod
    def _f_coeff(col, f_index: int) -> int:
        return col[f_index % len(col)].coeff(-(f_index // len(col)))

    @staticmethod
    def _fmax(col, n: int):
        # the lowest exponent of an entry gives its largest f-index
        return max((i - n * p.terms[0][0] for i, p in enumerate(col) if p.terms), default=None)

    def _reduce_profile(self, columns, down: bool):
        """Jump profile u(k) of the ordered columns c_k: the lead (largest
        f-index) of c_k modulo L_k = L_0 + R c_0 + ... + R c_(k-1), where
        L_0 = t^s span(columns), R = F_q[[t^s]] and s = 1 (down=True) or -1,
        as (u(k), v_k) pairs: v_k is c_k minus an element of L_k, of lead u(k).

        L_0 is echeloned once, to one generator per lead class d mod n.
        dim(L_k / L_0) = k, so [L_(k+1) : L_k] = q and the lead set of
        L_(k+1) is that of L_k plus u(k) alone: the reduced c_k replaces the
        generator of its class and the generators stay echeloned."""
        n, f = self.n, self.field
        s = 1 if down else -1
        gens: dict[int, tuple[int, list]] = {}  # lead class -> (lead, generator)

        def reduce(v):
            # subtract R-multiples of the class generators until none can kill the lead
            while True:
                d = self._fmax(v, n)
                if d is None:
                    raise NotUnimodular("dependent columns; matrix not invertible")
                i = d % n
                gd, gen = gens.get(i, (None, None))
                if gd is None or s * gd < s * d:
                    return d, v
                e, ge = (i - d) // n, (i - gd) // n
                factor = f.mul(v[i].coeff(e), f.inv(gen[i].coeff(ge)))
                v = [p.minus_times(factor, e - ge, gp) for p, gp in zip(v, gen)]

        queue = [[p.shift(s) for p in col] for col in columns]
        while queue:
            d, v = reduce(queue.pop())
            # v's lead is one its class generator cannot kill: v displaces it
            displaced = gens.get(d % n)
            gens[d % n] = (d, v)
            if displaced is not None:
                queue.append(displaced[1])
        out = []
        for col in columns:
            d, v = reduce(col)
            gens[d % n] = (d, v)
            out.append((d, v))
        return out

    def _cell(self, g: LaurentMatrix, down: bool) -> tuple[WeylElement, list]:
        """(w, jump profile) with g in B_+ w B_+ (down=True) or B_+ w B_-
        (down=False).  The jump profile of the columns (reversed for B_-) is
        the affine permutation: jump d puts its column at row i = d mod n,
        exponent (i - d) / n.  The caller checks that g has determinant 1."""
        n = self.n
        columns = list(zip(*g.rows))
        profile = self._reduce_profile(columns if down else columns[::-1], down)
        pattern = tuple((d % n, (d % n - d) // n) for d, _v in profile)
        return self._weyl_of_pattern(pattern if down else pattern[::-1]), profile

    def bruhat_weyl(self, g: LaurentMatrix) -> WeylElement:
        """Iwahori-Bruhat cell of g (w with g in B_+ w B_+)."""
        self._check_input(g)
        return self._cell(g, True)[0]

    def bruhat_key(self, sign: int, g: LaurentMatrix) -> tuple:
        """The word of the cell of g B_sign: bruhat_weyl(g) on sign +1 and
        bruhat_weyl(theta(g)) on sign -1, as theta(g B_-) = theta(g) B_+."""
        return self.bruhat_weyl(g if sign > 0 else self.theta(g)).word

    def birkhoff_cell(self, g: LaurentMatrix) -> WeylElement:
        """w with g in B_+ w B_-."""
        self._check_input(g)
        return self._cell(g, False)[0]

    def bruhat_cell(self, g: LaurentMatrix):
        """(w, b1, b2) with g = b1 * canonical_rep(w) * b2 exactly.

        w comes from the flag invariant.  While rest's cell word starts with
        i, rest = x_i(r) s_i rest', x_i(r) s_i B being the projection of rest B
        onto the i-panel of B (gate property): the line of e_u + r e_(u-1) in
        Lambda_u / Lambda_(u-2) (f-indices, u = i mod n).  As i is a left
        descent, rest's jump u precedes its jump u - 1, so the first
        rest-lattice that meets the quotient meets it in the line of the
        reduced column v of lead u: r = coeff_(u-1)(v) / coeff_u(v).  rest'
        must lie in the cell of the rest of the word, so a wrong r raises.
        b1 = g (prefix rest)^-1."""
        self._check_input(g)
        n, f = self.n, self.field
        w, profile = self._cell(g, True)
        rest = g
        prefix = self.identity()
        for pos, i in enumerate(w.word):
            u, v = next(jump for jump in profile if jump[0] % n == i)
            r = f.mul(self._f_coeff(v, u - 1), f.inv(self._f_coeff(v, u)))
            rest = self._peel_factor(i, r) * rest
            prefix = prefix * self.reps[(i,)][0]
            cell, profile = self._cell(rest, True)
            if cell.word != w.word[pos + 1 :]:
                raise OracleInconsistent("descent peeling failed to shorten the cell")
        if not self.in_borel(1, rest):
            raise OracleInconsistent("peeled remainder is not in the Iwahori subgroup")
        whole = prefix * rest
        b1 = g * whole.inverse()
        if not self.in_borel(1, b1):
            raise OracleInconsistent("left factor is not in the Iwahori subgroup")
        if b1 * whole != g:
            raise OracleInconsistent("re-multiplied factorization does not reproduce the element")
        return w, b1, rest

    # --- misc ----------------------------------------------------------------

    def random_element(self, rng, steps: int = 6) -> LaurentMatrix:
        """Random bounded product of root group elements and torus units."""
        g = self.identity()
        guard = 0
        while guard < 200:
            guard += 1
            out = g
            for _ in range(steps):
                kind = rng.randrange(3)
                if kind < 2:
                    i, j = rng.sample(range(self.n), 2)
                    k = rng.randint(-1, 1)
                    r = rng.randrange(1, self.field.q)
                    out = out * self.root_group_element((i, j, k), r)
                else:
                    units = [LaurentPoly.monomial(self.field, 0, 1)] * self.n
                    a = rng.randrange(1, self.field.q)
                    e = rng.randint(-1, 1)
                    units[0] = LaurentPoly.monomial(self.field, e, a)
                    units[-1] = LaurentPoly.monomial(self.field, -e, self.field.inv(a))
                    out = out * diagonal(self.field, units)
            if out.max_degree_span() <= WINDOW:
                return out
        raise DegreeWindowExceeded("could not sample inside the degree window")


@lru_cache(maxsize=None)
def loop_group(q: int, n: int) -> LoopGroup:
    return LoopGroup(gf_of_order(q), n)
