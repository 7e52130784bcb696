"""Quasi-split unitary descent: SU_3(F_q[t,t^-1]) inside SL_3(F_{q^2}[t,t^-1]).

The Galois involution is sigma(g) = J (bar(g)^T)^{-1} J^{-1} with J the
antidiagonal Hermitian form and bar the coefficientwise Frobenius; its fixed
points form the quasi-split group, so every element is an element of the
ambient SL_3 and is multiplied, inverted and keyed there.  The relative Weyl
group is infinite dihedral: node 0 carries the abelian root group
{I + r t E_20 : tr r = 0} of order q, a subgroup of the ambient affine root
group (2, 0, 1) whose mu-map is the ambient one; node 1 carries the
metabelian group {u(c,b) : b + bar b = -c bar c} of order q^3 whose center
is the b-line, with mu-maps through its transpose u(c,b)^T.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache, partial

from . import cone
from .chevalley import LoopGroup, WordReps, loop_group
from .errors import (
    BadRoot,
    NotUnimodular,
    OracleInconsistent,
    TrivialElement,
)
from .fields import GF, GaloisField
from .gcm import AFFINE_A1, AFFINE_A2, GeneralizedCartanMatrix
from .laurent import LaurentMatrix, LaurentPoly, diagonal
from .roots import carrier_word

REL_GCM: GeneralizedCartanMatrix = AFFINE_A1  # infinite dihedral realization
# orbits of the diagram flip 1 <-> 2 of the ambient affine A2; orbit k folds
# to relative node k (cone.fold_word)
REL_ORBITS = cone.orbits(AFFINE_A2, [(0, 2, 1)])
AFFINE_NODE_ROOT = (2, 0, 1)  # the ambient root group I + r t E_20 of relative node 0 (tr r = 0)


def _antidiag_form(ext: GaloisField) -> LaurentMatrix:
    one = LaurentPoly.one(ext)
    zero = LaurentPoly.zero(ext)
    return LaurentMatrix(ext, 3, ((zero, zero, one), (zero, one, zero), (one, zero, zero)))


@dataclass(frozen=True)
class HermitianDescentDatum:
    """Base field, quadratic extension, Hermitian form and the induced
    semilinear involution of the ambient loop group."""

    q: int
    base: GaloisField = dc_field(compare=False)
    ext: GaloisField = dc_field(compare=False)
    ambient: LoopGroup = dc_field(compare=False)
    form: LaurentMatrix = dc_field(compare=False)

    def sigma(self, g: LaurentMatrix) -> LaurentMatrix:
        """The Galois involution.  The library tests fixed points by is_fixed;
        sigma is the reference the tests check is_fixed against, and the
        benchmark's descent.sigma.calls counter traces it."""
        return self.form * g.bar().transpose().inverse() * self.form.inverse()

    def is_fixed(self, g: LaurentMatrix) -> bool:
        """sigma(g) == g, as bar(g)^T J g == J (J is its own inverse); det g must be a unit."""
        if not g.det().is_monomial():
            raise NotUnimodular("matrix determinant is not a unit")
        return g.bar().transpose() * self.form * g == self.form

    # --- distinguished constants -------------------------------------------

    @cached_property
    def kappa(self) -> int:
        """Canonical nonzero trace-zero element of the extension."""
        return self.ext.trace_zero()[1]

    # --- the two simple relative root groups at level 0 ----------------------

    def unipotent_upper(self, c: int, b: int) -> LaurentMatrix:
        """u(c, b) = [[1, -bar c, b], [0, 1, c], [0, 0, 1]]; needs
        tr(b) = -N(c)."""
        e = self.ext
        if e.add(b, e.frobenius(b)) != e.neg(e.mul(c, e.frobenius(c))):
            raise BadRoot("parameters violate the Hermitian trace condition")
        zero, one = LaurentPoly.zero(e), LaurentPoly.one(e)
        rows = (
            (one, LaurentPoly.const(e, e.neg(e.frobenius(c))), LaurentPoly.const(e, b)),
            (zero, one, LaurentPoly.const(e, c)),
            (zero, zero, one),
        )
        return LaurentMatrix(e, 3, rows)

    def metabelian_parameters(self):
        """The (c, b) with tr(b) = -N(c), c-major: the parameters of u(c, b)."""
        e = self.ext
        norms = {c: e.neg(e.norm(c)) for c in e.elements()}
        return [(c, b) for c in e.elements() for b in e.elements() if e.add(b, e.frobenius(b)) == norms[c]]

    # --- mu-maps (closed forms, verified in the test-suite) ------------------

    def mu_metabelian(self, c: int, b: int) -> LaurentMatrix:
        """m(u(c,b)) = u_-(bar c / bar b, 1/bar b) u(c,b) u_-(bar c / b, 1/bar b),
        with u_-(z, y) = u(z, y)^T."""
        e = self.ext
        if b == 0 and c == 0:
            raise TrivialElement("mu-map of the trivial element")
        if b == 0:
            raise OracleInconsistent("nontrivial u(c, b) always has b != 0")
        bbar = e.frobenius(b)
        cbar = e.frobenius(c)
        left = self.unipotent_upper(e.mul(cbar, e.inv(bbar)), e.inv(bbar)).transpose()
        right = self.unipotent_upper(e.mul(cbar, e.inv(b)), e.inv(bbar)).transpose()
        return left * self.unipotent_upper(c, b) * right

    @cached_property
    def s0(self) -> LaurentMatrix:
        """Canonical reflection representative for relative node 0."""
        return self.ambient.mu_map(AFFINE_NODE_ROOT, self.ext.inv(self.kappa))

    @cached_property
    def s1(self) -> LaurentMatrix:
        """Canonical reflection representative for relative node 1."""
        return self.mu_metabelian(0, self.kappa)

    def canonical_s(self, node: int) -> LaurentMatrix:
        return self.s0 if node == 0 else self.s1

    @cached_property
    def reps(self) -> WordReps:
        """Canonical representatives of relative Weyl words, with inverses."""
        return WordReps(LaurentMatrix.identity(self.ext, 3), self.canonical_s)

    # --- relative root groups -------------------------------------------------

    def simple_root_group(self, node: int):
        """All elements of the positive simple relative root group (finite)."""
        if node == 0:
            return [self.ambient.root_group_element(AFFINE_NODE_ROOT, r) for r in self.ext.trace_zero()]
        return [self.unipotent_upper(c, b) for c, b in self.metabelian_parameters()]

    def simple_root_group_center(self, node: int):
        if node == 0:
            return self.simple_root_group(node)
        return [self.unipotent_upper(0, b) for b in self.ext.trace_zero()]

    @cached_property
    def _root_groups(self):
        """Root vector -> group maps: [simple groups, their centers]."""
        carrier = partial(carrier_word, REL_GCM)
        simple = (self.simple_root_group, self.simple_root_group_center)
        return [self.reps.root_groups(carrier, s) for s in simple]

    def root_group(self, vector) -> list[LaurentMatrix]:
        """Relative root group for any real root of the infinite dihedral
        system: a positive simple one conjugated along the carrying word."""
        return self._root_groups[0](vector)

    def root_group_center(self, vector) -> list[LaurentMatrix]:
        return self._root_groups[1](vector)

    def mu_for(self, vector, u: LaurentMatrix) -> LaurentMatrix:
        """mu-map of a nontrivial element of the root group at `vector`: the
        simple mu-map conjugated along the carrying word."""
        node, word = carrier_word(REL_GCM, vector)
        rep, rep_inv = self.reps[word]
        return rep * self._mu_simple(node, rep_inv * u * rep) * rep_inv

    def _mu_simple(self, node: int, u: LaurentMatrix) -> LaurentMatrix:
        if node == 0:
            return self.ambient.mu_map(AFFINE_NODE_ROOT, u.entry(2, 0).coeff(1))
        return self.mu_metabelian(u.entry(1, 2).coeff(0), u.entry(0, 2).coeff(0))

    # --- torus ---------------------------------------------------------------

    def torus_element(self, a: int) -> LaurentMatrix:
        """diag(a, bar(a)/a, bar(a)^{-1})."""
        e = self.ext
        if a == 0:
            raise BadRoot("torus parameter must be a unit")
        abar = e.frobenius(a)
        return diagonal(
            e,
            (
                LaurentPoly.const(e, a),
                LaurentPoly.const(e, e.mul(abar, e.inv(a))),
                LaurentPoly.const(e, e.inv(abar)),
            ),
        )

    def anisotropic_kernel_elements(self) -> list[LaurentMatrix]:
        """The sigma-fixed diagonal subgroup at level 0."""
        return [self.torus_element(a) for a in self.ext.units()]

    def is_torus(self, g: LaurentMatrix) -> bool:
        return self.ambient.is_torus(g) and self.is_fixed(g)

    def in_borel(self, sign: int, g: LaurentMatrix) -> bool:
        return self.ambient.in_borel(sign, g) and self.is_fixed(g)


@lru_cache(maxsize=None)
def su3_datum(q: int) -> HermitianDescentDatum:
    """SU_3 over F_q for a prime q the field layer supports: GF(q, 1) raises
    RankMismatch for any other q."""
    base = GF(q, 1)
    ext = GF(q, 2)
    ambient = LoopGroup(ext, 3)
    return HermitianDescentDatum(q, base, ext, ambient, _antidiag_form(ext))


# --- top-level operations -------------------------------------------------


def relative_root_group(d: HermitianDescentDatum, node: int):
    """(elements, center) of the positive simple relative root group."""
    if node not in (0, 1):
        raise BadRoot("relative simple roots are indexed by {0, 1}")
    return d.simple_root_group(node), d.simple_root_group_center(node)


def anisotropic_kernel(d: HermitianDescentDatum):
    """Level-0 anisotropic kernel with a total-commutativity report."""
    elems = d.anisotropic_kernel_elements()
    commutative = all(x * y == y * x for x in elems for y in elems)
    return elems, commutative


# --- maximal split subgroup ---------------------------------------------------


@dataclass(frozen=True)
class MaximalSplitSubgroup:
    """F = <split torus, centers of the simple relative root groups>,
    isomorphic to SL_2 over the base field's Laurent ring."""

    datum: HermitianDescentDatum
    sl2: LoopGroup = dc_field(compare=False)

    def from_sl2(self, g: LaurentMatrix) -> LaurentMatrix:
        """[[A,B],[C,D]] -> [[A,0,kB],[0,1,0],[k^-1 C,0,D]] (k = kappa).  The
        base field's values 0..q-1 are the same elements of the extension
        (base-p digits), so each entry is relabelled, then scaled."""
        d = self.datum
        e, kap = d.ext, d.kappa
        (a, b), (c, dd) = ([LaurentPoly(e, p.terms) for p in row] for row in g.rows)
        zero, one = LaurentPoly.zero(e), LaurentPoly.one(e)
        rows = ((a, zero, b.scale(kap)), (zero, one, zero), (c.scale(e.inv(kap)), zero, dd))
        return LaurentMatrix(e, 3, rows)

    def _untwisted_corners(self, g: LaurentMatrix):
        """((A, B), (C, D)) with g = from_sl2 of it over the extension, or
        None when g is not in F."""
        d = self.datum
        e = d.ext
        if not d.is_fixed(g) or not g.entry(1, 1).is_one():
            return None
        if any(not g.entry(i, j).is_zero() for i, j in ((0, 1), (1, 0), (1, 2), (2, 1))):
            return None
        # the corners, untwisted by kappa, must have base-field coefficients
        corners = (
            (g.entry(0, 0), g.entry(0, 2).scale(e.inv(d.kappa))),
            (g.entry(2, 0).scale(d.kappa), g.entry(2, 2)),
        )
        if any(e.frobenius(v) != v for row in corners for p in row for _, v in p.terms):
            return None
        return corners

    def contains(self, g: LaurentMatrix) -> bool:
        return self._untwisted_corners(g) is not None

    def to_sl2(self, g: LaurentMatrix) -> LaurentMatrix:
        """The SL_2 element of g in F.  A Frobenius-fixed value is below q in
        the base-p digit encoding, so the untwisted corners are relabelled
        into the base field as they are."""
        corners = self._untwisted_corners(g)
        if corners is None:
            raise OracleInconsistent("matrix is not in the maximal split subgroup")
        f = self.sl2.field
        return LaurentMatrix(f, 2, tuple(tuple(LaurentPoly(f, p.terms) for p in row) for row in corners))

    def split_torus_elements(self) -> list[LaurentMatrix]:
        """diag(a, 1, a^-1) for a in the base field's units."""
        e = self.datum.ext
        one = LaurentPoly.one(e)
        return [
            diagonal(e, (LaurentPoly.const(e, a), one, LaurentPoly.const(e, e.inv(a))))
            for a in self.datum.base.units()
        ]


def maximal_split_subgroup(d: HermitianDescentDatum) -> MaximalSplitSubgroup:
    return MaximalSplitSubgroup(d, loop_group(d.q, 2))
