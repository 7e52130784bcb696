"""Tits-cone side of the Coxeter complex: dual action, facets, Galois folding.

Points of the dual space V* are stored by their exact rational values on the
basis e_0..e_{n-1}.  Diagram automorphisms fold the Coxeter system to the
relative one: orbit generators are longest elements of the orbit parabolics,
and folded orders are computed from the action on the fixed subspace L.
`fold_word` reads an element of the folded subgroup of W as a relative word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import weyl
from .errors import (
    IndexOutOfRange,
    NotClosedUnderComposition,
    NotInFundamentalChamber,
    NotSpherical,
    OracleInconsistent,
    OrbitNotSpherical,
    RankMismatch,
)
from .gcm import GeneralizedCartanMatrix
from .roots import longest_element
from .weyl import WeylElement

FracVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class CoFunctional:
    """f in V*, stored as the exact rational values (f(e_0), ..., f(e_{n-1}))."""

    coords: FracVector

    @staticmethod
    def of(values) -> "CoFunctional":
        return CoFunctional(tuple(Fraction(v) for v in values))

    def pair(self, v) -> Fraction:
        if len(v) != len(self.coords):
            raise RankMismatch("vector length does not match the functional")
        return sum((f * x for f, x in zip(self.coords, v)), Fraction(0))

    def to_json_obj(self):
        return [{"num": f.numerator, "den": f.denominator} for f in self.coords]


def dual_action(w: WeylElement, f: CoFunctional) -> CoFunctional:
    """(w.f)(v) = f(w^{-1} v); preserves the pairing exactly."""
    n = w.gcm.n
    if len(f.coords) != n:
        raise RankMismatch("functional length does not match the rank")
    coords = tuple(
        sum((f.coords[k] * w.inv[k][j] for k in range(n)), Fraction(0)) for j in range(n)
    )
    return CoFunctional(coords)


def facet_type(f: CoFunctional) -> tuple[int, ...]:
    """J(f) = {i : f(e_i) = 0} for f in the closed fundamental chamber."""
    if any(x < 0 for x in f.coords):
        raise NotInFundamentalChamber(f"{f.coords} has a negative value")
    return tuple(i for i, x in enumerate(f.coords) if x == 0)


def cone_membership(A: GeneralizedCartanMatrix, f: CoFunctional, cap: int = 200):
    """Bounded descent toward the fundamental chamber.

    Returns ("inside", w) with w.f in the closed chamber, or
    ("undecided", None) once the step cap is reached.
    """
    word = weyl.descend(A, f.coords, cap)
    if word is None:
        return "undecided", None
    return "inside", weyl.from_word(A, word[::-1])


@dataclass(frozen=True)
class DiagramAutomorphism:
    """Permutation of the nodes preserving the Cartan matrix."""

    perm: tuple[int, ...]

    def apply(self, i: int) -> int:
        return self.perm[i]

    def compose(self, other: "DiagramAutomorphism") -> "DiagramAutomorphism":
        return DiagramAutomorphism(tuple(self.perm[other.perm[i]] for i in range(len(self.perm))))


def diagram_automorphism(A: GeneralizedCartanMatrix, perm) -> DiagramAutomorphism:
    perm = tuple(perm)
    if sorted(perm) != list(range(A.n)):
        raise RankMismatch(f"{perm} is not a permutation of 0..{A.n - 1}")
    for i in range(A.n):
        for j in range(A.n):
            if A.a[perm[i]][perm[j]] != A.a[i][j]:
                raise RankMismatch(f"{perm} does not preserve the Cartan matrix at ({i},{j})")
    return DiagramAutomorphism(perm)


def _closure_check(A, autos) -> list[DiagramAutomorphism]:
    autos = [a if isinstance(a, DiagramAutomorphism) else diagram_automorphism(A, a) for a in autos]
    perms = {a.perm for a in autos}
    ident = tuple(range(A.n))
    if ident not in perms:
        perms.add(ident)
        autos.append(DiagramAutomorphism(ident))
    for a in autos:
        for b in autos:
            if a.compose(b).perm not in perms:
                raise NotClosedUnderComposition(
                    f"composition of {a.perm} and {b.perm} missing from the group"
                )
    return autos


def orbits(A: GeneralizedCartanMatrix, autos) -> tuple[tuple[int, ...], ...]:
    autos = _closure_check(A, autos)
    seen = set()
    out = []
    for i in range(A.n):
        if i in seen:
            continue
        orbit = sorted({a.apply(i) for a in autos})
        seen.update(orbit)
        out.append(tuple(orbit))
    return tuple(out)


def fixed_subspace(A: GeneralizedCartanMatrix, autos, S0=()) -> list[CoFunctional]:
    """Basis of L = {x : x(e_i) = 0 for i in S0, x constant on each orbit}.

    One indicator functional per orbit outside S0.
    """
    autos = _closure_check(A, autos)
    S0 = frozenset(S0)
    if any(not 0 <= i < A.n for i in S0):
        raise IndexOutOfRange(f"S0 = {sorted(S0)} has an index outside 0..{A.n - 1}")
    for a in autos:
        if {a.apply(i) for i in S0} != S0:
            raise RankMismatch(f"S0 = {sorted(S0)} is not stable under {a.perm}")
    basis = []
    for orbit in orbits(A, autos):
        if orbit[0] in S0:
            continue
        basis.append(
            CoFunctional(tuple(Fraction(1 if i in orbit else 0) for i in range(A.n)))
        )
    return basis


@dataclass(frozen=True)
class RelativeCoxeterMatrix:
    orbits: tuple[tuple[int, ...], ...]
    m: tuple[tuple[float, ...], ...]


def _embed_word(J, word):
    return tuple(J[i] for i in word)


def orbit_longest_element(A: GeneralizedCartanMatrix, orbit) -> WeylElement:
    sub = A.submatrix(tuple(orbit))
    try:
        w0 = longest_element(sub)
    except NotSpherical as exc:
        raise OrbitNotSpherical(f"orbit {orbit} spans a non-spherical subdiagram") from exc
    return weyl.from_word(A, _embed_word(tuple(orbit), w0.word))


@lru_cache(maxsize=None)
def _orbit_images(A: GeneralizedCartanMatrix, orbits) -> tuple:
    """(letters, ShortLex word of the longest element) per orbit, built once."""
    return tuple((frozenset(o), orbit_longest_element(A, o).word) for o in orbits)


def fold_word(A: GeneralizedCartanMatrix, orbits, w: WeylElement) -> tuple[int, ...]:
    """The relative word (indices into orbits, a tuple of tuples as `orbits`
    returns) whose image in W is w.

    Peels the image of the first orbit whose letters are all left descents
    off the left, read as the negative coordinates of x = w.rho_vee as in
    weyl.descend; the image of a relative word is reached by such peelings
    alone, so OracleInconsistent is raised when none applies before the
    identity.
    """
    images = _orbit_images(A, orbits)
    a = A.a
    x = tuple(map(sum, zip(*w.inv)))
    peeled = []
    while True:
        descents = {i for i, c in enumerate(x) if c < 0}
        if not descents:
            return tuple(peeled)
        for k, (letters, word) in enumerate(images):
            if letters <= descents:
                break
        else:
            raise OracleInconsistent(f"ambient element {w.word} is not in the image of the relative Weyl group")
        peeled.append(k)
        for i in word:
            x = weyl._reflect(a, x, i)


def _restrict_to_subspace(w: WeylElement, basis: list[CoFunctional]):
    """Matrix of the dual action of w on span(basis); None if not stable."""
    n = w.gcm.n
    k = len(basis)
    images = [dual_action(w, b) for b in basis]
    # solve images[j] = sum_i coeff[i][j] basis[i]; basis vectors are orbit
    # indicators with disjoint supports, so coefficients read off directly
    cols = []
    for img in images:
        coeffs = []
        residual = list(img.coords)
        for b in basis:
            support = [i for i, x in enumerate(b.coords) if x != 0]
            vals = {img.coords[i] for i in support}
            if len(vals) != 1:
                return None
            c = vals.pop()
            coeffs.append(c)
            for i in support:
                residual[i] -= c
        if any(x != 0 for x in residual):
            return None
        cols.append(coeffs)
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))


def relative_coxeter(A: GeneralizedCartanMatrix, autos) -> RelativeCoxeterMatrix:
    """Folded Coxeter matrix of the diagram-automorphism group.

    Generators are longest elements of orbit parabolics; m(O, O') is the
    order of the product acting on the fixed subspace L.  The restricted
    generators are integral, so weyl.matrix_order certifies it.
    """
    autos = _closure_check(A, autos)
    orbs = orbits(A, autos)
    basis = fixed_subspace(A, autos)
    gens = []
    for orbit in orbs:
        r = orbit_longest_element(A, orbit)
        restr = _restrict_to_subspace(r, basis)
        if restr is None:
            raise OrbitNotSpherical(f"generator of orbit {orbit} does not stabilize L")
        gens.append(restr)
    k = len(orbs)
    rows = tuple(
        tuple(1 if i == j else weyl.matrix_order(weyl.mat_mul(gens[i], gens[j])) for j in range(k))
        for i in range(k)
    )
    return RelativeCoxeterMatrix(orbs, rows)
