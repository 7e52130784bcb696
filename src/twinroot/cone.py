"""Tits-cone side of the Coxeter complex: facets, cone membership, Galois folding.

Points of the dual space V* are stored by their exact rational values on the
basis e_0..e_{n-1}.  Diagram automorphisms fold the Coxeter system to the
relative one: orbit generators are longest elements of the orbit parabolics,
and folded orders are read in W itself.  They equal the orders on the fixed
subspace L: an element of W that acts trivially on L fixes the all-ones point
of L, which lies in the open fundamental chamber, and only the identity of W
fixes such a point.
`fold_word` reads an element of the folded subgroup of W as a relative word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

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

    def to_json_obj(self):
        return [{"num": f.numerator, "den": f.denominator} for f in self.coords]


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
    """(letters, longest element) per orbit, built once: the images in W of
    the relative generators."""
    return tuple((frozenset(o), orbit_longest_element(A, o)) for o in orbits)


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
        for k, (letters, r) in enumerate(images):
            if letters <= descents:
                break
        else:
            raise OracleInconsistent(f"ambient element {w.word} is not in the image of the relative Weyl group")
        peeled.append(k)
        for i in r.word:
            x = weyl._reflect(a, x, i)


def relative_coxeter(A: GeneralizedCartanMatrix, autos) -> RelativeCoxeterMatrix:
    """Folded Coxeter matrix of the diagram-automorphism group.

    Generators are longest elements of orbit parabolics; m(O, O') is the
    order of their product in W, which weyl.matrix_order certifies on W's
    integral action.  It is the order on the fixed subspace L too (module
    docstring), and m(O', O) = m(O, O') as the two products are inverse.
    """
    orbs = orbits(A, autos)
    gens = [r.mat for _, r in _orbit_images(A, orbs)]
    m = [[1] * len(orbs) for _ in orbs]
    for i, j in combinations(range(len(orbs)), 2):
        m[i][j] = m[j][i] = weyl.matrix_order(weyl.mat_mul(gens[i], gens[j]))
    return RelativeCoxeterMatrix(orbs, tuple(map(tuple, m)))
