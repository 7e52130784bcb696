from fractions import Fraction

import pytest

from twinroot import cone, gcm, weyl
from twinroot.cone import CoFunctional
from twinroot.errors import (
    NotClosedUnderComposition,
    NotInFundamentalChamber,
    OracleInconsistent,
    OrbitNotSpherical,
    RankMismatch,
)

from conftest import TEST_GCMS


def test_dual_action_identity_and_pairing(rng):
    for A in (gcm.A2, gcm.B2, gcm.AFFINE_A1):
        ball = weyl.enumerate_ball(A, 4)
        f = CoFunctional.of([Fraction(3, 2), Fraction(-1, 3)][: A.n] + [Fraction(1)] * (A.n - 2))
        assert cone.dual_action(weyl.identity_element(A), f) == f
        for _ in range(100):
            w = rng.choice(ball)
            fr = CoFunctional.of([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(A.n)])
            v = tuple(rng.randint(-5, 5) for _ in range(A.n))
            wf = cone.dual_action(w, fr)
            assert wf.pair(w.apply(v)) == fr.pair(v)


def test_dual_action_wall_preserved():
    # s_0 preserves the wall condition f(e_0) = 0
    f = CoFunctional.of([0, 1])
    s0 = weyl.simple_element(gcm.A2, 0)
    assert cone.dual_action(s0, f).coords[0] == 0


def test_facet_type():
    assert cone.facet_type(CoFunctional.of([1, 2])) == ()
    assert cone.facet_type(CoFunctional.of([0, 0])) == (0, 1)
    assert cone.facet_type(CoFunctional.of([0, 1])) == (0,)
    with pytest.raises(NotInFundamentalChamber):
        cone.facet_type(CoFunctional.of([-1, 1]))


def test_fixed_subspace_trivial_group():
    basis = cone.fixed_subspace(gcm.A2, [], ())
    assert len(basis) == 2


def test_fixed_subspace_affine_a2_flip():
    flip = cone.diagram_automorphism(gcm.AFFINE_A2, (0, 2, 1))
    basis = cone.fixed_subspace(gcm.AFFINE_A2, [flip], ())
    assert len(basis) == 2
    for b in basis:
        assert b.coords[1] == b.coords[2]


def test_fixed_subspace_two_affine_a1_copies():
    A = gcm.validate_gcm(
        [[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]]
    )
    swap = cone.diagram_automorphism(A, (2, 3, 0, 1))
    assert len(cone.fixed_subspace(A, [swap], ())) == 2


def test_fixed_subspace_with_s0():
    flip = cone.diagram_automorphism(gcm.AFFINE_A2, (0, 2, 1))
    basis = cone.fixed_subspace(gcm.AFFINE_A2, [flip], (1, 2))
    assert len(basis) == 1
    with pytest.raises(RankMismatch):
        cone.fixed_subspace(gcm.AFFINE_A2, [flip], (1,))  # not flip-stable


def test_automorphism_validation():
    with pytest.raises(RankMismatch):
        cone.diagram_automorphism(gcm.B2, (1, 0))  # B2 is not symmetric
    with pytest.raises(NotClosedUnderComposition):
        # a 3-cycle alone is not closed: its square is missing
        rotation = cone.diagram_automorphism(gcm.AFFINE_A2, (1, 2, 0))
        cone.fixed_subspace(gcm.AFFINE_A2, [rotation], ())


def test_relative_coxeter_trivial_group():
    for A in TEST_GCMS.values():
        rc = cone.relative_coxeter(A, [])
        assert rc.m == weyl.coxeter_matrix(A).m


def test_relative_coxeter_affine_a2_flip():
    flip = cone.diagram_automorphism(gcm.AFFINE_A2, (0, 2, 1))
    rc = cone.relative_coxeter(gcm.AFFINE_A2, [flip])
    assert rc.orbits == ((0,), (1, 2))
    assert rc.m == ((1, weyl.INF), (weyl.INF, 1))


def test_relative_coxeter_two_swapped_copies():
    for block in (gcm.A2, gcm.B2):
        n = block.n
        rows = []
        for i in range(2 * n):
            row = []
            for j in range(2 * n):
                if i < n and j < n:
                    row.append(block.a[i][j])
                elif i >= n and j >= n:
                    row.append(block.a[i - n][j - n])
                else:
                    row.append(0)
            rows.append(row)
        A = gcm.validate_gcm(rows)
        swap = cone.diagram_automorphism(A, tuple(range(n, 2 * n)) + tuple(range(n)))
        rc = cone.relative_coxeter(A, [swap])
        assert rc.m == weyl.coxeter_matrix(block).m


def test_relative_coxeter_classical_foldings():
    # the end swap of the A3 chain folds to B2
    A3 = gcm.validate_gcm([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    rc = cone.relative_coxeter(A3, [cone.diagram_automorphism(A3, (2, 1, 0))])
    assert rc.m == ((1, 4), (4, 1))
    # a reflection of the affine A3 cycle folds to the affine C2 matrix
    A = gcm.validate_gcm(
        [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]]
    )
    rc2 = cone.relative_coxeter(A, [cone.diagram_automorphism(A, (0, 3, 2, 1))])
    assert rc2.m == ((1, 4, 2), (4, 1, 4), (2, 4, 1))


def test_relative_generators_are_involutions_on_l():
    flip = cone.diagram_automorphism(gcm.AFFINE_A2, (0, 2, 1))
    basis = cone.fixed_subspace(gcm.AFFINE_A2, [flip], ())
    for orbit in cone.orbits(gcm.AFFINE_A2, [flip]):
        r = cone.orbit_longest_element(gcm.AFFINE_A2, orbit)
        restr = cone._restrict_to_subspace(r, basis)
        assert restr is not None  # stabilizes L
        sq = weyl.mat_mul(restr, restr)
        assert sq == weyl.identity_matrix(len(basis))


def test_orbit_not_spherical():
    A = gcm.validate_gcm(
        [[2, -2, 0], [-2, 2, 0], [0, 0, 2]]
    )
    swap = cone.diagram_automorphism(A, (1, 0, 2))
    with pytest.raises(OrbitNotSpherical):
        cone.relative_coxeter(A, [swap])
    # the rotation group of the affine A2 cycle has a single non-spherical orbit
    rot = cone.diagram_automorphism(gcm.AFFINE_A2, (1, 2, 0))
    rot2 = rot.compose(rot)
    with pytest.raises(OrbitNotSpherical):
        cone.relative_coxeter(gcm.AFFINE_A2, [rot, rot2])


def test_cone_membership():
    status, w = cone.cone_membership(gcm.A2, CoFunctional.of([-2, 5]))
    assert status == "inside"
    f2 = cone.dual_action(w, CoFunctional.of([-2, 5]))
    assert all(x >= 0 for x in f2.coords)
    # a point outside the Tits cone of an affine group never resolves
    status, w = cone.cone_membership(gcm.AFFINE_A1, CoFunctional.of([-1, -1]), cap=100)
    assert status == "undecided" and w is None


def _check_fold(A, perm, rel, images, radius):
    """Every element of the relative ball folds back from its image, the
    concatenated orbit images, whose length is additive."""
    orbits = cone.orbits(A, [perm])
    ball = weyl.enumerate_ball(rel, radius)
    for w in ball:
        image = tuple(i for k in w.word for i in images[k])
        ambient = weyl.from_word(A, image)
        assert ambient.length == len(image), w.word
        assert weyl.from_word(rel, cone.fold_word(A, orbits, ambient)) == w
    return orbits, len(ball)


def test_fold_word_affine_a2_flip():
    # images of the infinite dihedral generators: s0 and s1 s2 s1
    orbits, _ = _check_fold(gcm.AFFINE_A2, (0, 2, 1), gcm.AFFINE_A1, {0: (0,), 1: (1, 2, 1)}, 30)
    # s_1 and s_1 s_0 are not fixed by the flip 1 <-> 2
    for word in ((1,), (1, 0)):
        with pytest.raises(OracleInconsistent):
            cone.fold_word(gcm.AFFINE_A2, orbits, weyl.from_word(gcm.AFFINE_A2, word))


def test_fold_word_affine_a3_flip():
    # the flip 1 <-> 3 of the affine A3 cycle folds it to affine C2, with
    # generators s0, s1 s3 and s2
    A = gcm.validate_gcm([[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]])
    rel = gcm.validate_gcm([[2, -1, 0], [-2, 2, -2], [0, -1, 2]])
    assert cone.relative_coxeter(A, [(0, 3, 2, 1)]).m == weyl.coxeter_matrix(rel).m
    orbits, size = _check_fold(A, (0, 3, 2, 1), rel, {0: (0,), 1: (1, 3), 2: (2,)}, 6)
    assert orbits == ((0,), (1, 3), (2,)) and size == 57
    with pytest.raises(OracleInconsistent):
        cone.fold_word(A, orbits, weyl.from_word(A, (3, 0)))
