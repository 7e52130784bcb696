import itertools

import pytest

from twinroot import cone, gcm, weyl
from twinroot.cone import CoFunctional
from twinroot.errors import (
    NotInFundamentalChamber,
    OracleInconsistent,
    OrbitNotSpherical,
    RankMismatch,
)

from conftest import TEST_GCMS


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
    with pytest.raises(RankMismatch):
        cone.diagram_automorphism(gcm.A2, (0, 1, 2))  # not a permutation of the nodes
    # the rotation alone generates its cyclic group, whose one orbit is every node
    rotation = cone.diagram_automorphism(gcm.AFFINE_A2, (1, 2, 0))
    assert rotation == (1, 2, 0)
    basis = cone.fixed_subspace(gcm.AFFINE_A2, [rotation], ())
    assert [b.coords for b in basis] == [(1, 1, 1)]


def test_relative_coxeter_trivial_group():
    for A in TEST_GCMS.values():
        rc = cone.relative_coxeter(A, [])
        assert rc.m == weyl.coxeter_matrix(A).m


def test_relative_coxeter_affine_a2_flip():
    flip = cone.diagram_automorphism(gcm.AFFINE_A2, (0, 2, 1))
    rc = cone.relative_coxeter(gcm.AFFINE_A2, [flip])
    assert rc.orbits == ((0,), (1, 2))
    assert rc.m == ((1, weyl.INF), (weyl.INF, 1))


def _cycle(n):
    """The affine A_{n-1} GCM: an n-cycle of simple bonds."""
    bond = {1, n - 1}
    return gcm.validate_gcm([[2 if i == j else -1 if (i - j) % n in bond else 0 for j in range(n)] for i in range(n)])


def _copies(block, c):
    """c copies of block along the diagonal, with no bonds between them."""
    n = block.n
    return gcm.validate_gcm([[block.a[i % n][j % n] if i // n == j // n else 0 for j in range(c * n)]
                             for i in range(c * n)])


def test_relative_coxeter_two_swapped_copies():
    for block in (gcm.A2, gcm.B2):
        n = block.n
        A = _copies(block, 2)
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


def test_groups_given_by_generators():
    # S3 permuting three A2 copies: a 3-cycle and a transposition generate
    # it, and give what the listed group gives
    A = _copies(gcm.A2, 3)
    gens = [(2, 3, 4, 5, 0, 1), (2, 3, 0, 1, 4, 5)]
    group = [tuple(2 * s[k // 2] + k % 2 for k in range(6)) for s in itertools.permutations(range(3))]
    assert cone.orbits(A, gens) == cone.orbits(A, group) == ((0, 2, 4), (1, 3, 5))
    assert cone.relative_coxeter(A, gens) == cone.relative_coxeter(A, group)
    assert cone.relative_coxeter(A, gens[:1]).m == weyl.coxeter_matrix(gcm.A2).m
    assert cone.fixed_subspace(A, gens, (1, 3, 5)) == cone.fixed_subspace(A, group, (1, 3, 5))


def _cyclic_groups(A):
    """Each group generated by one diagram automorphism of A, as a generator
    and the sorted list of the group's permutations."""
    groups = {}
    for p in itertools.permutations(range(A.n)):
        if all(A.a[p[i]][p[j]] == A.a[i][j] for i in range(A.n) for j in range(A.n)):
            group, q = [], p
            while q not in group:
                group.append(q)
                q = tuple(p[i] for i in q)
            groups.setdefault(frozenset(group), (p, sorted(group)))
    return list(groups.values())


def _order_on_fixed_subspace(A, orbits, r1, r2):
    """Order of r1 r2 on L, the span of the orbit indicators b_O, from the
    dual action (r.b_O)(e_j) = sum_{k in O} r^{-1}[k][j]; that value must be
    the same for every j of an orbit O', and it is entry (O', O)."""

    def restricted(r):
        rows = []
        for target in orbits:
            values = [{sum(r.inv[k][j] for k in orbit) for j in target} for orbit in orbits]
            assert all(len(v) == 1 for v in values), "r does not stabilize L"
            rows.append(tuple(v.pop() for v in values))
        return tuple(rows)

    return weyl.matrix_order(weyl.mat_mul(restricted(r1), restricted(r2)))


def test_relative_coxeter_is_the_order_on_the_fixed_subspace():
    families = [*TEST_GCMS.values(), *(_cycle(n) for n in range(3, 7)),
                *(_copies(b, c) for b in (gcm.A2, gcm.B2, gcm.G2) for c in (2, 3)),
                gcm.validate_gcm([[2, -3], [-3, 2]]), gcm.validate_gcm([[2, -1, -2], [-1, 2, -2], [-2, -2, 2]])]
    folded = raised = 0
    for A in families:
        for gen, group in _cyclic_groups(A):
            orbits = cone.orbits(A, group)
            assert cone.orbits(A, [gen]) == orbits
            try:
                gens = [cone.orbit_longest_element(A, o) for o in orbits]
            except OrbitNotSpherical:
                for generators in (group, [gen]):
                    with pytest.raises(OrbitNotSpherical):
                        cone.relative_coxeter(A, generators)
                raised += 1
                continue
            rc = cone.relative_coxeter(A, group)
            assert cone.relative_coxeter(A, [gen]) == rc
            assert rc.orbits == orbits
            for i, j in itertools.combinations(range(len(orbits)), 2):
                m = _order_on_fixed_subspace(A, orbits, gens[i], gens[j])
                assert rc.m[i][j] == rc.m[j][i] == m, (A.a, group[0], i, j)
            assert all(rc.m[i][i] == 1 for i in range(len(orbits)))
            folded += 1
    assert (folded, raised) == (92, 7)


def test_relative_generators_are_involutions_commuting_with_the_automorphism():
    # r_O r_O = 1 in W, and r_O commutes with the permutation matrix of the
    # automorphism, so it stabilizes the fixed subspace L
    cycle4 = _cycle(4)
    for A, perm in ((gcm.AFFINE_A2, (0, 2, 1)), (cycle4, (0, 3, 2, 1)), (cycle4, (1, 0, 3, 2))):
        p = tuple(tuple(1 if i == perm[j] else 0 for j in range(A.n)) for i in range(A.n))
        for orbit in cone.orbits(A, [perm]):
            r = cone.orbit_longest_element(A, orbit)
            assert weyl.mat_mul(r.mat, r.mat) == weyl.identity_matrix(A.n)
            assert weyl.mat_mul(r.mat, p) == weyl.mat_mul(p, r.mat)


def test_orbit_not_spherical():
    A = gcm.validate_gcm(
        [[2, -2, 0], [-2, 2, 0], [0, 0, 2]]
    )
    swap = cone.diagram_automorphism(A, (1, 0, 2))
    with pytest.raises(OrbitNotSpherical):
        cone.relative_coxeter(A, [swap])
    # the rotation group of the affine A2 cycle has a single non-spherical orbit
    rot = cone.diagram_automorphism(gcm.AFFINE_A2, (1, 2, 0))
    with pytest.raises(OrbitNotSpherical):
        cone.relative_coxeter(gcm.AFFINE_A2, [rot])


def test_cone_membership():
    status, w = cone.cone_membership(gcm.A2, CoFunctional.of([-2, 5]))
    assert status == "inside"
    # (w.f)(e_j) = f(w^{-1} e_j) = sum_k f(e_k) w^{-1}[k][j]
    f = (-2, 5)
    assert all(sum(f[k] * w.inv[k][j] for k in range(2)) >= 0 for j in range(2))
    # a point outside the Tits cone of an affine group never resolves
    status, w = cone.cone_membership(gcm.AFFINE_A1, CoFunctional.of([-1, -1]), cap=100)
    assert status == "undecided" and w is None


def test_cone_membership_checks_the_rank():
    for values in ([-1, 2, 3], [-1]):
        with pytest.raises(RankMismatch):
            cone.cone_membership(gcm.A2, CoFunctional.of(values))


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
