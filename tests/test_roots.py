import itertools
import math
import random
import time

import pytest

from twinroot import gcm, roots, weyl
from twinroot.errors import (
    BadRoot,
    IndexOutOfRange,
    MixedSign,
    NotNilpotentSet,
    NotPrenilpotent,
    NotSpherical,
    OrderingFailed,
    RankMismatch,
)
from twinroot.roots import RootVector

from conftest import FINITE_GCMS, LARGER_GCMS, TEST_GCMS, fraction_farkas_empty


def witness_oracle(A, alpha, beta, radius=8):
    """Brute-force prenilpotency: look for both-positive and both-negative
    witness chambers in the length <= radius ball."""
    pos = neg = False
    for w in weyl.enumerate_ball(A, radius):
        sa = weyl.root_sign(w.apply(alpha.coords))
        sb = weyl.root_sign(w.apply(beta.coords))
        pos = pos or (sa > 0 and sb > 0)
        neg = neg or (sa < 0 and sb < 0)
        if pos and neg:
            return True
    return False


def interval_oracle_finite(A, alpha, beta):
    """Direct definition over a finite group: exhaust roots and chambers."""
    ball = weyl.enumerate_ball(A, 20)
    assert all(w.length < 20 for w in ball)
    all_roots = [r.coords for r in roots.enumerate_real_roots(A, 20)]

    def halfspace(g):
        return frozenset(
            w.mat for w in ball if weyl.root_sign(w.apply(g)) > 0
        )

    ha, hb = halfspace(alpha.coords), halfspace(beta.coords)
    hna = halfspace(tuple(-x for x in alpha.coords))
    hnb = halfspace(tuple(-x for x in beta.coords))
    out = []
    for g in all_roots:
        neg = tuple(-x for x in g)
        if halfspace(g) >= (ha & hb) and halfspace(neg) >= (hna & hnb):
            out.append(g)
    return sorted(out)


def test_enumerate_a2():
    rr = roots.enumerate_real_roots(gcm.A2, 3)
    assert {r.coords for r in rr} == {
        (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)
    }


def test_enumerate_rank_one():
    A1 = gcm.validate_gcm([[2]])
    for L in (0, 1, 5):
        assert {r.coords for r in roots.enumerate_real_roots(A1, L)} == {(1,), (-1,)}


def test_enumerate_affine_a1():
    rr = {r.coords for r in roots.enumerate_real_roots(gcm.AFFINE_A1, 2)}
    # all w(+-v_i) for l(w) <= 2: includes +-(2,1) and +-(1,2) plus the
    # length-2 translates +-(3,2), +-(2,3)
    for v in ((2, 1), (1, 2), (3, 2), (2, 3)):
        assert v in rr and tuple(-x for x in v) in rr
    assert len(rr) == 12


def test_outputs_sign_coherent():
    for A in TEST_GCMS.values():
        for r in roots.enumerate_real_roots(A, 4):
            assert r.sign in (1, -1)


def test_is_positive():
    v0 = roots.simple_root(gcm.A2, 0)
    assert roots.is_positive(v0)
    assert not roots.is_positive(-v0)
    # B2 orbit membership first, then the sign
    b2 = {r.coords for r in roots.enumerate_real_roots(gcm.B2, 4)}
    assert (1, 2) in b2
    assert roots.is_positive(RootVector((1, 2)))
    with pytest.raises(MixedSign):
        RootVector((1, -1))


def test_prenilpotent_basics():
    for A in TEST_GCMS.values():
        for r in roots.enumerate_real_roots(A, 2):
            assert roots.is_prenilpotent_pair(A, r, r) is True
            assert roots.is_prenilpotent_pair(A, r, -r) is False


def test_prenilpotent_a2_simple_pair():
    assert roots.is_prenilpotent_pair(
        gcm.A2, roots.simple_root(gcm.A2, 0), roots.simple_root(gcm.A2, 1)
    ) is True


def test_prenilpotent_infinite_dihedral_simples():
    assert roots.is_prenilpotent_pair(
        gcm.AFFINE_A1, roots.simple_root(gcm.AFFINE_A1, 0), roots.simple_root(gcm.AFFINE_A1, 1)
    ) is False


def test_prenilpotent_matches_witness_oracle_affine():
    for A in (gcm.AFFINE_A1, gcm.AFFINE_A2):
        rr = roots.enumerate_real_roots(A, 3)
        for a, b in itertools.combinations(rr, 2):
            got = roots.is_prenilpotent_pair(A, a, b)
            assert isinstance(got, bool), (a, b)
            assert got == witness_oracle(A, a, b), (a, b)


def test_finite_groups_prenilpotent_pairs():
    for A in FINITE_GCMS.values():
        rr = roots.enumerate_real_roots(A, 10)
        for a, b in itertools.combinations(rr, 2):
            expected = a.coords != tuple(-x for x in b.coords)
            assert roots.is_prenilpotent_pair(A, a, b) is expected


# rank 3, a01 a12 a20 = -1 but a10 a21 a02 = -2: not symmetrizable
NON_SYMMETRIZABLE = gcm.validate_gcm([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]])


def quadrant_scan_oracle(A, signs, x, y):
    """The ball-scan quadrant certificate the pairing rule replaced, as a
    reference: {(1, 1): v, (-1, -1): v} with v True (the quadrant holds a
    chamber), False (certified empty) or None (undecided).  signs[x] lists
    sign(w x) over a Weyl ball.  A quadrant seen in the ball holds a chamber;
    crossing walls (finite order of r_x r_y) put chambers in all four; with
    parallel walls exactly one quadrant is empty, so an unseen quadrant is
    empty once the three others were seen."""
    if y == x or y == tuple(-v for v in x):
        return {q: (q[0] == q[1]) == (y == x) for q in ((1, 1), (-1, -1))}
    seen = set(zip(signs[x], signs[y]))
    product = weyl.mat_mul(roots.reflection_matrix(A, RootVector(x)), roots.reflection_matrix(A, RootVector(y)))
    crossing = weyl.matrix_order(product) != math.inf
    return {
        q: True if q in seen or crossing else (False if len(seen) == 3 else None)
        for q in ((1, 1), (-1, -1))
    }


@pytest.mark.parametrize(
    "name, root_radius, ball_radius",
    [(name, 3, 8) for name in TEST_GCMS] + [("H3", 3, 8), ("K4", 2, 5), ("non_symmetrizable", 3, 6)],
)
def test_pairing_rule_matches_quadrant_scan(name, root_radius, ball_radius):
    A = {**TEST_GCMS, **LARGER_GCMS, "non_symmetrizable": NON_SYMMETRIZABLE}[name]
    rr = [r.coords for r in roots.enumerate_real_roots(A, root_radius)]
    ball = weyl.enumerate_ball(A, ball_radius)
    signs = {x: [weyl.root_sign(w.apply(x)) for w in ball] for x in rr}
    for x, y in itertools.product(rr, rr):
        want = quadrant_scan_oracle(A, signs, x, y)
        assert None not in want.values(), (x, y)
        got = roots.is_prenilpotent_pair(A, RootVector(x), RootVector(y))
        assert got is (want[(1, 1)] and want[(-1, -1)]), (x, y)
        # the (+,+)-emptiness certificate of the interval membership tests
        assert (1 in roots._empty_diagonal(A, x, y)) is (want[(1, 1)] is False), (x, y)


@pytest.mark.parametrize(
    "beta, expected",
    [((-2, -1), False), ((-29, -28), False), ((2, 1), True)],
)
def test_prenilpotent_deep_affine_pairs(beta, expected):
    # alpha_0 + 29 delta lies far outside any default search radius
    A, alpha = gcm.AFFINE_A1, RootVector((30, 29))
    got = roots.is_prenilpotent_pair(A, alpha, RootVector(beta))
    assert got is expected
    assert witness_oracle(A, alpha, RootVector(beta), radius=80) is expected


def test_interval_a2():
    iv = roots.closed_interval(
        gcm.A2, roots.simple_root(gcm.A2, 0), roots.simple_root(gcm.A2, 1)
    )
    assert [r.coords for r in iv.members] == [(0, 1), (1, 0), (1, 1)]
    assert [r.coords for r in iv.open] == [(1, 1)]


def test_interval_matches_finite_oracle():
    for A in FINITE_GCMS.values():
        rr = roots.enumerate_real_roots(A, 10)
        for a, b in itertools.combinations(rr, 2):
            if a.coords == tuple(-x for x in b.coords):
                continue
            iv = roots.closed_interval(A, a, b, search_radius=8)
            assert [r.coords for r in iv.members] == interval_oracle_finite(A, a, b)


def cone_interval_oracle(A, a, b):
    """Second independent oracle (finite systems): roots in the nonnegative
    rational cone spanned by the endpoints."""
    from fractions import Fraction

    out = []
    for g in (r.coords for r in roots.enumerate_real_roots(A, 20)):
        sol = None
        for i, j in itertools.combinations(range(A.n), 2):
            det = a[i] * b[j] - a[j] * b[i]
            if det:
                x = Fraction(g[i] * b[j] - g[j] * b[i], det)
                y = Fraction(a[i] * g[j] - a[j] * g[i], det)
                if all(x * a[k] + y * b[k] == g[k] for k in range(A.n)):
                    sol = (x, y)
                break
        if sol and sol[0] >= 0 and sol[1] >= 0:
            out.append(g)
    return sorted(out)


def test_interval_matches_cone_oracle():
    for A in FINITE_GCMS.values():
        rr = roots.enumerate_real_roots(A, 20)
        for a, b in itertools.combinations(rr, 2):
            if a.coords == tuple(-x for x in b.coords):
                continue
            mine = [r.coords for r in roots.closed_interval(A, a, b).members]
            assert mine == cone_interval_oracle(A, a.coords, b.coords)


def test_interval_singleton():
    for A in TEST_GCMS.values():
        a = roots.simple_root(A, 0)
        assert roots.closed_interval(A, a, a).members == (a,)


def test_interval_symmetry_and_not_prenilpotent():
    a0, a1 = roots.simple_root(gcm.B2, 0), roots.simple_root(gcm.B2, 1)
    m1 = roots.closed_interval(gcm.B2, a0, a1).members
    m2 = roots.closed_interval(gcm.B2, a1, a0).members
    assert set(m1) == set(m2)
    with pytest.raises(NotPrenilpotent):
        roots.closed_interval(gcm.AFFINE_A1, *(roots.simple_root(gcm.AFFINE_A1, i) for i in (0, 1)))


def test_open_interval_of_opposite_simple_pairs_empty():
    # for distinct simple roots, (-alpha, beta) is empty
    for A in TEST_GCMS.values():
        for i in range(A.n):
            for j in range(A.n):
                if i == j:
                    continue
                iv = roots.closed_interval(
                    A, -roots.simple_root(A, i), roots.simple_root(A, j)
                )
                assert iv.open == ()


def test_interval_equivariance():
    for A in (gcm.A2, gcm.B2, gcm.AFFINE_A1):
        pairs = [
            (roots.simple_root(A, 0), roots.simple_root(A, 1)),
            (roots.simple_root(A, 0), -roots.simple_root(A, 1)),
            (-roots.simple_root(A, 0), roots.simple_root(A, 1)),
        ]
        for w in weyl.enumerate_ball(A, 4):
            for a, b in pairs:
                if roots.is_prenilpotent_pair(A, a, b) is not True:
                    continue
                base = roots.closed_interval(A, a, b, search_radius=10)
                wa = RootVector(w.apply(a.coords))
                wb = RootVector(w.apply(b.coords))
                moved = roots.closed_interval(A, wa, wb, search_radius=10)
                assert {r.coords for r in moved.members} == {
                    w.apply(r.coords) for r in base.members
                }


def test_interval_equivariance_non_symmetrizable():
    A = NON_SYMMETRIZABLE
    signed = [r for i in range(A.n) for r in (roots.simple_root(A, i), -roots.simple_root(A, i))]
    # every pair of simple walls crosses (a_ij a_ji <= 3), so every pair of
    # signed simple roots but the opposite ones is prenilpotent
    pairs = [(a, b) for a, b in itertools.combinations(signed, 2) if a != -b]
    assert all(roots.is_prenilpotent_pair(A, a, b) for a, b in pairs)
    for w in weyl.enumerate_ball(A, 3):
        for a, b in pairs:
            base = roots.closed_interval(A, a, b)
            moved = roots.closed_interval(A, RootVector(w.apply(a.coords)), RootVector(w.apply(b.coords)))
            assert {r.coords for r in moved.members} == {w.apply(r.coords) for r in base.members}


def test_affine_nested_interval():
    A = gcm.AFFINE_A1
    a = RootVector((1, 0))
    b = -RootVector((1, 2))
    iv = roots.closed_interval(A, a, b)
    assert {r.coords for r in iv.members} == {(1, 0), (0, -1), (-1, -2)}


def scan_region_empty(A, deltas, radius):
    """Reference region test: the pair and Farkas certificates (Farkas over
    Fraction), then a ball scan that applies each w.mat to each delta and
    reads the sign of the image; a ball that stops short of the radius is
    all of W, so finding no chamber there certifies emptiness."""
    for i in range(len(deltas)):
        for j in range(i + 1, len(deltas)):
            if 1 in roots._empty_diagonal(A, deltas[i], deltas[j]):
                return True
    if fraction_farkas_empty(deltas):
        return True
    ball = roots._cached_ball(A, radius)
    for w in ball:
        if all(weyl.root_sign(weyl.mat_vec(w.mat, d)) > 0 for d in deltas):
            return False
    return True if ball[-1].length < radius else None


AFFINE_G2 = gcm.validate_gcm([[2, -1, 0], [-1, 2, -1], [0, -3, 2]])


@pytest.mark.parametrize(
    "A, bound",
    [
        (gcm.A2, ()),
        (gcm.G2, ()),
        (gcm.AFFINE_A1, ((1, 1),)),
        (gcm.AFFINE_A2, ((1, 1, 1),)),
        (gcm.validate_gcm([[2, -4], [-1, 2]]), ((2, 1),)),
        (AFFINE_G2, ((1, 2, 3),)),
        (LARGER_GCMS["H3"], None),
        (LARGER_GCMS["K4"], None),
        (gcm.validate_gcm([[2, 0, 0], [0, 2, -2], [0, -2, 2]]), None),
    ],
    ids=["A2", "G2", "affine_A1", "affine_A2", "affine_A2_twisted", "affine_G2", "H3", "K4", "A1+affine_A1"],
)
def test_tits_cone_bound(A, bound):
    """Finite and other GCMs exactly; for affine A any positive multiple of
    the listed null root delta, which A kills."""
    got = roots._tits_cone_bound(A)
    if not bound:
        assert got == bound
        return
    (delta,), (want,) = got, bound
    assert len(delta) == A.n and all(x > 0 for x in delta)
    assert all(sum(a * x for a, x in zip(row, want)) == 0 for row in A.a)
    assert all(x * want[0] == y * delta[0] for x, y in zip(delta, want))


def test_affine_g2_intervals_beyond_the_search_radius():
    """Two pairs that the pair and Farkas certificates and the scans of the
    radius-8 and radius-16 balls leave undecided; the Gordan certificate
    over the Tits cone decides them at any radius."""
    want = [(1, 1, 2), (1, 3, 3), (2, 4, 5), (3, 5, 7), (4, 6, 9), (5, 9, 12)]
    for sign in (1, -1):
        a, b = (RootVector(tuple(sign * x for x in v)) for v in ((1, 1, 2), (1, 3, 3)))
        for radius in (0, 8):
            got = roots.closed_interval(AFFINE_G2, a, b, radius).members
            assert sorted(r.coords for r in got) == sorted(tuple(sign * x for x in v) for v in want)


@pytest.mark.parametrize("name", sorted(TEST_GCMS))
def test_exact_region_test_matches_the_scan_reference(name):
    """On finite and affine GCMs the exact region test agrees with the
    scan reference on random triples of real roots wherever the scan
    decides; on the finite ones the scan always decides."""
    A = TEST_GCMS[name]
    rng = random.Random(name)
    rr = roots._root_vectors(A, 4)
    decided = {True: 0, False: 0}
    for _ in range(300):
        deltas = tuple(rng.sample(rr, 3))
        want = scan_region_empty(A, deltas, 8)
        if want is not None:
            assert roots._region_empty(A, deltas, 8) is want
            decided[want] += 1
    assert min(decided.values()) > 0
    if name in FINITE_GCMS:
        assert sum(decided.values()) == 300


@pytest.mark.parametrize(
    "name, A, level, total",
    [
        ("affine_A2", gcm.AFFINE_A2, 5, 65),
        ("affine_A1", gcm.AFFINE_A1, 8, 169),
        ("G2", gcm.G2, 6, 96),
        ("H3", LARGER_GCMS["H3"], 5, 156),
    ],
)
def test_interval_matches_matrix_scan_reference(monkeypatch, name, A, level, total):
    rng = random.Random(name)
    rr = roots._root_vectors(A, level)
    pairs = []
    while len(pairs) < 24:
        a, b = (RootVector(v) for v in rng.sample(rr, 2))
        if roots.is_prenilpotent_pair(A, a, b):
            pairs.append((a, b))
    got = [roots.closed_interval(A, a, b).members for a, b in pairs]
    monkeypatch.setattr(roots, "_region_empty", scan_region_empty)
    assert got == [roots.closed_interval(A, a, b).members for a, b in pairs]
    assert sum(map(len, got)) == total


def test_nibbling_a2():
    positives = [r for r in roots.enumerate_real_roots(gcm.A2, 4) if r.sign > 0]
    seq = roots.nibbling_sequence(gcm.A2, (0, 1), positives)
    assert [r.coords for r in seq.roots] == [(1, 0), (1, 1), (0, 1)]


def test_nibbling_singleton():
    seq = roots.nibbling_sequence(gcm.G2, (0, 1), [roots.simple_root(gcm.G2, 0)])
    assert [r.coords for r in seq.roots] == [(1, 0)]


def test_nibbling_b2_and_g2_full_systems():
    for name, A in (("B2", gcm.B2), ("G2", gcm.G2)):
        positives = [r for r in roots.enumerate_real_roots(A, 12) if r.sign > 0]
        seq = roots.nibbling_sequence(A, (0, 1), positives)
        assert len(seq.roots) == len(positives)
        if name == "B2":
            assert [r.coords for r in seq.roots] == [(1, 0), (1, 1), (1, 2), (0, 1)]


def test_nibbling_inside_parabolic_of_affine():
    # spherical J = {0, 1} inside affine A2
    A = gcm.AFFINE_A2
    psi = [RootVector((1, 0, 0)), RootVector((0, 1, 0)), RootVector((1, 1, 0))]
    seq = roots.nibbling_sequence(A, (0, 1), psi)
    assert len(seq.roots) == 3


def test_nibbling_translated_set():
    # a W_J-translate of the positive system is ordered through the
    # translating element and re-verified in place
    A = gcm.A2
    positives = [r for r in roots.enumerate_real_roots(A, 4) if r.sign > 0]
    w = weyl.from_word(A, (0,))
    translated = [RootVector(w.apply(r.coords)) for r in positives]
    seq = roots.nibbling_sequence(A, (0, 1), translated)
    assert len(seq.roots) == 3
    assert {r.coords for r in seq.roots} == {r.coords for r in translated}


def test_nibbling_checks_psi_rank_and_j_indices():
    alpha = roots.simple_root(gcm.A2, 0)
    for psi in ([(1, 0, 5)], [(1,)]):
        with pytest.raises(RankMismatch):
            roots.nibbling_sequence(gcm.A2, (0, 1), psi)
    for J in ((0, 5), (-1,), (0, 0), (2,)):
        with pytest.raises(IndexOutOfRange):
            roots.nibbling_sequence(gcm.A2, J, [alpha])


def test_nibbling_rejections():
    with pytest.raises(NotSpherical):
        roots.nibbling_sequence(gcm.AFFINE_A1, (0, 1), [roots.simple_root(gcm.AFFINE_A1, 0)])
    with pytest.raises(NotNilpotentSet):
        roots.nibbling_sequence(
            gcm.A2, (0, 1), [roots.simple_root(gcm.A2, 0), -roots.simple_root(gcm.A2, 0)]
        )


def test_interval_json_schema():
    import json

    iv = roots.closed_interval(
        gcm.A2, roots.simple_root(gcm.A2, 0), roots.simple_root(gcm.A2, 1)
    )
    data = json.loads(iv.to_json())
    assert data["alpha"] == [1, 0] and data["beta"] == [0, 1]
    assert data["members"] == [[0, 1], [1, 0], [1, 1]]


def test_reflection_matrix_is_reflection():
    for A in TEST_GCMS.values():
        for r in roots.enumerate_real_roots(A, 2):
            m = roots.reflection_matrix(A, r)
            assert weyl.mat_mul(m, m) == weyl.identity_matrix(A.n)
            assert weyl.mat_vec(m, r.coords) == tuple(-x for x in r.coords)


def test_longest_element_beyond_two_thousand_elements():
    # |W(B5)| = 3840 and |W(A6)| = 5040
    for name, top in (("B5", 25), ("A6", 21)):
        A = LARGER_GCMS[name]
        w0 = roots.longest_element(A)
        assert w0.length == top
        for i in range(A.n):
            assert weyl.root_sign(w0.apply(roots.simple_root(A, i).coords)) < 0


def test_longest_element_rejects_affine():
    with pytest.raises(NotSpherical):
        roots.longest_element(gcm.AFFINE_A1)


def test_nibbling_in_b5():
    # the B2 positive system at the end of B5
    psi = [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 1), (0, 0, 0, 1, 2)]
    seq = roots.nibbling_sequence(LARGER_GCMS["B5"], range(5), [RootVector(p) for p in psi])
    assert sorted(r.coords for r in seq.roots) == sorted(psi)


def bfs_witnesses(A, L):
    """Reference: root -> (w, i, sign) with root = w(sign * alpha_i), by a
    breadth-first search from the signed simple roots that scans each level
    in lexicographic order and the generators in index order."""
    gens = [weyl.simple_element(A, i) for i in range(A.n)]
    out = {}
    level = []
    for i in range(A.n):
        for sgn in (1, -1):
            v = tuple(sgn if k == i else 0 for k in range(A.n))
            out[v] = (weyl.identity_element(A), i, sgn)
            level.append(v)
    for _ in range(L):
        nxt = []
        for v in sorted(level):
            w0, i0, sgn0 = out[v]
            for g in gens:
                u = weyl.mat_vec(g.mat, v)
                if u not in out:
                    out[u] = (g * w0, i0, sgn0)
                    nxt.append(u)
        level = nxt
    return out


@pytest.mark.parametrize(
    "name, radius",
    [(name, 6) for name in {**TEST_GCMS, **LARGER_GCMS}] + [("affine_A1", 24), ("affine_A2", 24)],
)
def test_root_witness_matches_breadth_first_reference(name, radius):
    A = {**TEST_GCMS, **LARGER_GCMS}[name]
    for v, expected in bfs_witnesses(A, radius).items():
        assert roots.root_witness(A, v) == expected


@pytest.mark.parametrize(
    "A, word, v",
    [
        # depth 11 in the rank-4 triangle group, past the former radius-24 table
        (LARGER_GCMS["K4"], (0, 1, 2, 3, 0, 1, 2, 3, 0, 1), (165, 96, 56, 32)),
        # alpha_0 + 49 delta in affine A1, past the former radius-48 ball
        (gcm.AFFINE_A1, None, (50, 49)),
    ],
)
def test_root_witness_of_deep_roots(A, word, v):
    if word is not None:
        assert weyl.from_word(A, word).apply((0, 0, 1, 0)) == v
    start = time.perf_counter()
    w, i, sign = roots.root_witness(A, v)
    assert time.perf_counter() - start < 1.0
    assert w.apply(tuple(sign if k == i else 0 for k in range(A.n))) == v


@pytest.mark.parametrize("A, v", [(gcm.AFFINE_A1, (1, 1)), (LARGER_GCMS["H3"], (1, 1, 1)), (gcm.A2, (1, 2))])
def test_root_witness_rejects_non_real_vectors(A, v):
    with pytest.raises(BadRoot):
        roots.root_witness(A, v)
    with pytest.raises(BadRoot):
        roots.root_witness(A, tuple(-x for x in v))
