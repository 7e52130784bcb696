import random

import pytest

from twinroot import weyl
from twinroot.chevalley import loop_group
from twinroot.errors import BadRoot, DegreeWindowExceeded, NotUnimodular, TrivialElement
from twinroot.laurent import LaurentPoly, diagonal, matrix_from_json


def random_iwahori(G, rng, steps=4):
    """Random element of B_+: positive affine root elements and a constant
    torus, so membership is by construction."""
    f = G.field
    out = G.identity()
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0:
            i, j = rng.sample(range(G.n), 2)
            k = rng.randint(0 if i < j else 1, 2)
            out = out * G.root_group_element((i, j, k), rng.randrange(1, f.q))
        elif kind == 1:
            i, j = rng.sample(range(G.n), 2)
            if i > j:
                i, j = j, i
            out = out * G.root_group_element((i, j, 0), rng.randrange(1, f.q))
        else:
            a = rng.randrange(1, f.q)
            units = [LaurentPoly.one(f)] * G.n
            units[0] = LaurentPoly.const(f, a)
            units[-1] = LaurentPoly.const(f, f.inv(a))
            out = out * diagonal(f, units)
    assert G.in_positive_borel(out)
    return out


def random_negative_borel(G, rng, steps=4):
    f = G.field
    out = G.identity()
    for _ in range(steps):
        kind = rng.randrange(2)
        if kind == 0:
            i, j = rng.sample(range(G.n), 2)
            k = rng.randint(-2, 0 if i > j else -1)
            out = out * G.root_group_element((i, j, k), rng.randrange(1, f.q))
        else:
            a = rng.randrange(1, f.q)
            units = [LaurentPoly.one(f)] * G.n
            units[0] = LaurentPoly.const(f, a)
            units[-1] = LaurentPoly.const(f, f.inv(a))
            out = out * diagonal(f, units)
    assert G.in_negative_borel(out)
    return out


def test_root_group_element_basics():
    G = loop_group(2, 2)
    assert G.root_group_element((0, 1, 0), 0).is_identity()
    u = G.root_group_element((0, 1, 0), 1)
    assert u.entry(0, 1).is_one() and u.entry(0, 0).is_one()
    with pytest.raises(BadRoot):
        G.root_group_element((0, 0, 1), 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_additivity_exhaustive(q):
    G = loop_group(q, 2)
    f = G.field
    for root in ((0, 1, 0), (1, 0, 1)):
        for r in f.elements():
            for s in f.elements():
                assert (
                    G.root_group_element(root, r) * G.root_group_element(root, s)
                    == G.root_group_element(root, f.add(r, s))
                )


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_torus_conjugation_character(q):
    # diag(a, a^-1) u(r) diag(a^-1, a) = u(a^2 r)
    G = loop_group(q, 2)
    f = G.field
    for a in f.units():
        d = diagonal(f, (LaurentPoly.const(f, a), LaurentPoly.const(f, f.inv(a))))
        for r in f.elements():
            lhs = d * G.root_group_element((0, 1, 0), r) * d.inverse()
            assert lhs == G.root_group_element((0, 1, 0), f.mul(f.mul(a, a), r))


def test_mu_classical_shape():
    G = loop_group(3, 2)
    f = G.field
    m = G.mu_map((0, 1, 0), 1)
    assert m.entry(0, 1).is_one()
    assert m.entry(1, 0).coeff(0) == f.neg(1)
    assert m.entry(0, 0).is_zero() and m.entry(1, 1).is_zero()
    with pytest.raises(TrivialElement):
        G.mu_map((0, 1, 0), 0)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_mu_coroot_identity(q):
    # m(u(r)) m(u(1))^-1 = diag(r, 1/r)
    G = loop_group(q, 2)
    f = G.field
    m1_inv = G.mu_map((0, 1, 0), 1).inverse()
    for r in f.units():
        lhs = G.mu_map((0, 1, 0), r) * m1_inv
        assert lhs == diagonal(f, (LaurentPoly.const(f, r), LaurentPoly.const(f, f.inv(r))))


def test_mu_conjugates_root_groups(rng):
    G = loop_group(2, 3)
    m = G.mu_map(G.simple_roots[1], 1)
    m_inv = m.inverse()
    s = weyl.simple_reflection_action(G.gcm, 1)
    for _ in range(50):
        i, j = rng.sample(range(3), 2)
        k = rng.randint(-2, 2)
        beta = G.root_vector((i, j, k))
        u = G.root_group_element((i, j, k), rng.randrange(1, 2))
        conj = m * u * m_inv
        target = weyl.mat_vec(s, beta)
        ti, tj, tk = G.vector_to_root(target)
        p = conj.entry(ti, tj)
        assert not p.is_zero() and p.is_monomial() and p.val == tk


def test_bruhat_identity_and_reflection():
    G = loop_group(2, 2)
    w, b1, b2 = G.bruhat_cell(G.identity())
    assert w.is_identity() and b1.is_identity() and b2.is_identity()
    s_hat = G._canonical_s(1)
    assert G.bruhat_weyl(s_hat).word == (1,)
    assert G.bruhat_weyl(G.root_group_element((1, 0, 1), 1)).word == ()


def test_bruhat_translation_length_two():
    G = loop_group(2, 2)
    f = G.field
    d = diagonal(f, (LaurentPoly.monomial(f, 1, 1), LaurentPoly.monomial(f, -1, 1)))
    w = G.bruhat_weyl(d)
    assert w.length == 2
    # independent certificate: diag(t, 1/t) is exactly s1_hat * s0_hat
    assert G._canonical_s(1) * G._canonical_s(0) == d
    assert w == weyl.from_word(G.gcm, (1, 0))


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3)])
def test_bruhat_cells_recover_constructed_elements(q, n):
    # oracle: g built as b1 * w_hat * b2 with Iwahori factors must land in
    # the cell of w
    G = loop_group(q, n)
    rng = random.Random(100 + q + n)
    ball = weyl.enumerate_ball(G.gcm, 3)
    for w in ball:
        for _ in range(3):
            b1 = random_iwahori(G, rng)
            b2 = random_iwahori(G, rng)
            g = b1 * G.canonical_representative(w) * b2
            if g.max_degree_span() > G.window:
                continue
            assert G.bruhat_weyl(g) == w


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3)])
def test_birkhoff_cells_recover_constructed_elements(q, n):
    G = loop_group(q, n)
    rng = random.Random(200 + q + n)
    ball = weyl.enumerate_ball(G.gcm, 3)
    for w in ball:
        for _ in range(3):
            b1 = random_iwahori(G, rng)
            b2 = random_negative_borel(G, rng)
            g = b1 * G.canonical_representative(w) * b2
            if g.max_degree_span() > G.window:
                continue
            assert G.birkhoff_cell(g) == w


def test_birkhoff_examples():
    G = loop_group(2, 2)
    assert G.birkhoff_cell(G.identity()).is_identity()
    assert G.birkhoff_cell(G.root_group_element((1, 0, 1), 1)).is_identity()
    assert G.birkhoff_cell(G._canonical_s(1)).word == (1,)


def test_bruhat_round_trip_and_order_independence(rng):
    G = loop_group(2, 2)
    for _ in range(60):
        g = G.random_element(rng, steps=5)
        w, b1, b2 = G.bruhat_cell(g)
        assert b1 * G.canonical_representative(w) * b2 == g
        assert G.in_positive_borel(b1) and G.in_positive_borel(b2)
        w2, _, _ = G.bruhat_cell(g, rng=random.Random(rng.randrange(10**6)))
        assert w2 == w


def test_degree_window_guard():
    G = loop_group(2, 2, window=3)
    f = G.field
    d = diagonal(f, (LaurentPoly.monomial(f, 4, 1), LaurentPoly.monomial(f, -4, 1)))
    with pytest.raises(DegreeWindowExceeded):
        G.bruhat_weyl(d)


def test_bruhat_cell_peels_outside_the_window_of_its_input():
    # span 5 over F_4 (c0 + c1 x), but the peeling products s_i^-1 u rest
    # leave the +-8 window; only g itself is held to it
    G = loop_group(4, 2)
    g = matrix_from_json(
        G.field,
        '{"n": 2, "entries": [[[{"k": -4, "c": [1, 0]}], [{"k": -4, "c": [1, 0]}]],'
        ' [[{"k": -5, "c": [0, 1]}], [{"k": -5, "c": [0, 1]}, {"k": 4, "c": [1, 0]}]]]}',
    )
    assert g.max_degree_span() == 5
    w, b1, b2 = G.bruhat_cell(g)
    assert w == G.bruhat_weyl(g)
    assert w.word == (1, 0) * 5 + (1,)
    assert b1 * G.canonical_representative(w) * b2 == g


def test_determinant_check():
    G = loop_group(2, 2)
    f = G.field
    bad = diagonal(f, (LaurentPoly.monomial(f, 1, 1), LaurentPoly.monomial(f, 0, 1)))
    with pytest.raises(NotUnimodular):
        G.bruhat_weyl(bad)


def test_weyl_from_monomial_consistency():
    for q, n in ((2, 2), (2, 3)):
        G = loop_group(q, n)
        for w in weyl.enumerate_ball(G.gcm, 4):
            assert G.weyl_from_monomial(G.canonical_representative(w)) == w


def test_affine_root_positivity_convention():
    from twinroot.chevalley import AffineRootGroupElement, affine_root_is_positive

    assert affine_root_is_positive((0, 1, 0))
    assert not affine_root_is_positive((1, 0, 0))
    assert affine_root_is_positive((1, 0, 1))
    assert not affine_root_is_positive((0, 1, -1))
    assert AffineRootGroupElement((1, 0), 1, 1).is_positive
    assert not AffineRootGroupElement((1, 0), 0, 1).is_positive
    # matches the sign of the root-lattice vector
    G = loop_group(2, 3)
    from twinroot.weyl import root_sign

    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for k in (-2, -1, 0, 1, 2):
                assert (root_sign(G.root_vector((i, j, k))) > 0) == affine_root_is_positive(
                    (i, j, k)
                )


def test_borel_elements_sit_in_the_identity_cell(rng):
    for q, n in ((2, 2), (2, 3)):
        G = loop_group(q, n)
        local = random.Random(300 + q + n)
        for _ in range(20):
            b = random_iwahori(G, local)
            assert G.bruhat_weyl(b).is_identity()
            bm = random_negative_borel(G, local)
            assert G.birkhoff_cell(bm).is_identity()


def test_determinant_preserved_by_constructors(rng):
    for q, n in ((3, 2), (2, 3)):
        G = loop_group(q, n)
        for _ in range(30):
            g = G.random_element(rng, steps=5)
            assert g.det().is_one()
        for root in G.simple_roots:
            for r in G.field.elements():
                assert G.root_group_element(root, r).det().is_one()
            assert G._canonical_s(G.simple_roots.index(root)).det().is_one()
