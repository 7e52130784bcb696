import random

import pytest

from twinroot import roots, trd, weyl
from twinroot.descent import (
    REL_GCM,
    anisotropic_kernel,
    maximal_split_subgroup,
    relative_root_group,
    su3_datum,
)
from twinroot.errors import BadRoot, NotUnimodular, OracleInconsistent, RankMismatch
from twinroot.laurent import LaurentMatrix, LaurentPoly, diagonal


@pytest.mark.parametrize("q", [2, 3])
def test_sigma_is_an_involutive_automorphism(q):
    d = su3_datum(q)
    rng = random.Random(11)
    for _ in range(100):
        g = d.ambient.random_element(rng, steps=3)
        h = d.ambient.random_element(rng, steps=3)
        assert d.sigma(d.sigma(g)) == g
        assert d.sigma(g * h) == d.sigma(g) * d.sigma(h)


@pytest.mark.parametrize("q", [2, 3])
def test_fixed_point_membership(q):
    d = su3_datum(q)
    assert d.is_fixed(d.ambient.identity())
    # a root group element with parameter outside F_q at a swapped node
    ext = d.ext
    outside = next(a for a in ext.units() if ext.frobenius(a) != a)
    u = d.ambient.root_group_element((0, 1, 0), outside)
    assert not d.is_fixed(u)
    # products of fixed elements stay fixed
    rng = random.Random(5)
    v1, _ = relative_root_group(d, 1)
    v0, _ = relative_root_group(d, 0)
    pool = v1 + v0 + d.anisotropic_kernel_elements()
    for _ in range(200):
        g = rng.choice(pool) * rng.choice(pool)
        assert d.is_fixed(g)


@pytest.mark.parametrize("q", [2, 3])
def test_is_fixed_matches_sigma(q):
    d = su3_datum(q)
    ext = d.ext
    outside = next(a for a in ext.units() if ext.frobenius(a) != a)
    one, zero = LaurentPoly.one(ext), LaurentPoly.zero(ext)
    mono = lambda e, c: LaurentPoly.monomial(ext, e, c)
    # diag(a t^m, bar(a)/a, bar(a)^-1 t^-m)
    translated = [
        d.torus_element(a) * diagonal(ext, (mono(m, 1), one, mono(-m, 1))) for a in ext.units() for m in (-1, 2)
    ]
    fixed = d.simple_root_group(0) + d.root_group((0, -1)) + d.anisotropic_kernel_elements() + translated
    split_torus = diagonal(ext, (mono(1, outside), mono(-1, ext.inv(outside)), one))
    moved = [d.ambient.root_group_element((0, 1, 0), outside), split_torus]
    rng = random.Random(13)
    for g in fixed + moved + [d.ambient.random_element(rng, steps=3) for _ in range(30)]:
        assert d.is_fixed(g) == (d.sigma(g) == g)
    assert all(d.is_fixed(g) for g in fixed) and not any(d.is_fixed(g) for g in moved)
    singular = LaurentMatrix(ext, 3, ((one, one, zero), (one, one, zero), (zero, zero, one)))
    with pytest.raises(NotUnimodular):
        d.is_fixed(singular)


@pytest.mark.parametrize("q", [2, 3])
def test_structure_constants(q):
    d = su3_datum(q)
    v1, z1 = relative_root_group(d, 1)
    v0, z0 = relative_root_group(d, 0)
    assert len(v1) == q**3
    assert len(z1) == q
    assert len(v0) == q and len(z0) == q
    with pytest.raises(BadRoot):
        relative_root_group(d, 2)


@pytest.mark.parametrize("q", [2, 3])
def test_metabelian_commutators_central(q):
    d = su3_datum(q)
    v1, z1 = relative_root_group(d, 1)
    zset = set(z1)
    vset = set(v1)
    for x in v1:
        for y in v1:
            assert x * y in vset
            assert x * y * x.inverse() * y.inverse() in zset


@pytest.mark.parametrize("q", [2, 3])
def test_anisotropic_kernel(q):
    d = su3_datum(q)
    elems, commutative = anisotropic_kernel(d)
    assert commutative
    assert len(elems) == q * q - 1
    assert d.ambient.identity() in elems
    # each kernel element normalizes each simple relative root group
    v1, _ = relative_root_group(d, 1)
    v0, _ = relative_root_group(d, 0)
    for z in elems:
        zi = z.inverse()
        assert {z * u * zi for u in v1} == set(v1)
        assert {z * u * zi for u in v0} == set(v0)


@pytest.mark.parametrize("q", [2, 3])
def test_torus_characters_on_center_and_quotient(q):
    # split torus element diag(l, 1, 1/l): acts on the center via l^2 (the
    # doubled character) and on the quotient coordinate via l
    d = su3_datum(q)
    e = d.ext
    for lam in d.base.units():
        t = d.torus_element(lam) if e.mul(e.frobenius(lam), e.inv(lam)) == 1 else None
        assert t is not None
        ti = t.inverse()
        for b in e.trace_zero():
            conj = t * d.unipotent_upper(0, b) * ti
            assert conj == d.unipotent_upper(0, e.mul(e.mul(lam, lam), b))
        for c, b in d.metabelian_parameters():
            conj = t * d.unipotent_upper(c, b) * ti
            assert conj.entry(1, 2).coeff(0) == e.mul(lam, c)


@pytest.mark.parametrize("q", [2, 3])
def test_centralizer_square_property(q):
    # if a split torus element centralizes a nontrivial element of V_alpha,
    # its square centralizes all of V_alpha (exhaustive at level 0); for the
    # anisotropic part of the kernel only the non-central half survives: a
    # kernel element fixing a non-central element fixes the whole group
    d = su3_datum(q)
    F = maximal_split_subgroup(d)
    v1, z1 = relative_root_group(d, 1)
    v0, _ = relative_root_group(d, 0)
    ident = d.ambient.identity()
    for t in F.split_torus_elements():
        t2 = t * t
        for group in (v1, v0):
            if any(t * u * t.inverse() == u for u in group if u != ident):
                assert all(t2 * u * t2.inverse() == u for u in group)
    central = set(z1)
    for t in d.anisotropic_kernel_elements():
        if any(
            t * u * t.inverse() == u for u in v1 if u != ident and u not in central
        ):
            assert all(t * u * t.inverse() == u for u in v1)


@pytest.mark.parametrize("q", [2, 3])
def test_mu_maps_are_low_triple_products(q):
    # closed form m(u) = u' u u'' with u', u'' in the opposite root group
    d = su3_datum(q)
    e = d.ext
    for c, b in d.metabelian_parameters():
        if b == 0:
            continue
        m = d.mu_metabelian(c, b)
        # antidiagonal pattern
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)):
            assert m.entry(i, j).is_zero()
        assert m.entry(0, 2).coeff(0) == b
    for r in e.trace_zero():
        if r == 0:
            continue
        m = d.ambient.mu_map((2, 0, 1), r)
        assert m.entry(2, 0).coeff(1) == r
        assert m.entry(1, 1).is_one()


@pytest.mark.parametrize("q", [2, 3])
def test_mu_conjugation_swaps_relative_root_groups(q):
    d = su3_datum(q)
    for node in (0, 1):
        alpha = tuple(1 if k == node else 0 for k in range(2))
        neg = tuple(-x for x in alpha)
        u0 = [u for u in d.simple_root_group(node) if u != d.ambient.identity()][0]
        m = d.mu_for(alpha, u0)
        mi = m.inverse()
        assert {m * u * mi for u in d.root_group(alpha)} == set(d.root_group(neg))
        # and on a translated root
        s_other = d.canonical_s(1 - node)
        moved = weyl.mat_vec(weyl.simple_reflection_action(REL_GCM, 1 - node), alpha)
        assert {m * u * mi for u in d.root_group(moved)} == set(
            d.root_group(
                weyl.mat_vec(weyl.simple_reflection_action(REL_GCM, node), moved)
            )
        )


@pytest.mark.parametrize("q", [2, 3])
def test_mu_for_matches_the_two_branch_reference(q):
    """mu_for conjugates along the carrying word, w s_i for w(-alpha_i); the
    reference treats a negative root apart, as s^-1 mu(s u0 s^-1) s with
    u0 = rep_w^-1 u rep_w."""
    d = su3_datum(q)
    orc = trd.su3_oracle(d)

    def reference(vector, u):
        w, node, sign = roots.root_witness(REL_GCM, vector)
        rep, rep_inv = d.reps[w.word]
        u0 = rep_inv * u * rep
        if sign > 0:
            m0 = d._mu_simple(node, u0)
        else:
            s, s_inv = d.reps[(node,)]
            m0 = s_inv * d._mu_simple(node, s * u0 * s_inv) * s
        return rep * m0 * rep_inv

    checked = 0
    for v in orc.windowed_roots(3):
        for u in orc.nontrivial(v):
            assert d.mu_for(v, u) == reference(v, u), v
            checked += 1
    assert checked == {2: 50, 3: 172}[q]  # 14 roots: 8 carried by node 0, 6 by node 1


@pytest.mark.parametrize("q", [2, 3, 5])
def test_maximal_split_subgroup(q):
    d = su3_datum(q)
    F = maximal_split_subgroup(d)
    sl2 = F.sl2
    rng = random.Random(17)
    for _ in range(25):
        m = sl2.random_element(rng, steps=4)
        big = F.from_sl2(m)
        assert F.contains(big)
        assert d.is_fixed(big)
        assert F.to_sl2(big) == m
        assert big.det().is_one()
    # F meets V_1 exactly in the center (exhaustive at level 0)
    v1, z1 = relative_root_group(d, 1)
    assert {u for u in v1 if F.contains(u)} == set(z1)
    # F meets V_0 fully
    v0, _ = relative_root_group(d, 0)
    assert all(F.contains(u) for u in v0)
    # F contains the split torus, not the full kernel (q=3 has extra parts)
    for t in F.split_torus_elements():
        assert F.contains(t)
    if q == 3:
        assert any(not F.contains(z) for z in d.anisotropic_kernel_elements())


@pytest.mark.parametrize("q", [2, 3])
def test_to_sl2_raises_outside_the_split_subgroup(q):
    d = su3_datum(q)
    e = d.ext
    F = maximal_split_subgroup(d)
    # non-central metabelian elements, and sigma-fixed diag(a, 1, 1/bar a)
    # whose corner a lies outside the base field (determinant a / bar a != 1)
    outside = [d.unipotent_upper(c, b) for c, b in d.metabelian_parameters() if c != 0]
    unitary = [
        diagonal(e, (LaurentPoly.const(e, a), LaurentPoly.one(e), LaurentPoly.const(e, e.inv(e.frobenius(a)))))
        for a in e.units()
        if e.frobenius(a) != a
    ]
    assert outside and unitary
    for g in outside + unitary:
        assert d.is_fixed(g) and not F.contains(g)
        with pytest.raises(OracleInconsistent):
            F.to_sl2(g)


def test_su3_datum_takes_the_primes_of_the_field_layer():
    with pytest.raises(RankMismatch):
        su3_datum(4)
    orc = trd.su3_oracle(su3_datum(5))
    for sign in (+1, -1):
        ball = trd.building_ball(orc, sign, 1)
        assert ball.panel_sizes == {0: 6, 1: 126}
        assert len(ball.chambers) == 1 + 5 + 125
    assert trd.check_trd(orc, sample_budget=30, level_window=1, seed=0).passed
