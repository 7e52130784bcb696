import itertools
import random

import pytest

from twinroot import roots as rootsmod
from twinroot import trd
from twinroot.chevalley import loop_group
from twinroot.descent import maximal_split_subgroup, relative_root_group, su3_datum
from twinroot.gcm import AFFINE_A1
from twinroot.laurent import LaurentPoly, diagonal

from conftest import subfield_basis, to_f3


def center_line_setup(q=2):
    d = su3_datum(q)
    orc = trd.su3_oracle(d)
    basis = trd.center_line_basis(d)
    integ = trd.integrate_subdatum(orc, basis)
    return d, maximal_split_subgroup(d), orc, basis, integ


def subfield_setup():
    G9, basis = subfield_basis()
    orc = trd.split_oracle(G9)
    integ = trd.integrate_subdatum(orc, basis)
    return G9, loop_group(3, 2), orc, basis, integ


def match_balls(ball_a, ball_b, map_rep, in_borel, sign):
    """Bijective node-for-node matching of two chamber graphs via a coset map."""
    if len(ball_a.chambers) != len(ball_b.chambers):
        return None
    matching = {}
    used = set()
    for i, c in enumerate(ball_a.chambers):
        image = map_rep(c.rep)
        hit = None
        for j, c2 in enumerate(ball_b.chambers):
            if j in used:
                continue
            if in_borel(sign, c2.rep.inverse() * image):
                hit = j
                break
        if hit is None:
            return None
        matching[i] = hit
        used.add(hit)
    return matching


def test_tautological_basis_recovers_the_group():
    # E_alpha = U_alpha and T_d = H integrate back to G: F_gamma = U_gamma
    G = loop_group(2, 2)
    orc = trd.split_oracle(G)
    f = G.field
    torus = [
        diagonal(f, (LaurentPoly.const(f, a), LaurentPoly.const(f, f.inv(a))))
        for a in f.units()
    ]
    basis = trd.RsdBasis(
        "tautological",
        torus,
        G.is_torus,
        {node: G.root_group_elements(G.simple_roots[node]) for node in (0, 1)},
    )
    integ = trd.integrate_subdatum(orc, basis)
    for r in rootsmod.enumerate_real_roots(orc.gcm, 3):
        assert set(integ.root_group_elements(r.coords)) == set(
            orc.root_group_elements(r.coords)
        )


@pytest.mark.parametrize("q", [2, 3])
def test_center_line_f_gamma_equals_e_gamma(q):
    d, F, orc, basis, integ = center_line_setup(q)
    for r in rootsmod.enumerate_real_roots(orc.gcm, 3):
        assert set(integ.root_group_elements(r.coords)) == set(d.root_group_center(r.coords))


def test_center_line_ball_matches_sl2_ball():
    d, F, orc, basis, integ = center_line_setup(2)
    sl2 = F.sl2
    forc = integ.oracle()
    sorc = trd.split_oracle(sl2)
    for sign in (+1, -1):
        fball = trd.building_ball(forc, sign, 3)
        sball = trd.building_ball(sorc, sign, 3)
        assert fball.panel_sizes == sball.panel_sizes == {0: 3, 1: 3}
        matching = match_balls(fball, sball, F.to_sl2, sl2.in_borel, sign)
        assert matching is not None


def test_center_line_codistances_match():
    d, F, orc, basis, integ = center_line_setup(2)
    sl2 = F.sl2
    forc = integ.oracle()
    plus = trd.building_ball(forc, +1, 2)
    minus = trd.building_ball(forc, -1, 2)
    rng = random.Random(3)
    pairs = [(rng.choice(plus.chambers), rng.choice(minus.chambers)) for _ in range(50)]
    for cp, cm in pairs:
        w_f = trd.codistance(forc, cp, cm)
        w_g = trd.codistance(orc, cp, cm)
        g = F.to_sl2(cp.rep).inverse() * F.to_sl2(cm.rep)
        w_sl2 = sl2.birkhoff_cell(g)
        assert w_f == w_g == w_sl2


def test_subfield_ball_matches_sl2_f3_ball():
    G9, G3, orc, basis, integ = subfield_setup()
    forc = integ.oracle()
    sorc = trd.split_oracle(G3)
    for sign in (+1, -1):
        fball = trd.building_ball(forc, sign, 3)
        sball = trd.building_ball(sorc, sign, 3)
        assert fball.panel_sizes == sball.panel_sizes == {0: 4, 1: 4}
        matching = match_balls(fball, sball, to_f3, G3.in_borel, sign)
        assert matching is not None
    # codistances through the subfield map
    plus = trd.building_ball(forc, +1, 2)
    minus = trd.building_ball(forc, -1, 2)
    rng = random.Random(5)
    for _ in range(30):
        cp, cm = rng.choice(plus.chambers), rng.choice(minus.chambers)
        w_f = trd.codistance(forc, cp, cm)
        w_amb = trd.codistance(orc, cp, cm)
        w_f3 = G3.birkhoff_cell(to_f3(cp.rep).inverse() * to_f3(cm.rep))
        assert w_f == w_amb == w_f3


@pytest.mark.parametrize("case", ["center-line", "subfield"])
def test_birkhoff_override_is_redundant(case):
    """A codistance map passed to integrate_subdatum in place of the ambient
    one (the SL_2 cell through F ~ SL_2, or through F_3 in F_9) changes
    neither the balls nor any codistance between them."""
    if case == "center-line":
        d, F, orc, basis, _ = center_line_setup(2)
        override = lambda g: F.sl2.birkhoff_cell(F.to_sl2(g))
    else:
        G9, G3, orc, basis, _ = subfield_setup()
        override = lambda g: G3.birkhoff_cell(to_f3(g))
    plain = trd.integrate_subdatum(orc, basis).oracle()
    overridden = trd.integrate_subdatum(orc, basis, override).oracle()
    for sign in (+1, -1):
        assert trd.building_ball(plain, sign, 2).to_json() == trd.building_ball(overridden, sign, 2).to_json()
    plus, minus = (trd.building_ball(plain, sign, 1) for sign in (+1, -1))
    for cp in plus.chambers:
        for cm in minus.chambers:
            assert trd.codistance(plain, cp, cm) == trd.codistance(overridden, cp, cm)


def test_su3_ball_valencies_both_signs():
    d = su3_datum(2)
    orc = trd.su3_oracle(d)
    for sign in (+1, -1):
        ball = trd.building_ball(orc, sign, 1)
        assert ball.panel_sizes == {0: 3, 1: 9}


def test_vwv_examples_and_random_words():
    d, F, orc, basis, integ = center_line_setup(2)
    tau = F.split_torus_elements()[0]
    v1, w, m_hat, v2 = integ.vwv_normal_form([("torus", tau)])
    assert w.word == () and v1 == v2 == orc.identity
    e = basis.nontrivial(orc, 1)[0]
    _, w, _, _ = integ.vwv_normal_form([("s", 1), ("e", 1, e)])
    assert w.word == (1,)
    s1 = integ.s_hat[1]
    eneg = s1 * e * s1.inverse()
    v1, w, m_hat, v2 = integ.vwv_normal_form([("e-", 1, eneg)])
    assert w.word == (1,)  # E_-alpha lands in T_d E s E
    rng = random.Random(12)
    for _ in range(30):
        toks = []
        for _ in range(rng.randint(1, 7)):
            kind = rng.randrange(4)
            node = rng.randrange(2)
            if kind == 0:
                toks.append(("s", node))
            elif kind == 1:
                toks.append(("e", node, rng.choice(basis.nontrivial(orc, node))))
            elif kind == 2:
                toks.append(("torus", rng.choice(F.split_torus_elements())))
            else:
                sh = integ.s_hat[node]
                toks.append(
                    ("e-", node, sh * rng.choice(basis.nontrivial(orc, node)) * sh.inverse())
                )
        integ.vwv_normal_form(toks)  # reconstruction is asserted internally


def test_root_group_containment_dichotomy():
    # subgroups generated inside one root group stay there; mixing two
    # prenilpotent root groups escapes every single root group (level 0, q=2)
    G = loop_group(2, 3)
    ident = G.identity()
    classical = [(i, j, 0) for i in range(3) for j in range(3) if i != j]

    def in_some_root_group(g):
        return any(
            g in G.root_group_elements(root) for root in classical
        )

    for root in classical:
        for u in G.root_group_elements(root):
            assert in_some_root_group(u)
    u_a = G.root_group_element((0, 1, 0), 1)
    u_b = G.root_group_element((1, 2, 0), 1)
    # closure of <u_a, u_b> inside the unipotent upper triangulars
    group = {ident}
    frontier = [u_a, u_b]
    while frontier:
        g = frontier.pop()
        if g in group:
            continue
        group.add(g)
        for h in (u_a, u_b):
            frontier.append(g * h)
            frontier.append(g.inverse())
    assert any(g != ident and not in_some_root_group(g) for g in group)


def test_chain_condition_bound():
    # strictly increasing chains of T_d-invariant subgroups of a relative
    # root group are bounded by its composition length over F_q
    for q in (2, 3):
        d = su3_datum(q)
        F = maximal_split_subgroup(d)
        v1, _ = relative_root_group(d, 1)
        ident = d.ambient.identity()
        elements = sorted(v1, key=str)
        torus = F.split_torus_elements()

        def closure(gens):
            out = {ident}
            frontier = list(gens)
            while frontier:
                g = frontier.pop()
                if g in out:
                    continue
                out.add(g)
                for h in list(out):
                    frontier.append(g * h)
                frontier.append(g.inverse())
                for t in torus:
                    frontier.append(t * g * t.inverse())
            return frozenset(out)

        subgroups = {closure([g]) for g in elements}
        for a in elements[:8]:
            for b in elements[:8]:
                subgroups.add(closure([a, b]))
        # longest strictly increasing chain in the subgroup poset
        order = sorted(subgroups, key=len)
        best = {}
        for s in order:
            best[s] = 1 + max((best[t] for t in order if t < s), default=0)
        # composition length of V_a over F_q is 3 = dim Z + dim V/Z
        assert max(best.values()) <= 1 + 3


# --- Weyl-word representatives ------------------------------------------------------


def plain_product(identity, s_hat, word):
    out = identity
    for i in word:
        out = out * s_hat(i)
    return out


def _word_reps_cases():
    d, F, orc, basis, integ = center_line_setup(2)
    G2, G3 = loop_group(3, 2), loop_group(2, 3)
    return {
        "sl2-f3": (G2.reps, G2._canonical_s, G2.identity(), 2),
        "sl3-f2": (G3.reps, G3._canonical_s, G3.identity(), 3),
        "su3-f2": (d.reps, d.canonical_s, orc.identity, 2),
        "split-f2": (integ.reps, integ.s_hat.__getitem__, orc.identity, 2),
    }


@pytest.mark.parametrize("case", ["sl2-f3", "sl3-f2", "su3-f2", "split-f2"])
def test_word_reps_match_plain_products(case):
    reps, s_hat, identity, n = _word_reps_cases()[case]
    for length in range(5):
        for word in itertools.product(range(n), repeat=length):  # reduced or not
            rep, rep_inv = reps[word]
            assert rep == plain_product(identity, s_hat, word), word
            assert rep * rep_inv == identity, word


def test_root_group_lists_match_the_conjugation_loop():
    """Every window root group, as an ordered list (the order feeds ball
    parameters and check_trd sampling), against conjugation by a fresh
    product and its inverse."""
    d, F, orc, basis, integ = center_line_setup(2)

    def conjugated(s_hat, word, group):
        rep = plain_product(orc.identity, s_hat, word)
        rep_inv = rep.inverse()
        return [rep * u * rep_inv for u in group]

    def simple(node, positive, center):
        if node == 0:
            root = (2, 0, 1) if positive else (0, 2, -1)
            return [d.ambient.root_group_element(root, r) for r in d.ext.trace_zero()]
        if center:
            ups = [d.unipotent_upper(0, b) for b in d.ext.trace_zero()]
        else:
            ups = [d.unipotent_upper(c, b) for c, b in d.metabelian_parameters()]
        return ups if positive else conjugated(d.canonical_s, (1,), ups)

    for v in orc.windowed_roots(2):
        w, node, sgn = rootsmod.root_witness(AFFINE_A1, v)
        assert d.root_group(v) == conjugated(d.canonical_s, w.word, simple(node, sgn > 0, False)), v
        assert d.root_group_center(v) == conjugated(d.canonical_s, w.word, simple(node, sgn > 0, True)), v
        base = basis.e_groups[node]
        if sgn < 0:
            base = conjugated(integ.s_hat.__getitem__, (node,), base)
        assert integ.root_group_elements(v) == conjugated(integ.s_hat.__getitem__, w.word, base), v


def test_root_groups_are_handed_out_as_fresh_lists():
    """Each root group is formed once; a caller that mutates the list it was
    given does not change what the next caller gets."""
    d, F, orc, basis, integ = center_line_setup(2)
    for get in (d.root_group, d.root_group_center, integ.root_group_elements):
        for v in ((0, 1), (0, -1), (1, 2), (-2, -1)):
            first = get(v)
            want = list(first)
            first.reverse()
            first.pop()
            assert get(v) == want, (get, v)
