import functools
import itertools
import random
from dataclasses import fields, replace

import pytest

from twinroot import roots as rootsmod
from twinroot import trd, weyl
from twinroot.chevalley import loop_group
from twinroot.descent import su3_datum
from twinroot.errors import OracleInconsistent, SameSign
from twinroot.laurent import LaurentPoly, diagonal
from twinroot.roots import RootVector

from conftest import subfield_basis


def sl2_oracle(q=3):
    return trd.split_oracle(loop_group(q, 2))


def sl3_oracle(q=2):
    return trd.split_oracle(loop_group(q, 3))


def su3_oracle(q=2):
    return trd.su3_oracle(su3_datum(q))


def test_check_trd_split_groups():
    rep = trd.check_trd(sl2_oracle(3), sample_budget=200, level_window=2, seed=1)
    assert rep.passed, rep.to_json()
    rep3 = trd.check_trd(sl3_oracle(2), sample_budget=200, level_window=2, seed=1)
    assert rep3.passed, rep3.to_json()


def test_check_trd_sl4():
    rep = trd.check_trd(trd.split_oracle(loop_group(2, 4)), sample_budget=30, level_window=1, seed=0)
    assert rep.passed, rep.to_json()


@pytest.mark.parametrize("q,n,count", [(2, 4, 49), (3, 4, 103), (2, 5, 71)])
def test_sl_n_balls_have_q_to_the_length_chambers_per_cell(q, n, count):
    G = loop_group(q, n)
    orc = trd.split_oracle(G)
    assert sum(q**w.length for w in weyl.enumerate_ball(G.gcm, 2)) == count
    for sign in (+1, -1):
        ball = trd.building_ball(orc, sign, 2)
        assert len(ball.chambers) == count
        assert ball.panel_sizes == {i: q + 1 for i in range(n)}


def test_check_trd_spherical_sl2():
    # the finite group SL_2(F_3): window 0 keeps only the classical roots
    orc = sl2_oracle(3)
    rep = trd.check_trd(orc, sample_budget=50, level_window=0, seed=0)
    assert rep.passed


def test_check_trd_su3():
    rep = trd.check_trd(su3_oracle(2), sample_budget=60, level_window=2, seed=0)
    assert rep.passed, rep.to_json()
    rep3 = trd.check_trd(su3_oracle(3), sample_budget=40, level_window=1, seed=0)
    assert rep3.passed, rep3.to_json()


def _criterion_08_mutants():
    """Criterion 08's three faults of the SL_2(F_3) oracle."""
    orc = sl2_oracle(3)
    G = loop_group(3, 2)
    tilt = G.root_group_element((1, 0, 1), 1)  # does not normalize U_{alpha_1}
    tilt_inv = tilt.inverse()
    base = orc.root_group_elements

    def wrong_conjugate(vector):
        if vector == (0, 1):  # the classical simple root alpha_1
            return [tilt * u * tilt_inv for u in base(vector)]
        return base(vector)

    return {
        "wrong-conjugate": replace(orc, root_group_elements=wrong_conjugate),
        "empty-torus": replace(orc, is_torus=lambda g: False),
        "swapped-signs": replace(orc, root_group_elements=lambda v: base(tuple(-x for x in v))),
    }


def test_fault_injection_wrong_conjugate():
    # replace one root group by a wrong conjugate: TRD3 must fail with a witness
    bad = _criterion_08_mutants()["wrong-conjugate"]
    rep = trd.check_trd(bad, sample_budget=80, level_window=1, seed=0)
    assert not rep.passed
    trd3 = next(r for r in rep.results if r.axiom == "TRD3")
    assert not trd3.passed and trd3.witness


def test_fault_injection_lying_torus():
    # a torus test that rejects everything breaks the m(u)H = m(v)H clause
    bad = _criterion_08_mutants()["empty-torus"]
    rep = trd.check_trd(bad, sample_budget=40, level_window=1, seed=0)
    trd3 = next(r for r in rep.results if r.axiom == "TRD3")
    assert not trd3.passed and trd3.witness


def test_fault_injection_sign_swapped_root_groups():
    # swapping U_alpha with U_-alpha breaks TRD4
    bad = _criterion_08_mutants()["swapped-signs"]
    rep = trd.check_trd(bad, sample_budget=40, level_window=1, seed=0)
    assert not rep.passed
    trd4 = next(r for r in rep.results if r.axiom == "TRD4")
    assert not trd4.passed and trd4.witness


def test_rsd_center_line_and_subfield_pass():
    d = su3_datum(2)
    rep = trd.check_rsd(trd.su3_oracle(d), trd.center_line_basis(d), sample_budget=80, seed=0)
    assert rep.passed, rep.to_json()
    G9, basis9 = subfield_basis()
    rep9 = trd.check_rsd(trd.split_oracle(G9), basis9, sample_budget=80, seed=0)
    assert rep9.passed, rep9.to_json()


def tautological_basis(q):
    G = loop_group(q, 3)
    f = G.field
    torus = []
    for a in f.units():
        for b in f.units():
            torus.append(
                diagonal(
                    f,
                    (
                        LaurentPoly.const(f, a),
                        LaurentPoly.const(f, b),
                        LaurentPoly.const(f, f.inv(f.mul(a, b))),
                    ),
                )
            )
    basis = trd.RsdBasis(
        "tautological",
        torus,
        G.is_torus,
        {node: G.root_group_elements(G.simple_roots[node]) for node in range(3)},
    )
    return G, basis


def test_rsd5_sharpness_over_small_constant_tori():
    # RSD5 genuinely fails for the tautological basis of the affine SL_3
    # groups over F_2 (trivial torus: diagonal subgroups escape) and even
    # over F_4 (the constant torus has exponent 3, so Frobenius-twisted
    # diagonals r -> (r, r^2) are stable); the checker must witness both,
    # while RSD1-RSD4 stay green
    for q in (2, 4):
        G, basis = tautological_basis(q)
        rep = trd.check_rsd(trd.split_oracle(G), basis, sample_budget=60, seed=0)
        rsd5 = next(r for r in rep.results if r.axiom == "RSD5")
        assert not rsd5.passed and rsd5.witness, (q, rep.to_json())
        for r in rep.results:
            if r.axiom != "RSD5":
                assert r.passed, (q, r)


def test_rsd5_nonvacuous_pass_over_f9():
    # over F_9 the cube map on the torus is onto, characters of distinct
    # interval roots separate, and the (budgeted) RSD5 scan passes
    G, basis = tautological_basis(9)
    rep = trd.check_rsd(trd.split_oracle(G), basis, sample_budget=24, seed=0)
    assert rep.passed, rep.to_json()
    rsd5 = next(r for r in rep.results if r.axiom == "RSD5")
    assert rsd5.checked > 0


def test_rsd_basis_wellformed_precheck():
    # an E_alpha escaping its root group is rejected before the axioms run
    G9, basis9 = subfield_basis()
    bad_groups = dict(basis9.e_groups)
    bad_groups[0] = bad_groups[0] + [G9.u(1, 1)]
    bad = trd.RsdBasis(basis9.name, basis9.torus_elements, basis9.is_torus, bad_groups)
    rep = trd.check_rsd(trd.split_oracle(G9), bad, sample_budget=10, seed=0)
    assert not rep.passed
    assert rep.results[0].axiom == "basis" and rep.results[0].witness
    # reports carry their reproducibility config
    good = trd.check_rsd(trd.split_oracle(G9), basis9, sample_budget=10, seed=5)
    assert good.config["seed"] == 5 and "sample_budget" in good.config


def test_rsd_fault_injection_unstable_e():
    # enlarging T_d to the full F_9 torus leaves the F_3-lines unnormalized,
    # so RSD3 must fail with a witness
    G9, basis9 = subfield_basis()
    f9 = G9.field
    full_torus = [
        diagonal(f9, (LaurentPoly.const(f9, c), LaurentPoly.const(f9, f9.inv(c))))
        for c in f9.units()
    ]
    bad = trd.RsdBasis(basis9.name, full_torus, G9.is_torus, basis9.e_groups)
    rep = trd.check_rsd(trd.split_oracle(G9), bad, sample_budget=40, seed=0)
    assert not rep.passed
    rsd3 = next(r for r in rep.results if r.axiom == "RSD3")
    assert not rsd3.passed and rsd3.witness


def test_building_ball_sl2_radius1():
    orc = sl2_oracle(2)
    ball = trd.building_ball(orc, +1, 1)
    assert len(ball.chambers) == 5  # 1 + 2*q with q = 2
    assert ball.panel_sizes == {0: 3, 1: 3}
    ball0 = trd.building_ball(orc, +1, 0)
    assert len(ball0.chambers) == 1 and not ball0.edges


def test_building_ball_deterministic():
    orc = sl2_oracle(2)
    a = trd.building_ball(orc, +1, 2)
    b = trd.building_ball(orc, +1, 2)
    assert a.to_json() == b.to_json()
    assert trd.export_graph(a, "json") == trd.export_graph(b, "json")
    assert trd.export_graph(a, "dot") == trd.export_graph(b, "dot")


def test_building_ball_sl3():
    orc = sl3_oracle(2)
    G = loop_group(2, 3)
    ball = trd.building_ball(orc, +1, 2)
    assert ball.panel_sizes == {0: 3, 1: 3, 2: 3}
    assert len(ball.chambers) == 1 + 6 + 6 * 4  # thick affine A2 ball
    for c in ball.chambers:
        assert G.bruhat_weyl(c.rep).word == c.word
    dot = trd.export_graph(ball, "dot")
    assert "diamond" in dot  # third panel type gets its own shape


def test_building_ball_su3_valencies():
    orc = su3_oracle(2)
    ball = trd.building_ball(orc, +1, 1)
    assert ball.panel_sizes == {0: 3, 1: 9}
    assert len(ball.chambers) == 1 + 2 + 8


def test_normal_forms_unique_in_ball():
    orc = sl2_oracle(2)
    ball = trd.building_ball(orc, +1, 3)
    # distinct chambers have distinct normal forms and distinct cosets
    forms = {(c.word, c.params) for c in ball.chambers}
    assert len(forms) == len(ball.chambers)
    G = loop_group(2, 2)
    for i, c in enumerate(ball.chambers):
        for c2 in ball.chambers[i + 1 :]:
            assert not G.in_borel(1, c.rep.inverse() * c2.rep)


def test_bruhat_partition_in_ball():
    # each chamber's representative lies in the cell named by its word
    orc = sl2_oracle(2)
    G = loop_group(2, 2)
    ball = trd.building_ball(orc, +1, 3)
    for c in ball.chambers:
        assert G.bruhat_weyl(c.rep).word == c.word


def test_codistance_examples():
    orc = sl2_oracle(2)
    G = loop_group(2, 2)
    base_plus = trd.TwinChamber(+1, (), (), G.identity())
    base_minus = trd.TwinChamber(-1, (), (), G.identity())
    assert trd.codistance(orc, base_plus, base_minus).word == ()
    s_chamber = trd.TwinChamber(+1, (1,), (0,), G._canonical_s(1))
    assert trd.codistance(orc, s_chamber, base_minus).word == (1,)
    with pytest.raises(SameSign):
        trd.codistance(orc, base_plus, base_plus)


def test_export_graph_empty_and_validation():
    empty = trd.ChamberGraph(+1, [], [], {})
    text = trd.export_graph(empty, "dot")
    assert text.startswith("digraph") and text.rstrip().endswith("}")
    single = trd.building_ball(sl2_oracle(2), +1, 0)
    dot = trd.export_graph(single, "dot")
    assert dot.count("label=") == 1
    with pytest.raises(Exception):
        trd.export_graph(single, "svg")


def test_graph_json_schema():
    import json

    ball = trd.building_ball(sl2_oracle(2), +1, 2)
    data = json.loads(trd.export_graph(ball, "json"))
    assert {n["id"] for n in data["nodes"]} == set(range(len(ball.chambers)))
    for e in data["edges"]:
        assert set(e) == {"a", "b", "type"}
        assert 0 <= e["a"] < e["b"] < len(ball.chambers)
    # node count agrees with the BFS enumeration (the cross-check the CLI
    # exports rely on)
    assert len(data["nodes"]) == len(ball.chambers)


def test_rsd_report_is_reproducible_across_processes():
    # the report is a function of its config and seed: set iteration order
    # in the subgroup closures must not depend on object addresses
    import os
    import subprocess
    import sys
    from pathlib import Path

    tests = Path(__file__).resolve().parent
    script = (
        "from test_trd import tautological_basis\n"
        "from twinroot import trd\n"
        "G, basis = tautological_basis(4)\n"
        "print(trd.check_rsd(trd.split_oracle(G), basis, sample_budget=24, seed=0).to_json())\n"
    )
    path = os.pathsep.join([str(tests), str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")])
    reports = {
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=path),
        ).stdout
        for _ in range(3)
    }
    assert len(reports) == 1


# --- the former group-oracle walks, kept as test-local references -----------------


def two_sided_closure(oracle, basis, gens, universe):
    """The closure walk trd._subgroup_closure replaced: each new element is
    inverted and multiplied on both sides by every element found so far."""
    out = {oracle.identity}
    frontier = list(gens)
    while frontier:
        g = frontier.pop()
        if g in out:
            continue
        out.add(g)
        new = [oracle.inv(g)]
        new.extend(oracle.mul(g, h) for h in list(out))
        new.extend(oracle.mul(h, g) for h in list(out))
        for tau in basis.torus_elements:
            new.append(oracle.mul(oracle.mul(tau, g), oracle.inv(tau)))
        for h in new:
            if h not in out:
                if h not in universe:
                    raise OracleInconsistent("closure left U_(alpha,beta]")
                frontier.append(h)
    return out


def rsd5_closure_inputs(oracle, pairs, sample_budget, seed):
    """(gens, U_(a,b]) for every closure RSD5 forms on the root pairs (a, b),
    built as check_rsd builds them, without stopping at a failure."""
    rng = random.Random(seed)
    for a, b in pairs:
        interval = rootsmod.closed_interval(oracle.gcm, RootVector(a), RootVector(b))
        u_open = trd._interval_group_elements(oracle, [g.coords for g in interval.open])
        universe = {oracle.mul(x, u) for x in u_open for u in oracle.root_group_elements(b)}
        ordered = sorted(universe, key=str)
        gen_sets = [[g] for g in ordered[: max(4, sample_budget // 4)]]
        for _ in range(max(1, sample_budget // 20)):
            gen_sets.append(rng.sample(ordered, min(2, len(ordered))))
        for gens in gen_sets:
            yield gens, universe


def _simple_prenilpotent_pairs(oracle):
    simple = [oracle.simple_vector(i) for i in range(oracle.gcm.n)]
    return [
        (a, b)
        for a in simple
        for b in simple
        if a != b and rootsmod.is_prenilpotent_pair(oracle.gcm, RootVector(a), RootVector(b))
    ]


def _closure_case(name):
    if name.startswith("tautological"):
        G, basis = tautological_basis(int(name[-1]))
        orc = trd.split_oracle(G)
        return orc, basis, _simple_prenilpotent_pairs(orc)
    if name == "subfield-F3":
        G9, basis = subfield_basis()
        orc = trd.split_oracle(G9)
    else:
        d = su3_datum(2)
        orc, basis = trd.su3_oracle(d), trd.center_line_basis(d)
    # no simple pair of these rank-2 affine data is prenilpotent, so RSD5
    # forms no closure for them; the pairs below have a nonempty open interval
    assert not _simple_prenilpotent_pairs(orc)
    return orc, basis, [((1, 0), (3, 2)), ((0, 1), (2, 3))]


@pytest.mark.parametrize("name", ["tautological-F2", "tautological-F4", "subfield-F3", "center-line"])
def test_closure_matches_two_sided_reference(name):
    orc, basis, pairs = _closure_case(name)
    compared = 0
    # sample_budget=24, seed=0, as in the tautological reports above
    for gens, universe in rsd5_closure_inputs(orc, pairs, 24, 0):
        got = trd._subgroup_closure(orc, basis, gens, universe)
        assert got == two_sided_closure(orc, basis, gens, universe), gens
        compared += 1
    assert compared >= 5 * len(pairs)


@pytest.mark.parametrize("name", ["tautological-F4", "subfield-F3", "center-line"])
def test_closure_under_a_generating_sublist_of_the_torus(name):
    # RSD5 conjugates by a generating sublist of T_d; its closures are those
    # of the whole list
    orc, basis, pairs = _closure_case(name)
    gens_of_torus = trd._generating_subset(orc, basis.torus_elements)
    assert set(gens_of_torus) <= set(basis.torus_elements)
    listed = set(basis.torus_elements)
    no_torus = replace(basis, torus_elements=[])
    assert trd._subgroup_closure(orc, no_torus, gens_of_torus, listed) == listed | {orc.identity}
    stable = replace(basis, torus_elements=gens_of_torus)
    for gens, universe in rsd5_closure_inputs(orc, pairs, 24, 0):
        got = trd._subgroup_closure(orc, stable, gens, universe)
        assert got == trd._subgroup_closure(orc, basis, gens, universe)


def test_generating_sublist_stays_inside_the_list():
    # 64 constant torus elements need 6 greedy generators; an element of
    # infinite order is kept as it is, the walk never leaving the list
    G, basis = tautological_basis(9)
    orc = trd.split_oracle(G)
    assert len(trd._generating_subset(orc, basis.torus_elements)) == 6
    f = G.field
    shift = diagonal(f, (LaurentPoly.monomial(f, 1, 1), LaurentPoly.one(f), LaurentPoly.monomial(f, -1, 1)))
    assert trd._generating_subset(orc, [shift, orc.identity]) == [shift]


def test_closure_leaving_the_universe_raises():
    # over F_9 the subfield line has order 3, so u * u leaves {1, u}; over
    # F_4 (characteristic 2) u * u = 1 and only a torus conjugate leaves it
    G9, basis9 = subfield_basis()
    G4, basis4 = tautological_basis(4)
    for G, basis, u in ((G9, basis9, G9.u(0, 1)), (G4, basis4, G4.u(0, 1))):
        orc = trd.split_oracle(G)
        universe = {orc.identity, u}
        for closure in (trd._subgroup_closure, two_sided_closure):
            with pytest.raises(OracleInconsistent):
                closure(orc, basis, [u], universe)


def linear_scan_balls(oracle, sign, radius):
    """The building_ball walk that chamber lookup by coset key replaced, as
    one ChamberGraph per radius 0..radius (the walk to radius r runs the
    first r layers): root groups asked again at every chamber, and a target
    matched by scanning every chamber with its coset key, inverting that
    chamber's representative at each test.  Sign -1 keys by the Birkhoff
    cell, not by the oracle's sign -1 key, so the reference does not rest on
    the twist that key uses."""
    key = functools.partial(oracle.bruhat_key, 1) if sign > 0 else lambda g: oracle.birkhoff(g).word
    ident = oracle.identity
    chambers = [trd.TwinChamber(sign, (), (), ident)]
    keys = [key(ident)]
    panel_sizes = {}
    edge_set = set()
    frontier = [0]
    graphs = [trd.ChamberGraph(sign, list(chambers), [], {})]
    for _layer in range(radius):
        new_frontier = []
        for idx in frontier:
            c = chambers[idx]
            for node in range(oracle.gcm.n):
                vector = tuple(sign * x for x in oracle.simple_vector(node))
                s_hat = oracle.canonical_s(node)
                moves = [oracle.mul(u, s_hat) for u in oracle.root_group_elements(vector)]
                panel_sizes.setdefault(node, len(moves) + 1)
                panel = [idx]
                for pidx, mv in enumerate(moves):
                    target = oracle.mul(c.rep, mv)
                    tkey = key(target)
                    found = None
                    for j, (other, okey) in enumerate(zip(chambers, keys)):
                        if okey == tkey and oracle.in_borel(sign, oracle.mul(oracle.inv(other.rep), target)):
                            found = j
                            break
                    if found is None:
                        chambers.append(trd.TwinChamber(sign, c.word + (node,), c.params + (pidx,), target))
                        keys.append(tkey)
                        found = len(chambers) - 1
                        new_frontier.append(found)
                    panel.append(found)
                for a in panel:
                    for b in panel:
                        if a < b:
                            edge_set.add((a, b, node))
        frontier = new_frontier
        graphs.append(trd.ChamberGraph(sign, list(chambers), sorted(edge_set), dict(panel_sizes)))
    return graphs


def _integrated_f_oracle():
    d = su3_datum(2)
    integ = trd.integrate_subdatum(trd.su3_oracle(d), trd.center_line_basis(d))
    return integ.oracle()


@pytest.mark.parametrize(
    "name, radius",
    # SU_3(F_2) stops at radius 2: the reference takes over 4 s per sign at 3;
    # SL_2(F_4) at 3 and SU_3(F_3) at 1 for the same reason (about 10 s at
    # radius 4 and 2)
    [("SL2(F2)", 3), ("SL2(F3)", 3), ("SL3(F2)", 3), ("SU3(F2)", 2), ("F", 3), ("SL2(F4)", 3), ("SU3(F3)", 1),
     ("SL4(F2)", 2)],
)
def test_building_ball_matches_linear_scan_reference(name, radius):
    orc = {
        "SL2(F2)": lambda: sl2_oracle(2),
        "SL2(F3)": lambda: sl2_oracle(3),
        "SL3(F2)": lambda: sl3_oracle(2),
        "SU3(F2)": lambda: su3_oracle(2),
        "F": _integrated_f_oracle,
        "SL2(F4)": lambda: sl2_oracle(4),
        "SU3(F3)": lambda: su3_oracle(3),
        "SL4(F2)": lambda: trd.split_oracle(loop_group(2, 4)),
    }[name]()
    for sign in (+1, -1):
        refs = linear_scan_balls(orc, sign, radius)
        for r, ref in enumerate(refs):
            ball = trd.building_ball(orc, sign, r)
            assert ball.to_json() == ref.to_json(), (sign, r)
            assert ball.to_dot() == ref.to_dot(), (sign, r)
            # the panel sizes are now known before the first layer
            assert ball.panel_sizes == refs[-1].panel_sizes, (sign, r)


@pytest.mark.parametrize("name", ["wrong-conjugate", "empty-torus", "swapped-signs"])
def test_building_ball_on_criterion_08_mutants(name):
    mutant = _criterion_08_mutants()[name]
    if name == "swapped-signs":
        # the moves u s_hat with u in U_-alpha all land in one coset
        for sign in (+1, -1):
            with pytest.raises(OracleInconsistent, match="differ by an element of B"):
                trd.building_ball(mutant, sign, 3)
        return
    # the ball does not see these faults; check_trd does
    for sign in (+1, -1):
        ref = linear_scan_balls(mutant, sign, 3)[-1]
        assert trd.building_ball(mutant, sign, 3).to_json() == ref.to_json(), sign
    rep = trd.check_trd(mutant, sample_budget=60, level_window=1, seed=0)
    assert not rep.passed
    assert any(r.witness for r in rep.results if not r.passed)


def test_ball_certificates_reject_faulty_oracles():
    # the panel certificate holds in every rank: swapped signs in SL_3(F_2)
    sl3 = sl3_oracle(2)
    swapped = replace(sl3, root_group_elements=lambda v: sl3.root_group_elements(tuple(-x for x in v)))
    with pytest.raises(OracleInconsistent, match="differ by an element of B"):
        trd.building_ball(swapped, +1, 2)
    orc = sl2_oracle(3)
    base = orc.root_group_elements
    s1_inv = orc.inv(orc.canonical_s(1))
    # one move across the 1-panel of B_- is the identity
    move_in_borel = replace(orc, root_group_elements=lambda v: [s1_inv] + base(v)[1:] if v == (0, -1) else base(v))
    with pytest.raises(OracleInconsistent, match="lies in B_-1"):
        trd.building_ball(move_in_borel, -1, 3)
    # U_{alpha_1} wired to U_{-alpha_0}: every panel still has 1 + q distinct
    # chambers, but u s_1 leaves the cell B s_1 B
    wrong_root = replace(orc, root_group_elements=lambda v: base((-1, 0)) if v == (0, 1) else base(v))
    with pytest.raises(OracleInconsistent, match="outside the cell of its gallery word"):
        trd.building_ball(wrong_root, +1, 3)
    # a Bruhat key that keeps only the length cannot tell s_0 from s_1
    length_key = replace(orc, bruhat_key=lambda sign, g: len(orc.bruhat_key(sign, g)))
    with pytest.raises(OracleInconsistent, match="share the coset key"):
        trd.building_ball(length_key, +1, 3)
    # a Borel test that never holds finds no chamber at a non-ShortLex ascent
    never_in_borel = replace(sl3, in_borel=lambda sign, g: False)
    for sign in (+1, -1):
        with pytest.raises(OracleInconsistent, match="matches no chamber"):
            trd.building_ball(never_in_borel, sign, 3)


def simple_rewirings(orc):
    """(src, dst, oracle) for each simple root group, of either sign, wired
    to another one."""
    n, base = orc.gcm.n, orc.root_group_elements
    simple = [tuple(sgn * (k == i) for k in range(n)) for i in range(n) for sgn in (1, -1)]
    for src, dst in itertools.permutations(simple, 2):
        yield src, dst, replace(orc, root_group_elements=lambda v, src=src, dst=dst: base(dst if v == src else v))


@pytest.mark.parametrize("n,radius", [(3, 3), (4, 2)])
def test_building_ball_on_rewired_simple_root_groups(n, radius):
    # on both signs the ball is the correct one or the walk raises
    orc = trd.split_oracle(loop_group(2, n))
    good = {sign: trd.building_ball(orc, sign, radius).to_json() for sign in (+1, -1)}
    unseen = set()
    for src, dst, rewired in simple_rewirings(orc):
        for sign in (+1, -1):
            try:
                ball = trd.building_ball(rewired, sign, radius)
            except OracleInconsistent:
                continue
            if ball.to_json() != good[sign]:
                unseen.add((sign, src, dst))
    assert unseen == set()


@pytest.mark.parametrize("q,n,radius", [(2, 2, 3), (3, 2, 3), (2, 3, 2), (2, 4, 2)])
def test_sign_minus_cell_key_rejects_every_negative_rewiring(q, n, radius):
    # a sign -1 ball reads only the negative simple root groups: rewiring
    # one of them must raise, even where the ball's JSON would look right,
    # and rewiring a positive one changes nothing
    orc = trd.split_oracle(loop_group(q, n))
    good = trd.building_ball(orc, -1, radius).to_json()
    for src, dst, rewired in simple_rewirings(orc):
        if sum(src) < 0:
            with pytest.raises(OracleInconsistent):
                trd.building_ball(rewired, -1, radius)
        else:
            assert trd.building_ball(rewired, -1, radius).to_json() == good, (src, dst)


def test_group_oracle_keeps_the_fields_callers_replace():
    # the benchmark's tracer and the fault-injection tests swap these with dataclasses.replace
    names = {f.name for f in fields(trd.GroupOracle)}
    assert {"mul", "in_borel", "root_group_elements", "is_torus", "bruhat_key"} <= names


@pytest.mark.parametrize("n", [2, 3])
def test_split_root_groups_are_built_once_and_handed_out_fresh(n):
    # over F_3 the directly built order differs from a conjugated one
    # (r -> -r), and ball parameters and check_trd's samples read that order
    G = loop_group(3, n)
    orc = trd.split_oracle(G)
    built = []
    direct = G.root_group_elements
    G.root_group_elements = lambda root: built.append(root) or direct(root)
    roots = orc.windowed_roots(1)
    for v in roots:
        want = direct(G.vector_to_root(v))
        first, second = orc.root_group_elements(v), orc.root_group_elements(list(v))
        assert first == second == want and first is not second
        first.reverse()
        first.pop()
        assert orc.root_group_elements(v) == want
    assert sorted(built) == sorted({G.vector_to_root(v) for v in roots})
