"""twin-verify: TRD and RSD axiom checks, twin-building balls and oracle
queries on the groups of the paper, plus the three fault-injected oracles.

A round holds every check, ball and mutant once with round-specific sampling
seeds, then codistance and VwV normal-form queries on fresh random inputs;
the SL_3(F_2) TRD check runs once per run.
"""

from __future__ import annotations

import random
from dataclasses import replace

from twinroot import trd
from twinroot.chevalley import loop_group
from twinroot.descent import maximal_split_subgroup, su3_datum
from twinroot.laurent import LaurentPoly, diagonal

import ref
from harness import Op, Workload, expect
from wl_loop import iwahori_pair, to_program, to_ref

# A round holds 51 operations, 13 of them checks and balls of 80..450 ms; with
# 5 rounds the p90 falls among the ten balls of the split subgroup F and the
# median among the codistances, not on the edge between two kinds.
ROUNDS_PER_10S = 5
MIN_ROUNDS = 2  # 103 operations, so the p90 has 10 samples beyond it
CODISTANCES = 14  # per round and oracle
NORMAL_FORMS = 10  # per round


class Groups:
    """The oracles and bases every round works on."""

    def __init__(self):
        G3 = loop_group(3, 2)
        self.sl2f3 = trd.split_oracle(G3)
        self.sl3f2 = trd.split_oracle(loop_group(2, 3))
        d = su3_datum(2)
        self.su3 = trd.su3_oracle(d)
        F = maximal_split_subgroup(d)
        self.F = F
        self.center_line = trd.RsdBasis(
            "center-line",
            F.split_torus_elements(),
            lambda g: d.ambient.is_torus(g) and F.contains(g),
            {0: d.simple_root_group_center(0), 1: d.simple_root_group_center(1)},
        )
        sl2 = F.sl2
        self.integrated = trd.integrate_subdatum(
            self.su3, self.center_line, birkhoff=lambda g: sl2.birkhoff_cell(F.to_sl2(g))
        )
        self.split = self.integrated.oracle()
        G9 = loop_group(9, 2)
        self.sl2f9 = trd.split_oracle(G9)
        self.subfield = _subfield_basis(G9)
        G4 = loop_group(4, 3)
        self.sl3f4 = trd.split_oracle(G4)
        self.tautological = _tautological_basis(G4)
        self.mutants = _mutants(G3, self.sl2f3)


def _subfield_basis(G9):
    f9 = G9.field
    sub = [a for a in f9.elements() if f9.frobenius(a) == a]

    def is_torus(g):
        return G9.is_torus(g) and all(f9.frobenius(v) == v for i in range(2) for _, v in g.entry(i, i).terms)

    torus = [diagonal(f9, (LaurentPoly.const(f9, c), LaurentPoly.const(f9, f9.inv(c)))) for c in sub if c]
    return trd.RsdBasis("subfield-F3", torus, is_torus, {node: [G9.u(node, r) for r in sub] for node in (0, 1)})


def _tautological_basis(G):
    f = G.field
    torus = [
        diagonal(f, (LaurentPoly.const(f, a), LaurentPoly.const(f, b), LaurentPoly.const(f, f.inv(f.mul(a, b)))))
        for a in f.units()
        for b in f.units()
    ]
    groups = {node: G.root_group_elements(G.simple_roots[node]) for node in range(3)}
    return trd.RsdBasis("tautological", torus, G.is_torus, groups)


def _mutants(G3, oracle):
    """The three sabotaged SL_2(F_3) oracles: a wrong conjugate root group, a
    torus test rejecting everything, positive and negative roots swapped."""
    tilt = G3.root_group_element((1, 0, 1), 1)
    tilt_inv = tilt.inverse()
    base = oracle.root_group_elements

    def wrong_conjugate(vector):
        if vector == (0, 1):
            return [tilt * u * tilt_inv for u in base(vector)]
        return base(vector)

    return {
        "wrong-conjugate": replace(oracle, root_group_elements=wrong_conjugate),
        "empty-torus": replace(oracle, is_torus=lambda g: False),
        "swapped-signs": replace(oracle, root_group_elements=lambda v: base(tuple(-x for x in v))),
    }


def build(seed: int, seconds: int) -> Workload:
    rng = random.Random(f"twin-verify/{seed}")
    g = Groups()
    # the SL_3(F_2) check alone costs about a round, so it runs once per run
    ops = [Op("check_trd", _call(trd.check_trd, g.sl3f2, 60, 2, rng.randrange(10**6)), _passes)]
    for _ in range(max(MIN_ROUNDS, round(seconds * ROUNDS_PER_10S / 10.0))):
        s = rng.randrange(10**6)
        ops += [
            Op("check_trd", _call(trd.check_trd, g.sl2f3, 200, 2, s), _passes),
            Op("check_trd", _call(trd.check_trd, g.su3, 60, 2, s), _passes),
            Op("check_rsd", _call(trd.check_rsd, g.su3, g.center_line, 200, s), _passes),
            Op("check_rsd", _call(trd.check_rsd, g.sl2f9, g.subfield, 200, s), _passes),
            Op("check_rsd", _call(trd.check_rsd, g.sl3f4, g.tautological, 24, s), _fails_only_rsd5),
        ]
        for name, mutant in g.mutants.items():
            ops.append(Op("check_trd", _call(trd.check_trd, mutant, 60, 1, s), _fails_with_witness(name)))
        for oracle, sign, radius, panels in (
            (g.su3, 1, 2, (2, 8)),
            (g.su3, -1, 2, (2, 8)),
            (g.sl2f3, 1, 3, (3, 3)),
            (g.split, 1, 3, (2, 2)),
            (g.split, -1, 3, (2, 2)),
        ):
            ops.append(Op("building_ball", _call(trd.building_ball, oracle, sign, radius), _check_ball(radius, panels)))
        ops += _codistances(g, rng)
        ops += _normal_forms(g, rng)
    return Workload(ops)


def _call(fn, *args):
    return lambda: fn(*args)


# --- codistances -----------------------------------------------------------------
#
# Chambers of the maximal split subgroup F ~ SL_2(F_2[t, 1/t]) inside SU_3(F_2):
# representatives are images of random SL_2 elements drawn with the reference
# arithmetic.  The codistance of (c+, c-) is the Birkhoff cell of
# rep(c+)^-1 rep(c-); it is asked of F's own oracle and of the ambient SU_3
# oracle, and compared with the SL_2 cell of the same element.


def _sl2_inverse(f, m):
    neg = lambda p: {e: f.neg[v] for e, v in p.items()}
    return [[m[1][1], neg(m[0][1])], [neg(m[1][0]), m[0][0]]]


def _codistances(g, rng):
    f = ref.field(2)
    sl2 = g.F.sl2
    ops = []
    for _ in range(CODISTANCES):
        plus = ref.random_group_element(f, 2, rng, 3, 4)
        minus = ref.random_group_element(f, 2, rng, 3, 4)
        relative = ref.mmul(f, _sl2_inverse(f, plus), minus)
        cp = trd.TwinChamber(1, (), (), g.F.from_sl2(to_program(sl2, plus)))
        cm = trd.TwinChamber(-1, (), (), g.F.from_sl2(to_program(sl2, minus)))
        check = _check_codistance(sl2, f, relative, rng.randrange(2**32))
        ops.append(Op("codistance", _call(trd.codistance, g.split, cp, cm), check))
        ops.append(Op("codistance", _call(trd.codistance, g.su3, cp, cm), check))
    return ops


def _check_codistance(sl2, f, relative, check_seed):
    def check(w):
        expect(ref.is_reduced(ref.affine_gcm(2), w.word), f"codistance {w.word} is not reduced")
        want = sl2.birkhoff_cell(to_program(sl2, relative)).word
        expect(w.word == want, f"codistance {w.word}, SL2 Birkhoff cell {want}")
        moved = iwahori_pair(f, 2, relative, random.Random(check_seed), (1, -1))
        again = sl2.birkhoff_cell(to_program(sl2, moved)).word
        expect(again == want, f"Birkhoff cell of b+ g b- is {again}, of g {want}")

    return check


# --- VwV normal forms -------------------------------------------------------------


def _normal_forms(g, rng):
    integ = g.integrated
    basis = g.center_line
    amb = integ.ambient
    ops = []
    for _ in range(NORMAL_FORMS):
        tokens = []
        for _ in range(rng.randint(3, 7)):
            node = rng.randrange(2)
            kind = rng.choice(("torus", "e", "e-", "s", "s"))
            if kind == "torus":
                tokens.append(("torus", rng.choice(basis.torus_elements)))
            elif kind == "s":
                tokens.append(("s", node))
            else:
                e = rng.choice(basis.nontrivial(amb, node))
                if kind == "e-":
                    s = integ.s_hat[node]
                    e = amb.mul(amb.mul(s, e), amb.inv(s))
                tokens.append((kind, node, e))
        ops.append(Op("vwv_normal_form", _call(integ.vwv_normal_form, tokens), _check_normal_form(integ, tokens)))
    return ops


def _check_normal_form(integ, tokens):
    f = ref.field(4)
    s_hat = {node: to_ref(m) for node, m in integ.s_hat.items()}

    def matrix(tok):
        return s_hat[tok[1]] if tok[0] == "s" else to_ref(tok[-1])

    def check(result):
        v1, w, m_hat, v2 = result
        total = ref.mprod(f, ref.mident(3), *(matrix(t) for t in tokens))
        expect(ref.mprod(f, to_ref(v1), to_ref(m_hat), to_ref(v2)) == total, "v1 * m * v2 != input product")
        expect(ref.is_reduced(ref.affine_gcm(2), w.word), f"normal-form word {w.word} is not reduced")
        bound = sum(1 if t[0] == "s" else 2 if t[0] == "e-" else 0 for t in tokens)
        expect(len(w.word) <= bound, f"normal-form word {w.word} longer than the {bound} reflections given")

    return check


# --- verdict and ball checks --------------------------------------------------------


def _passes(report):
    failed = [r.axiom for r in report.results if not r.passed]
    expect(not failed, f"{report.name}: {failed} fail on genuine data")


def _fails_only_rsd5(report):
    verdicts = {r.axiom: r for r in report.results}
    rsd5 = verdicts.get("RSD5")
    expect(rsd5 is not None and not rsd5.passed and rsd5.witness, "tautological F4 basis passes RSD5")
    expect(all(r.passed for a, r in verdicts.items() if a != "RSD5"), "tautological F4 basis fails beyond RSD5")


def _fails_with_witness(name):
    def check(report):
        failed = [r for r in report.results if not r.passed]
        expect(failed, f"mutant {name} passes every axiom")
        expect(all(r.witness for r in failed), f"mutant {name} fails without a witness")

    return check


def tree_chambers(radius, panels):
    """Chambers within `radius` of one in a semi-regular tree whose panels of
    type 0 and 1 hold 1 + a and 1 + b chambers."""
    a, b = panels
    total = 1
    for start in (0, 1):
        count = 1
        for k in range(radius):
            count *= (a, b)[(start + k) % 2]
            total += count
    return total


def _check_ball(radius, panels):
    def check(ball):
        want = tree_chambers(radius, panels)
        got = len(ball.chambers)
        expect(got == want, f"ball of radius {radius} has {got} chambers, expected {want}")
        expect(ball.panel_sizes == {0: 1 + panels[0], 1: 1 + panels[1]}, f"panel sizes {ball.panel_sizes}")

    return check
