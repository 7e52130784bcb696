"""Twin-root-datum layer: axiom checking, subdatum integration, twin buildings.

A GroupOracle bundles the concrete data of a group with a twin root datum at
desk scale: finite per-root enumerators, a torus membership test, mu-maps,
Borel membership, and a Birkhoff cell map for codistances.  All "for all
roots" quantifiers run over a configured level window, which is echoed in
every report together with the seed.
"""

from __future__ import annotations

import functools
import json
import operator
import random
from dataclasses import dataclass, field as dc_field, replace

from . import cone, weyl
from . import roots as rootsmod
from .chevalley import LoopGroup, WordReps
from .descent import REL_GCM, REL_ORBITS, HermitianDescentDatum, maximal_split_subgroup
from .errors import (
    NotInGeneratedGroup,
    OracleInconsistent,
    RsdViolation,
    SameSign,
    UnknownFormat,
)
from .gcm import GeneralizedCartanMatrix
from .laurent import LaurentMatrix
from .roots import RootVector
from .weyl import WeylElement


@dataclass
class GroupOracle:
    """Concrete access to (G, H, (U_alpha)) for one group."""

    name: str
    gcm: GeneralizedCartanMatrix
    identity: LaurentMatrix
    is_torus: object
    in_borel: object  # (sign, g) -> bool
    root_group_elements: object  # vector -> list incl. identity
    mu: object  # (vector, u) -> matrix
    canonical_s: object  # node -> matrix
    birkhoff: object  # g -> WeylElement over gcm
    bruhat_key: object  # (sign, g) -> hashable, constant on g B_sign
    # fields, not methods, so a caller can count or wrap them via dataclasses.replace
    mul: object = operator.mul
    inv: object = LaurentMatrix.inverse

    def simple_vector(self, i: int):
        return tuple(1 if k == i else 0 for k in range(self.gcm.n))

    def nontrivial(self, vector):
        return [u for u in self.root_group_elements(vector) if u != self.identity]

    def windowed_roots(self, level_window: int):
        out = []
        for r in rootsmod.enumerate_real_roots(self.gcm, 2 * level_window + 2):
            # node 0 is the affine node of every oracle's GCM: v[0] is the level
            if abs(r.coords[0]) <= level_window:
                out.append(r.coords)
        return out


def split_oracle(group: LoopGroup) -> GroupOracle:
    built = functools.cache(lambda root: tuple(group.root_group_elements(root)))  # once per root, built directly

    def root_elems(vector):
        return list(built(group.vector_to_root(vector)))

    def mu(vector, u):
        triple = group.vector_to_root(vector)
        i, j, k = triple
        p = u.entry(i, j)
        if p.is_zero():
            raise OracleInconsistent("element does not lie in the claimed root group")
        return group.mu_map(triple, p.coeff(k))

    return GroupOracle(
        name=f"sl{group.n}(F{group.field.q}[t,t^-1])",
        gcm=group.gcm,
        identity=group.identity(),
        is_torus=group.is_torus,
        in_borel=group.in_borel,
        root_group_elements=root_elems,
        mu=mu,
        canonical_s=group._canonical_s,
        birkhoff=group.birkhoff_cell,
        bruhat_key=group.bruhat_key,
    )


def su3_oracle(d: HermitianDescentDatum) -> GroupOracle:
    amb = d.ambient

    def birkhoff(g):
        return weyl.from_word(REL_GCM, cone.fold_word(amb.gcm, REL_ORBITS, amb.birkhoff_cell(g)))

    return GroupOracle(
        name=f"su3(F{d.q}[t,t^-1])",
        gcm=REL_GCM,
        identity=amb.identity(),
        is_torus=d.is_torus,
        in_borel=d.in_borel,
        root_group_elements=d.root_group,
        mu=d.mu_for,
        canonical_s=d.canonical_s,
        birkhoff=birkhoff,
        bruhat_key=amb.bruhat_key,
    )


# --- reports -------------------------------------------------------------------


@dataclass
class AxiomResult:
    axiom: str
    passed: bool
    checked: int
    witness: str | None = None


@dataclass
class Report:
    name: str
    config: dict
    results: list[AxiomResult] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def add(self, axiom: str, passed: bool, checked: int, witness: str | None = None):
        self.results.append(AxiomResult(axiom, passed, checked, witness))

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "config": self.config,
                "passed": self.passed,
                "results": [
                    {
                        "axiom": r.axiom,
                        "passed": r.passed,
                        "checked": r.checked,
                        "witness": r.witness,
                    }
                    for r in self.results
                ],
            },
            sort_keys=True,
            indent=2,
        )


# --- TRD axioms ------------------------------------------------------------------


def _interval_group_elements(oracle: GroupOracle, interval_roots):
    """All products of the root groups along the interval order (finite)."""
    out = {oracle.identity}
    for gamma in interval_roots:
        out = {oracle.mul(x, u) for x in out for u in oracle.root_group_elements(gamma)}
        if len(out) > 100000:
            raise OracleInconsistent("interval group unexpectedly large")
    return out


def _run_axiom(report: Report, axiom: str, body):
    """Run one axiom check; an OracleInconsistent is a failure witness, not
    a crash."""
    try:
        ok, checked, witness = body()
    except OracleInconsistent as exc:
        ok, checked, witness = False, 0, f"oracle inconsistency: {exc}"
    report.add(axiom, ok, checked, witness)


def check_trd(
    oracle: GroupOracle,
    sample_budget: int = 200,
    level_window: int = 2,
    seed: int = 0,
    search_radius: int = 8,
) -> Report:
    """Budgeted verification of (TRD 2), (TRD 3), (TRD 4)."""
    rng = random.Random(seed)
    report = Report(
        oracle.name,
        {
            "sample_budget": sample_budget,
            "level_window": level_window,
            "seed": seed,
            "search_radius": search_radius,
        },
    )
    A = oracle.gcm
    window_roots = oracle.windowed_roots(level_window)

    def trd2():
        pairs = []
        for i, a in enumerate(window_roots):
            for b in window_roots[i + 1 :]:
                if a == tuple(-x for x in b):
                    continue
                if rootsmod.is_prenilpotent_pair(A, RootVector(a), RootVector(b)):
                    pairs.append((a, b))
        rng.shuffle(pairs)
        checked = 0
        for a, b in pairs:
            if checked >= sample_budget:
                break
            interval = rootsmod.closed_interval(A, RootVector(a), RootVector(b), search_radius)
            open_group = _interval_group_elements(oracle, [g.coords for g in interval.open])
            ua = oracle.nontrivial(a)
            ub = oracle.nontrivial(b)
            rng.shuffle(ua)
            rng.shuffle(ub)
            for u in ua[:3]:
                for v in ub[:3]:
                    comm = oracle.mul(oracle.mul(u, v), oracle.inv(oracle.mul(v, u)))
                    checked += 1
                    if comm not in open_group:
                        return False, checked, f"[U_{a}, U_{b}] escapes U_({a},{b})"
        return True, checked, None

    def trd3():
        checked = 0
        for node in range(A.n):
            alpha = oracle.simple_vector(node)
            u0 = oracle.nontrivial(alpha)[0]
            m = oracle.mu(alpha, u0)
            s_mat = weyl.simple_reflection_action(A, node)
            m_inv = oracle.inv(m)
            betas = list(window_roots)
            rng.shuffle(betas)
            for beta in betas[: max(1, sample_budget // (2 * A.n))]:
                target = weyl.mat_vec(s_mat, beta)
                if abs(target[0]) > level_window + 2:  # the level, as in windowed_roots
                    continue
                image = {
                    oracle.mul(oracle.mul(m, u), m_inv)
                    for u in oracle.root_group_elements(beta)
                }
                expected = set(oracle.root_group_elements(target))
                checked += 1
                if image != expected:
                    return False, checked, f"m(u_{alpha}) U_{beta} m^-1 != U_{target}"
            for v in oracle.nontrivial(alpha):
                checked += 1
                if not oracle.is_torus(oracle.mul(oracle.inv(m), oracle.mu(alpha, v))):
                    return False, checked, f"m(u)H != m(v)H at simple root {node}"
        return True, checked, None

    def trd4():
        checked = 0
        for node in range(A.n):
            alpha = oracle.simple_vector(node)
            neg = tuple(-x for x in alpha)
            checked += 2
            if all(oracle.in_borel(-1, u) for u in oracle.nontrivial(alpha)):
                return False, checked, f"U_alpha_{node} lies in B_-"
            if all(oracle.in_borel(+1, u) for u in oracle.nontrivial(neg)):
                return False, checked, f"U_-alpha_{node} lies in B_+"
        return True, checked, None

    _run_axiom(report, "TRD2", trd2)
    _run_axiom(report, "TRD3", trd3)
    _run_axiom(report, "TRD4", trd4)
    return report


# --- root subdatum bases ----------------------------------------------------------


@dataclass
class RsdBasis:
    """Torus part T_d plus one subgroup E_alpha per simple root."""

    name: str
    torus_elements: list
    is_torus: object  # membership test for T_d
    e_groups: dict  # node -> list of elements (including the identity)

    def nontrivial(self, oracle: GroupOracle, node: int):
        return [u for u in self.e_groups[node] if u != oracle.identity]

    def reflections(self, oracle: GroupOracle) -> dict:
        """node -> s_hat(node) = m(v0), v0 the first nontrivial element of E_node."""
        return {
            node: oracle.mu(oracle.simple_vector(node), self.nontrivial(oracle, node)[0])
            for node in range(oracle.gcm.n)
        }


def center_line_basis(d: HermitianDescentDatum) -> RsdBasis:
    """The maximal split subgroup's basis in SU3: the split torus and the
    centers of the two simple relative root groups."""
    F = maximal_split_subgroup(d)
    return RsdBasis(
        "center-line",
        F.split_torus_elements(),
        lambda g: d.ambient.is_torus(g) and F.contains(g),
        {0: d.simple_root_group_center(0), 1: d.simple_root_group_center(1)},
    )


def check_rsd(
    oracle: GroupOracle,
    basis: RsdBasis,
    sample_budget: int = 200,
    seed: int = 0,
    search_radius: int = 8,
) -> Report:
    """Verify (RSD 1)-(RSD 5) on the finite basis data.

    Conditions indexed by a pair with m_ij = infinity are vacuous and are
    reported as checked with count 0.
    """
    rng = random.Random(seed)
    report = Report(
        f"{oracle.name} / {basis.name}",
        {"sample_budget": sample_budget, "seed": seed, "search_radius": search_radius},
    )
    A = oracle.gcm

    def wellformed():
        checked = 0
        for node in range(A.n):
            checked += 1
            if not basis.nontrivial(oracle, node):
                return False, checked, f"E_{node} is trivial"
            ambient = set(oracle.root_group_elements(oracle.simple_vector(node)))
            if not set(basis.e_groups[node]) <= ambient:
                return False, checked, f"E_{node} is not contained in U_alpha_{node}"
        return True, checked, None

    _run_axiom(report, "basis", wellformed)
    if not report.passed:
        return report

    cox = weyl.coxeter_matrix(A)
    reps = WordReps(oracle.identity, basis.reflections(oracle).__getitem__)

    def rsd1():
        checked = 0
        for i in range(A.n):
            for j in range(A.n):
                m = cox.m[i][j]
                if m == weyl.INF:
                    continue
                checked += 1
                if not basis.is_torus(reps[(i, j) * int(m)][0]):
                    return False, checked, f"(s_{i} s_{j})^{int(m)} not in T_d"
        return True, checked, None

    def rsd2():
        checked = 0
        for node in range(A.n):
            alpha = oracle.simple_vector(node)
            elems = basis.nontrivial(oracle, node)
            for r in elems:
                for t in elems:
                    checked += 1
                    if not basis.is_torus(
                        oracle.mul(oracle.mu(alpha, r), oracle.inv(oracle.mu(alpha, t)))
                    ):
                        return False, checked, f"m(r)m(t)^-1 not in T_d at node {node}"
        return True, checked, None

    def rsd3():
        checked = 0
        for node in range(A.n):
            e_set = set(basis.e_groups[node])
            for tau in basis.torus_elements:
                tau_inv = oracle.inv(tau)
                for e in basis.e_groups[node]:
                    checked += 1
                    if oracle.mul(oracle.mul(tau, e), tau_inv) not in e_set:
                        return False, checked, f"T_d does not normalize E_{node}"
            s, s_inv = reps[(node,)]
            for tau in basis.torus_elements:
                checked += 1
                if not basis.is_torus(oracle.mul(oracle.mul(s, tau), s_inv)):
                    return False, checked, f"s_{node} does not normalize T_d"
        return True, checked, None

    def rsd4():
        checked = 0
        for node in range(A.n):
            alpha = oracle.simple_vector(node)
            elems = basis.nontrivial(oracle, node)
            s, s_inv = reps[(node,)]
            # m(v) = (s v1 s^-1) v (s v2 s^-1) for some v1, v2 in E_node
            conj = [oracle.mul(s, oracle.mul(v1, s_inv)) for v1 in elems]
            for v in elems:
                m = oracle.mu(alpha, v)
                checked += 1
                if not any(oracle.mul(oracle.mul(c1, v), c2) == m for c1 in conj for c2 in conj):
                    return False, checked, f"RSD4 decomposition unsolvable at node {node}"
        return True, checked, None

    def rsd5():
        checked = 0
        # the closures conjugate by generators of <T_d> only (_subgroup_closure)
        stable = replace(basis, torus_elements=_generating_subset(oracle, basis.torus_elements))
        for i in range(A.n):
            for j in range(A.n):
                if i == j:
                    continue
                a, b = oracle.simple_vector(i), oracle.simple_vector(j)
                if not rootsmod.is_prenilpotent_pair(A, RootVector(a), RootVector(b)):
                    continue
                interval = rootsmod.closed_interval(
                    A, RootVector(a), RootVector(b), search_radius
                )
                open_roots = [g.coords for g in interval.open]
                u_open = _interval_group_elements(oracle, open_roots)
                u_beta = oracle.root_group_elements(b)
                factor = {}
                for x in u_open:
                    for u in u_beta:
                        prod = oracle.mul(x, u)
                        if prod in factor and factor[prod] != (x, u):
                            return False, checked, f"non-unique factorization in U_({i},{j}]"
                        factor[prod] = (x, u)
                universe = sorted(factor, key=str)
                # single-generator closures first (they expose diagonal-type
                # violations), then sampled two-generator ones, within budget
                singles = universe[: max(4, sample_budget // 4)]
                gen_sets = [[g] for g in singles]
                for _ in range(max(1, sample_budget // 20)):
                    gen_sets.append(rng.sample(universe, min(2, len(universe))))
                for gens in gen_sets:
                    X = _subgroup_closure(oracle, stable, gens, factor)
                    for x in X:
                        u1, u2 = factor[x]
                        checked += 1
                        if u1 not in X or u2 not in X:
                            return False, checked, f"RSD5 component escape in U_({i},{j}]"
        return True, checked, None

    _run_axiom(report, "RSD1", rsd1)
    _run_axiom(report, "RSD2", rsd2)
    _run_axiom(report, "RSD3", rsd3)
    _run_axiom(report, "RSD4", rsd4)
    _run_axiom(report, "RSD5", rsd5)
    return report


def _subgroup_closure(oracle, basis, gens, universe):
    """The T_d-stable subgroup generated by gens, by one walk from the
    identity whose steps are x -> x g for g in gens and x -> tau x tau^-1 for
    tau in T_d.

    The set X the walk reaches is closed under both steps.  Inside the finite
    universe, conjugation by tau and right multiplication by g are injective
    maps of X into itself, hence bijections, so X is also closed under their
    inverses: X is a group, closed under right multiplication by every T_d
    conjugate of a generator, and so it is the T_d-stable subgroup they
    generate.  By the same bijections generators of <T_d> give the same X as
    T_d itself (rsd5 passes them).  No element of X is inverted.
    OracleInconsistent is raised when a step leaves the universe.
    """
    conjugators = [(tau, oracle.inv(tau)) for tau in basis.torus_elements]
    out = {oracle.identity}
    frontier = [oracle.identity]
    while frontier:
        x = frontier.pop()
        steps = [oracle.mul(x, g) for g in gens]
        steps.extend(oracle.mul(oracle.mul(tau, x), tau_inv) for tau, tau_inv in conjugators)
        for h in steps:
            if h not in out:
                if h not in universe:
                    raise OracleInconsistent("closure left U_(alpha,beta]")
                out.add(h)
                frontier.append(h)
    return out


def _generating_subset(oracle, elements):
    """A greedy sublist whose products, walked inside the list, reach every
    element: an element joins when the walk of those before it misses it."""
    listed, gens, reached = set(elements), [], {oracle.identity}
    for tau in elements:
        if tau not in reached:
            gens.append(tau)
            frontier = list(reached)
            while frontier:
                x = frontier.pop()
                new = {oracle.mul(x, g) for g in gens} & listed - reached
                reached |= new
                frontier.extend(new)
    return gens


# --- integration ------------------------------------------------------------------


class IntegratedSubgroup:
    """F = <T_d, (E_alpha)> with VwV normal forms and its own root groups
    F_gamma = w-conjugates of the basis groups.  Codistances are the ambient
    oracle's unless `birkhoff` replaces them (see integrate_subdatum)."""

    def __init__(self, oracle: GroupOracle, basis: RsdBasis, birkhoff=None):
        self.ambient = oracle
        self.basis = basis
        self.name = f"F<{basis.name}>"
        self._birkhoff = birkhoff or oracle.birkhoff
        self.s_hat = basis.reflections(oracle)
        self.reps = WordReps(oracle.identity, self.s_hat.__getitem__)
        carrier = functools.partial(rootsmod.carrier_word, oracle.gcm)
        self._root_groups = self.reps.root_groups(carrier, basis.e_groups.__getitem__)
        self._neg_step = {}

    def root_group_elements(self, vector):
        """F_gamma: the basis group E_i conjugated along gamma's carrying word."""
        return self._root_groups(vector)

    def oracle(self) -> GroupOracle:
        amb = self.ambient
        return GroupOracle(
            name=self.name,
            gcm=amb.gcm,
            identity=amb.identity,
            is_torus=self.basis.is_torus,
            in_borel=amb.in_borel,
            root_group_elements=self.root_group_elements,
            mu=amb.mu,
            canonical_s=self.s_hat.__getitem__,
            birkhoff=self._birkhoff,
            bruhat_key=amb.bruhat_key,
        )

    # -- VwV normal form -------------------------------------------------------

    def _neg_table(self, node):
        """E_{-alpha}^* -> (e1, mid, e2) with ebar = e1 * mid * e2 and
        mid in T_d s_alpha (the first step of the VwV rewriting)."""
        if node in self._neg_step:
            return self._neg_step[node]
        amb = self.ambient
        s, s_inv = self.reps[(node,)]
        table = {}
        elems = self.basis.nontrivial(amb, node)
        for e in elems:
            ebar = amb.mul(amb.mul(s_inv, e), s)
            found = None
            for e1 in elems:
                for e2 in elems:
                    mid = amb.mul(amb.mul(amb.inv(e1), ebar), amb.inv(e2))
                    if self.basis.is_torus(amb.mul(mid, s_inv)):
                        found = (e1, mid, e2)
                        break
                if found:
                    break
            if found is None:
                raise RsdViolation(f"first-step inclusion fails at node {node}")
            table[ebar] = found
        self._neg_step[node] = table
        return table

    def _split_v(self, v2, node):
        """v2 = e * v' with e in E_alpha and v' in the complement E_alpha'."""
        amb = self.ambient
        s, s_inv = self.reps[(node,)]
        hits = []
        for e in self.basis.e_groups[node]:
            vp = amb.mul(amb.inv(e), v2)
            if amb.in_borel(+1, amb.mul(amb.mul(s, vp), s_inv)):
                hits.append((e, vp))
        if len(hits) != 1:
            raise OracleInconsistent(
                f"V = E ltimes E' factorization found {len(hits)} candidates"
            )
        return hits[0]

    def vwv_normal_form(self, tokens):
        """Normal form (v1, w, v2) of a word over T_d, E_alpha, E_-alpha, s_alpha.

        Tokens: ("torus", g), ("e", node, g), ("e-", node, g), ("s", node).
        Returns (v1, w, m_hat, v2) with v1 * m_hat * v2 equal to the input
        product and m_hat a representative of w in T_d <s_hat>.
        """
        amb = self.ambient
        ident = amb.identity
        expanded = []
        total = ident
        for tok in tokens:
            if tok[0] == "torus":
                total = amb.mul(total, tok[1])
                expanded.append(tok)
            elif tok[0] == "e":
                total = amb.mul(total, tok[2])
                expanded.append(tok)
            elif tok[0] == "s":
                total = amb.mul(total, self.s_hat[tok[1]])
                expanded.append(tok)
            elif tok[0] == "e-":
                node, x = tok[1], tok[2]
                total = amb.mul(total, x)
                s, s_inv = self.reps[(node,)]
                e = amb.mul(amb.mul(s_inv, x), s)
                s2 = amb.mul(s, s)
                if not self.basis.is_torus(s2):
                    raise RsdViolation(f"s_{node}^2 is not in T_d")
                expanded.extend(
                    [("s", node), ("e", node, e), ("torus", amb.inv(s2)), ("s", node)]
                )
            else:
                raise NotInGeneratedGroup(f"unknown token {tok[0]}")
        v1 = ident
        m_hat = ident
        w = weyl.identity_element(amb.gcm)
        v2 = ident
        for tok in expanded:
            if tok[0] == "e":
                v2 = amb.mul(v2, tok[2])
            elif tok[0] == "torus":
                tau = tok[1]
                m_hat = amb.mul(m_hat, tau)
                v2 = amb.mul(amb.mul(amb.inv(tau), v2), tau)
            else:
                node = tok[1]
                s, s_inv = self.reps[(node,)]
                e, vp = self._split_v(v2, node)
                v_pp = amb.mul(amb.mul(s_inv, vp), s)
                if weyl.root_sign(w.apply(amb.simple_vector(node))) > 0:
                    conj = amb.mul(amb.mul(m_hat, e), amb.inv(m_hat))
                    v1 = amb.mul(v1, conj)
                    m_hat = amb.mul(m_hat, s)
                    w = w * weyl.simple_element(amb.gcm, node)
                    v2 = v_pp
                else:
                    if e == ident:
                        m_hat = amb.mul(m_hat, s)
                        w = w * weyl.simple_element(amb.gcm, node)
                        v2 = v_pp
                    else:
                        ebar = amb.mul(amb.mul(s_inv, e), s)
                        e1, mid, e2 = self._neg_table(node)[ebar]
                        m_short = amb.mul(m_hat, s)
                        conj = amb.mul(amb.mul(m_short, e1), amb.inv(m_short))
                        v1 = amb.mul(v1, conj)
                        m_hat = amb.mul(m_short, mid)
                        v2 = amb.mul(e2, v_pp)
        if amb.mul(amb.mul(v1, m_hat), v2) != total:
            raise OracleInconsistent("VwV normal form does not reconstruct the input")
        return v1, w, m_hat, v2


def integrate_subdatum(oracle: GroupOracle, basis: RsdBasis, birkhoff=None):
    """The subgroup integrated from an RSD basis.

    `birkhoff`, a replacement for the ambient codistance map, has one
    caller, bench/wl_twin.py, and gives the same codistances as the ambient
    map on the center-line and subfield bases (tests/test_integration.py);
    it can go when that benchmark file next changes.
    """
    return IntegratedSubgroup(oracle, basis, birkhoff=birkhoff)


# --- twin building balls ------------------------------------------------------------


@dataclass(frozen=True)
class TwinChamber:
    sign: int
    word: tuple[int, ...]
    params: tuple[int, ...]
    rep: LaurentMatrix = dc_field(compare=False)


@dataclass
class ChamberGraph:
    sign: int
    chambers: list
    edges: list  # (a, b, node_type)
    panel_sizes: dict  # node -> size

    def to_json(self) -> str:
        return json.dumps(
            {
                "sign": self.sign,
                "nodes": [
                    {
                        "id": k,
                        "word": list(c.word),
                        "params": list(c.params),
                    }
                    for k, c in enumerate(self.chambers)
                ],
                "edges": [{"a": a, "b": b, "type": t} for a, b, t in sorted(self.edges)],
            },
            sort_keys=True,
        )

    def to_dot(self) -> str:
        shape = {0: "ellipse", 1: "box", 2: "diamond"}
        lines = [f'digraph ball_{"plus" if self.sign > 0 else "minus"} {{']
        for k, c in enumerate(self.chambers):
            label = "e" if not c.word else ".".join(map(str, c.word))
            label += "|" + (",".join(map(str, c.params)) if c.params else "-")
            sh = "doublecircle" if not c.word else shape.get(c.word[-1] % 3, "ellipse")
            lines.append(f'  n{k} [label="{label}", shape={sh}];')
        for a, b, t in sorted(self.edges):
            lines.append(f"  n{a} -> n{b} [label={t}, dir=none];")
        lines.append("}")
        return "\n".join(lines) + "\n"


BUILDING_BALL_CAP = 20000  # chambers


def building_ball(oracle: GroupOracle, sign: int, radius: int) -> ChamberGraph:
    """BFS of the chamber graph of G/B_sign out to the given gallery radius.

    A chamber at Weyl distance w from the base chamber lies on exactly one
    minimal gallery of each reduced type of w (Abramenko-Brown, Buildings,
    ch. 5), so it is named by the ShortLex word of w and the root-group
    parameters along that gallery.  The moves u s_hat across each panel type
    are formed and certified once: no move lies in B_sign and no two moves
    differ by an element of B_sign (OracleInconsistent otherwise), so each
    panel has len(moves) + 1 distinct chambers.  Chamber c with word w
    walks its i-panel unless i is a descent of w; that panel is walked by
    its projection, the chamber of the panel closest to the base chamber.

    - If w + (i,) is the ShortLex word of w s_i, each move gives the new
      chamber (w + (i,), params + (p,)) with no lookup.  Its cell key
      (oracle.bruhat_key on this sign) must equal the key of the s_hat
      product along its word, and distinct words must have distinct keys.
    - Otherwise the target already exists: the frontier is in lexicographic
      order of (letter, param) sequences, and two minimal galleries to one
      chamber agree up to their first differing letter, so its ShortLex
      parent was expanded first.  It is found among the chambers named by
      the ShortLex word of w s_i by a Borel test of target^-1 rep; a miss
      raises OracleInconsistent.
    """
    key = functools.partial(oracle.bruhat_key, sign)
    reps = WordReps(oracle.identity, oracle.canonical_s)
    moves = {}
    for node in range(oracle.gcm.n):
        vector = tuple(sign * x for x in oracle.simple_vector(node))
        s_hat = oracle.canonical_s(node)
        moves[node] = [oracle.mul(u, s_hat) for u in oracle.root_group_elements(vector)]
        _certify_panel(oracle, sign, node, moves[node])
    ident = oracle.identity
    chambers = [TwinChamber(sign, (), (), ident)]
    by_word = {(): [0]}  # ShortLex word -> indices of the chambers it names
    base_key = key(ident)
    cells = {(): base_key}  # gallery word -> key of its s_hat product
    words_by_cell = {base_key: ()}

    def cell_of(word):
        if word not in cells:
            k = key(reps[word][0])
            if words_by_cell.setdefault(k, word) != word:
                raise OracleInconsistent(f"gallery words {words_by_cell[k]} and {word} share the coset key {k}")
            cells[word] = k
        return cells[word]

    shortlex = functools.cache(lambda word: weyl.from_word(oracle.gcm, word).word)
    edge_set = set()
    frontier = [0]
    for _layer in range(radius):
        new_frontier = []
        for idx in frontier:
            c = chambers[idx]
            for node, node_moves in moves.items():
                gallery = c.word + (node,)
                word = shortlex(gallery)
                if len(word) < len(gallery):
                    continue
                panel = [idx]
                for pidx, mv in enumerate(node_moves):
                    target = oracle.mul(c.rep, mv)
                    params = c.params + (pidx,)
                    if word != gallery:
                        target_inv = oracle.inv(target)
                        for found in by_word.get(word, ()):
                            if oracle.in_borel(sign, oracle.mul(target_inv, chambers[found].rep)):
                                break
                        else:
                            raise OracleInconsistent(f"chamber {gallery}|{params} matches no chamber named by {word}")
                    else:
                        if key(target) != cell_of(word):
                            raise OracleInconsistent(
                                f"chamber {word}|{params} lies outside the cell of its gallery word"
                            )
                        found = len(chambers)
                        chambers.append(TwinChamber(sign, word, params, target))
                        by_word.setdefault(word, []).append(found)
                        new_frontier.append(found)
                        if len(chambers) > BUILDING_BALL_CAP:
                            raise OracleInconsistent(f"ball exceeded cap {BUILDING_BALL_CAP}")
                    panel.append(found)
                # chambers sharing a panel form a clique
                edge_set.update((a, b, node) for a in panel for b in panel if a < b)
        frontier = new_frontier
    panel_sizes = {node: len(node_moves) + 1 for node, node_moves in moves.items()}
    return ChamberGraph(sign, chambers, sorted(edge_set), panel_sizes)


def _certify_panel(oracle: GroupOracle, sign: int, node: int, moves):
    """The moves u s_hat across the node-panel of B_sign reach len(moves)
    pairwise distinct chambers other than B_sign; OracleInconsistent
    otherwise."""
    if any(oracle.in_borel(sign, mv) for mv in moves):
        raise OracleInconsistent(f"a move across the {node}-panel lies in B_{sign:+d}")
    for j, mv in enumerate(moves):
        mv_inv = oracle.inv(mv)
        if any(oracle.in_borel(sign, oracle.mul(mv_inv, other)) for other in moves[j + 1 :]):
            raise OracleInconsistent(f"two moves across the {node}-panel differ by an element of B_{sign:+d}")


def codistance(oracle: GroupOracle, cplus: TwinChamber, cminus: TwinChamber) -> WeylElement:
    """w with rep(c+)^{-1} rep(c-) in B_+ w B_-; chambers are opposite iff
    w is the identity."""
    if cplus.sign == cminus.sign:
        raise SameSign("codistance needs chambers of opposite signs")
    if cplus.sign < 0:
        cplus, cminus = cminus, cplus
    return oracle.birkhoff(oracle.mul(oracle.inv(cplus.rep), cminus.rep))


def export_graph(graph: ChamberGraph, fmt: str) -> str:
    if fmt == "json":
        return graph.to_json()
    if fmt == "dot":
        text = graph.to_dot()
        _validate_dot(text, graph)
        return text
    raise UnknownFormat(f"unknown graph format {fmt!r}")


def _validate_dot(text: str, graph: ChamberGraph):
    """Structural re-parse: node and edge counts must match the graph."""
    lines = [ln.strip() for ln in text.splitlines()]
    if not lines or not lines[0].startswith("digraph") or lines[-1] != "}":
        raise UnknownFormat("DOT emitter produced a malformed header")
    nodes = [ln for ln in lines if ln.startswith("n") and "[label=" in ln and "->" not in ln]
    edges = [ln for ln in lines if "->" in ln]
    if len(nodes) != len(graph.chambers) or len(edges) != len(graph.edges):
        raise UnknownFormat("DOT emitter lost nodes or edges")
