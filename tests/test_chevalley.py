import itertools
import math
import random

import pytest

from twinroot import weyl
from twinroot.chevalley import WINDOW, LoopGroup, loop_group
from twinroot.descent import su3_datum
from twinroot.errors import (
    BadRoot,
    DegreeWindowExceeded,
    NotUnimodular,
    OracleInconsistent,
    RankMismatch,
    TrivialElement,
)
from twinroot.fields import GF
from twinroot.laurent import LaurentMatrix, LaurentPoly, diagonal, matrix_from_json

from conftest import probing_bruhat_cell

# the groups whose radius-6 Weyl balls the pattern reader is checked on
PATTERN_GROUPS = ((2, 2), (3, 2), (4, 2), (2, 3), (4, 3))


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
    assert G.in_borel(1, out)
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
    assert G.in_borel(-1, out)
    return out


def test_root_group_element_basics():
    G = loop_group(2, 2)
    assert G.root_group_element((0, 1, 0), 0) == G.identity()
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
        assert not p.is_zero() and p.is_monomial() and p.terms[0][0] == tk


def test_bruhat_identity_and_reflection():
    G = loop_group(2, 2)
    w, b1, b2 = G.bruhat_cell(G.identity())
    assert w.word == () and b1 == b2 == G.identity()
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
            if g.max_degree_span() > WINDOW:
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
            if g.max_degree_span() > WINDOW:
                continue
            assert G.birkhoff_cell(g) == w


def test_birkhoff_examples():
    G = loop_group(2, 2)
    assert G.birkhoff_cell(G.identity()).word == ()
    assert G.birkhoff_cell(G.root_group_element((1, 0, 1), 1)).word == ()
    assert G.birkhoff_cell(G._canonical_s(1)).word == (1,)


def test_bruhat_round_trip_and_order_independence(rng):
    # the probing reference, in a shuffled probe order, finds the same factors
    G = loop_group(2, 2)
    for _ in range(60):
        g = G.random_element(rng, steps=5)
        w, b1, b2 = G.bruhat_cell(g)
        assert b1 * G.canonical_representative(w) * b2 == g
        assert G.in_borel(1, b1) and G.in_borel(1, b2)
        w2, c1, c2 = probing_bruhat_cell(G, g, random.Random(rng.randrange(10**6)))
        assert (w2.word, c1, c2) == (w.word, b1, b2)


@pytest.mark.parametrize("q,n", [(2, 4), (3, 4), (2, 5)])
def test_bruhat_round_trips_beyond_sl3(q, n):
    G = loop_group(q, n)
    rng = random.Random(f"bruhat-sl{n}/{q}")
    for _ in range(30):
        g = G.random_element(rng, steps=5)
        w, b1, b2 = G.bruhat_cell(g)
        assert b1 * G.canonical_representative(w) * b2 == g
        assert G.in_borel(1, b1) and G.in_borel(1, b2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_affine_cartan_matrix_of_every_rank(n):
    # the cyclic affine A_(n-1): not of finite type, and nodes 1..n-1 span the
    # finite Weyl group S_n
    A = loop_group(2, n).gcm
    assert not weyl.is_finite(A)
    assert weyl.group_order(A.submatrix(tuple(range(1, n)))) == math.factorial(n)
    assert all(sum(row) == 0 for row in A.a)  # delta = (1, ..., 1) is imaginary


def test_loop_groups_need_rank_two():
    for n in (0, 1):
        with pytest.raises(RankMismatch):
            LoopGroup(GF(2), n)


def mirror_loops_in_borel(G, sign, g):
    """The two mirror-image Borel tests in_borel replaced."""
    for i in range(G.n):
        for j in range(G.n):
            p = g.entry(i, j)
            if sign > 0 and (not p.is_zero() and p.terms[0][0] < 0 or i > j and p.coeff(0) != 0):
                return False
            if sign < 0 and (not p.is_zero() and p.terms[-1][0] > 0 or i < j and p.coeff(0) != 0):
                return False
    return True


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 3), (2, 4)])
def test_in_borel_matches_the_mirror_loops(q, n):
    G = loop_group(q, n)
    rng = random.Random(f"borel/{q}/{n}")
    seen = set()
    for _ in range(40):
        for g in (random_iwahori(G, rng), random_negative_borel(G, rng), G.random_element(rng, steps=3)):
            for sign in (1, -1):
                got = G.in_borel(sign, g)
                assert got == mirror_loops_in_borel(G, sign, g)
                seen.add((sign, got))
    assert seen == {(1, True), (1, False), (-1, True), (-1, False)}


@pytest.mark.parametrize("q,n", [(3, 2), (2, 3), (2, 4)])
def test_theta_swaps_the_borels_and_keys_negative_cosets(q, n):
    # theta(g) = J g(t^-1) J is an involutive automorphism with
    # theta(B_-) = B_+, so bruhat_key(-1, .) is constant on each coset g B_-
    G = loop_group(q, n)
    rng = random.Random(f"theta/{q}/{n}")
    seen, keyed = set(), 0
    for _ in range(30):
        g, h = G.random_element(rng, steps=4), G.random_element(rng, steps=4)
        assert G.theta(G.theta(g)) == g
        assert G.theta(g * h) == G.theta(g) * G.theta(h)
        for x in (g, random_negative_borel(G, rng), random_iwahori(G, rng)):
            got = G.in_borel(-1, x)
            assert got == G.in_borel(1, G.theta(x))
            seen.add(got)
        gb = g * random_negative_borel(G, rng)
        if gb.max_degree_span() <= WINDOW:
            assert G.bruhat_key(-1, gb) == G.bruhat_key(-1, g)
            keyed += 1
    assert seen == {True, False} and keyed >= 20


@pytest.mark.parametrize(
    "q,n", [(2, 2), (3, 2), (4, 2), (5, 2), (9, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (2, 5)]
)
def test_bruhat_cell_matches_uncached_probes(q, n):
    # the reference probes each parameter, shuffled or in field order; inputs
    # with Iwahori factors on both sides reach longer and denser cells
    G = loop_group(q, n)
    rng = random.Random(f"bruhat-probes/{q}/{n}")
    inputs = []
    while len(inputs) < 24:
        g = G.random_element(rng, steps=6 if n == 2 else 5)
        moved = random_iwahori(G, rng) * g * random_iwahori(G, rng)
        inputs += [g] + [moved] * (moved.max_degree_span() <= WINDOW)
    for g in inputs:
        order_seed = rng.randrange(10**6)
        got = G.bruhat_cell(g)
        for shuffle in (None, random.Random(order_seed)):
            ref = probing_bruhat_cell(G, g, shuffle)
            assert (got[0].word, got[1], got[2]) == (ref[0].word, ref[1], ref[2])


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (9, 2), (2, 3), (4, 3)])
def test_bruhat_cell_raises_on_a_wrong_parameter(q, n, monkeypatch):
    # negative control: peeling x_i(r + 1) instead of x_i(r) leaves the
    # remainder in the cell it started in, for every element off B
    G = LoopGroup(loop_group(q, n).field, n)
    right = G._peel_factor
    monkeypatch.setattr(G, "_peel_factor", lambda i, r: right(i, G.field.add(r, 1)))
    rng = random.Random(f"wrong-parameter/{q}/{n}")
    raised = 0
    for _ in range(30):
        g = G.random_element(rng, steps=6 if n == 2 else 5)
        if G.bruhat_weyl(g).length == 0:
            assert G.bruhat_cell(g)[0].word == ()
            continue
        with pytest.raises(OracleInconsistent):
            G.bruhat_cell(g)
        raised += 1
    assert raised >= 20


@pytest.mark.parametrize("q,n", [(2, 2), (9, 2), (2, 3), (4, 3), (3, 4)])
def test_bruhat_cell_runs_one_reduction_per_letter(q, n, monkeypatch):
    # cost guard: at most l(w) + 1 flag reductions, whatever q is
    G = LoopGroup(loop_group(q, n).field, n)
    counted = G._reduce_profile
    calls = []

    def reduce_profile(columns, down):
        calls.append(down)
        return counted(columns, down)

    monkeypatch.setattr(G, "_reduce_profile", reduce_profile)
    rng = random.Random(f"reductions/{q}/{n}")
    for _ in range(15):
        g = G.random_element(rng, steps=6 if n == 2 else 5)
        calls.clear()
        w = G.bruhat_cell(g)[0]
        assert 1 <= len(calls) <= w.length + 1


def test_degree_window_guard():
    G = loop_group(2, 2)
    f = G.field
    d = diagonal(f, (LaurentPoly.monomial(f, WINDOW + 1, 1), LaurentPoly.monomial(f, -WINDOW - 1, 1)))
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


def reference_weyl_from_monomial(G, m):
    """Weyl element of a monomial matrix read off by Laurent conjugation:
    m and m^-1 conjugate each simple root group to a root group, whose root
    is the one nonzero off-diagonal entry."""
    m_inv = m.inverse()

    def conjugate_root(a, a_inv, root):
        conj = a * G.root_group_element(root, 1) * a_inv
        found = None
        for i in range(G.n):
            for j in range(G.n):
                p = conj.entry(i, j)
                if i == j or p.is_zero():
                    continue
                if found is not None or not p.is_monomial():
                    raise OracleInconsistent("conjugate of a root element is not a root element")
                found = (i, j, p.terms[0][0])
        if found is None:
            raise OracleInconsistent("conjugate of a root element is trivial")
        return found

    def action(a, a_inv):
        cols = [G.root_vector(conjugate_root(a, a_inv, root)) for root in G.simple_roots]
        return tuple(tuple(col[r] for col in cols) for r in range(G.n))

    w = weyl.element_of_action(G.gcm, action(m, m_inv), action(m_inv, m))
    if w is None:
        raise OracleInconsistent("monomial matrix does not act as a Weyl element")
    return w


def reference_cell(G, g, down):
    """Cell of g through a pattern matrix: jump d of the k-th column (the
    columns reversed for B_-) puts t^((i - d)/n) at row i = d mod n."""
    n, f = G.n, G.field
    order = list(range(n)) if down else list(range(n - 1, -1, -1))
    profile = G._reduce_profile([[g.entry(i, k) for i in range(n)] for k in order], down)
    rows = [[LaurentPoly.zero(f)] * n for _ in range(n)]
    for k, (d, _v) in zip(order, profile):
        rows[d % n][k] = LaurentPoly.monomial(f, (d % n - d) // n, 1)
    return reference_weyl_from_monomial(G, LaurentMatrix(f, n, tuple(map(tuple, rows))))


def _reference_profile(G, columns, down):
    """Per-k reference for LoopGroup._reduce_profile: for each k, echelon
    c_0..c_(k-1) and t^(+-1) c_k..c_(n-1) from scratch (restarting after
    each kill), then reduce c_k against them; one kill is
    target - c t^s gen by shift, scale and subtraction."""
    n, f = G.n, G.field
    shift = 1 if down else -1

    def kill(target, td, gen, gd):
        i = td % n
        te, ge = (i - td) // n, (i - gd) // n
        factor = f.mul(target[i].coeff(te), f.inv(gen[i].coeff(ge)))
        return [tp - gp.shift(te - ge).scale(factor) for tp, gp in zip(target, gen)]

    out = []
    for k in range(n):
        gens = [list(columns[j]) for j in range(k)] + [[p.shift(shift) for p in columns[j]] for j in range(k, n)]
        leads = [G._fmax(gen, n) for gen in gens]
        changed = True
        while changed:
            changed = False
            by_class = {}
            for gi, d in enumerate(leads):
                oi = by_class.setdefault(d % n, gi)
                if oi == gi:
                    continue
                # kill the smaller lead (down) / the larger one (up)
                tgt, src = (gi, oi) if (d <= leads[oi]) == down else (oi, gi)
                gens[tgt] = kill(gens[tgt], leads[tgt], gens[src], leads[src])
                leads[tgt] = G._fmax(gens[tgt], n)
                changed = True
                break
        lead_of_class = {d % n: (d, gen) for d, gen in zip(leads, gens)}
        v = list(columns[k])
        while True:
            d = G._fmax(v, n)
            gd, gen = lead_of_class[d % n]
            if (gd < d) if down else (gd > d):
                break
            v = kill(v, d, gen, gd)
        out.append(d)
    return out


PROFILE_GROUPS = {
    "SL2(F_2)": lambda: loop_group(2, 2),
    "SL2(F_3)": lambda: loop_group(3, 2),
    "SL2(F_4)": lambda: loop_group(4, 2),
    "SL2(F_9)": lambda: loop_group(9, 2),
    "SL3(F_2)": lambda: loop_group(2, 3),
    "SL3(F_4)": lambda: loop_group(4, 3),
    "SU3(F_2)-ambient": lambda: su3_datum(2).ambient,
}


@pytest.mark.parametrize("name", list(PROFILE_GROUPS))
def test_reduce_profile_matches_per_k_reference(name):
    G = PROFILE_GROUPS[name]()
    n = G.n
    rng = random.Random(700 + list(PROFILE_GROUPS).index(name))
    for _ in range(40):
        # Iwahori factors on both sides widen the degree spans of the columns
        g = random_iwahori(G, rng) * G.random_element(rng, steps=8) * random_iwahori(G, rng)
        for order, down in ((range(n), True), (range(n - 1, -1, -1), False)):
            columns = [[g.entry(i, k) for i in range(n)] for k in order]
            leads = [d for d, _v in G._reduce_profile(columns, down)]
            assert leads == _reference_profile(G, columns, down)


def torus_translations(G):
    """Torus elements with nonzero t-exponents, scaled by the last unit of
    the field (a nontrivial coefficient when q > 2)."""
    f = G.field
    a = f.units()[-1]
    mono = lambda e, c: LaurentPoly.monomial(f, e, c)
    if G.n == 2:
        return [diagonal(f, (mono(e, a), mono(-e, f.inv(a)))) for e in (1, -2)]
    return [
        diagonal(f, (mono(1, a), mono(0, 1), mono(-1, f.inv(a)))),
        diagonal(f, (mono(-1, 1), mono(2, a), mono(-1, f.inv(a)))),
    ]


def test_weyl_from_monomial_consistency():
    for q, n in PATTERN_GROUPS:
        G = loop_group(q, n)
        for w in weyl.enumerate_ball(G.gcm, 6):
            assert G.bruhat_weyl(G.canonical_representative(w)) == w


@pytest.mark.parametrize("q,n", PATTERN_GROUPS)
def test_pattern_reader_matches_conjugation_reference(q, n):
    G = loop_group(q, n)
    for w in weyl.enumerate_ball(G.gcm, 6):
        rep = G.canonical_representative(w)
        for m in [rep] + [rep * h for h in torus_translations(G)]:
            got, want = G.bruhat_weyl(m), reference_weyl_from_monomial(G, m)
            assert (got.word, got.mat, got.inv) == (want.word, want.mat, want.inv)


@pytest.mark.parametrize("q,n", PATTERN_GROUPS)
def test_cells_match_pattern_matrix_reference(q, n):
    G = loop_group(q, n)
    rng = random.Random(400 + 10 * q + n)
    for _ in range(25):
        g = G.random_element(rng, steps=10)
        for got, down in ((G.bruhat_weyl(g), True), (G.birkhoff_cell(g), False)):
            want = reference_cell(G, g, down)
            assert (got.word, got.mat, got.inv) == (want.word, want.mat, want.inv)


def test_pattern_reader_edge_cases():
    G = loop_group(2, 2)
    f = G.field
    one, zero, t = LaurentPoly.one(f), LaurentPoly.zero(f), LaurentPoly.monomial(f, 1, 1)
    # extended affine, not in W: its pattern (column j is a unit times
    # t^(e_j) e_(pi(j))) and the matrix itself
    with pytest.raises(OracleInconsistent):
        G._weyl_of_pattern(((1, 1), (0, 0)))
    with pytest.raises(OracleInconsistent):
        reference_weyl_from_monomial(G, LaurentMatrix(f, 2, ((zero, one), (t, zero))))
    translation = diagonal(f, (t, LaurentPoly.monomial(f, -1, 1)))
    for read in (G.bruhat_weyl, lambda m: reference_weyl_from_monomial(G, m)):
        assert read(translation) == weyl.from_word(G.gcm, (1, 0))
    # rows that do not form a permutation
    for not_permutation in (((0, 0), (0, 0)), ((1, 0), (1, 2))):
        with pytest.raises(OracleInconsistent):
            G._weyl_of_pattern(not_permutation)


def test_affine_root_positivity_convention():
    # I + r t^k E_ij is positive iff k > 0 or (k = 0 and i < j), matching
    # the sign of the root-lattice vector
    G = loop_group(2, 3)
    from twinroot.weyl import root_sign

    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for k in (-2, -1, 0, 1, 2):
                assert (root_sign(G.root_vector((i, j, k))) > 0) == (k > 0 or (k == 0 and i < j))


@pytest.mark.parametrize("n", [2, 3])
def test_vector_to_root_round_trip(n):
    """vector_to_root inverts root_vector on every root of level -4..4 and
    rejects every other vector of [-3, 3]^n."""
    G = loop_group(2, n)
    real = {
        G.root_vector((i, j, k)): (i, j, k)
        for i in range(n) for j in range(n) if i != j for k in range(-4, 5)
    }
    for v, root in real.items():
        assert G.vector_to_root(v) == root
    for v in itertools.product(range(-3, 4), repeat=n):
        if v not in real:
            with pytest.raises(BadRoot):
                G.vector_to_root(v)


def test_borel_elements_sit_in_the_identity_cell(rng):
    for q, n in ((2, 2), (2, 3)):
        G = loop_group(q, n)
        local = random.Random(300 + q + n)
        for _ in range(20):
            b = random_iwahori(G, local)
            assert G.bruhat_weyl(b).word == ()
            bm = random_negative_borel(G, local)
            assert G.birkhoff_cell(bm).word == ()


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
