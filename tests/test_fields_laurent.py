import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinroot.errors import NotUnimodular, RankMismatch, UnknownFormat
from twinroot.fields import GF, gf_of_order
from twinroot.laurent import LaurentMatrix, LaurentPoly, diagonal, elementary, matrix_from_json

FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2)]
ORDERS = [p**e for p, e in FIELDS]


@pytest.mark.parametrize("p,e", FIELDS)
def test_field_axioms(p, e):
    f = GF(p, e)
    elems = list(f.elements())
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in elems:
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_fixes_exactly_prime_subfield(p):
    f = GF(p, 2)
    fixed = [a for a in f.elements() if f.frobenius(a) == a]
    assert fixed == list(range(p))
    for a in f.elements():
        for b in f.elements():
            assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))
            assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
    assert all(f.frobenius(f.frobenius(a)) == a for a in f.elements())


def test_trace_and_norm_land_in_subfield():
    for p in (2, 3, 5):
        f = GF(p, 2)
        for a in f.elements():
            assert f.trace(a) < p
            assert f.norm(a) < p
        assert len(f.trace_zero()) == p


def test_poly_ring_ops():
    f = GF(3, 1)
    t = LaurentPoly.monomial(f, 1, 1)
    p = t + LaurentPoly.const(f, 2)
    q = LaurentPoly.monomial(f, -2, 1)
    assert (p * q).terms == ((-2, 2), (-1, 1))
    assert (p - p).is_zero()
    assert p.terms[0][0] == 0 and p.terms[-1][0] == 1
    assert (p * LaurentPoly.one(f)) == p
    assert LaurentPoly.monomial(f, 4, 1).unit_inverse().terms == ((-4, 1),)
    with pytest.raises(NotUnimodular):
        p.unit_inverse()


def test_poly_bar():
    f = GF(2, 2)
    p = LaurentPoly.of(f, {0: 2, 3: 3})
    pb = p.bar()
    assert pb.coeff(0) == f.frobenius(2)
    assert pb.coeff(3) == f.frobenius(3)


def test_matrix_inverse_2x2_and_3x3(rng):
    for q, n in ((2, 2), (3, 2), (4, 3), (9, 3)):
        f = gf_of_order(q)
        ident = LaurentMatrix.identity(f, n)
        g = ident
        for _ in range(6):
            i, j = rng.sample(range(n), 2)
            g = g * elementary(f, n, i, j, LaurentPoly.monomial(f, rng.randint(-1, 1), rng.randrange(1, q)))
        assert g.det().is_one()
        # a unit determinant other than 1: a t^k
        a_tk = LaurentPoly.monomial(f, rng.choice((-2, -1, 1, 2)), rng.randrange(1, q))
        unit = (a_tk,) + (LaurentPoly.one(f),) * (n - 1)
        for h in (g, g * diagonal(f, unit)):
            assert h * h.inverse() == ident
            assert h.inverse() * h == ident
        with pytest.raises(NotUnimodular):
            (g * diagonal(f, (LaurentPoly.of(f, {0: 1, 1: 1}),) + unit[1:])).inverse()


def test_matrix_json_round_trip():
    f = GF(3, 2)
    g = elementary(f, 3, 0, 2, LaurentPoly.of(f, {-1: 4, 2: 5}))
    assert matrix_from_json(f, g.to_json()) == g
    # F_9 value 5 = c0 + 3 c1 is the element 2 + x: digits [2, 1]
    assert g.to_json_obj()["entries"][0][2][1] == {"k": 2, "c": [2, 1]}


@pytest.mark.parametrize(
    "entries, error",
    [
        ('[[[{"k": 0, "c": [1, 1]}], []], [[], [{"k": 0, "c": [1]}]]]', UnknownFormat),  # e = 1
        ('[[[{"k": 0, "c": [2]}], []], [[], [{"k": 0, "c": [1]}]]]', UnknownFormat),
        ('[[[{"k": 0, "c": [1]}], []]]', RankMismatch),
        ('[[[{"k": 0, "c": [1]}]], [[], [{"k": 0, "c": [1]}]]]', RankMismatch),
        ('[[[{"k": 0, "c": [1]}, {"k": 0, "c": [1]}], []], [[], [{"k": 0, "c": [1]}]]]', UnknownFormat),
        ('[[[{"k": 0}], []], [[], [{"k": 0, "c": [1]}]]]', UnknownFormat),
    ],
    ids=["too-many-digits", "digit-out-of-range", "missing-row", "short-row", "repeated-exponent", "no-digits"],
)
def test_matrix_json_rejects_malformed_entries(entries, error):
    with pytest.raises(error):
        matrix_from_json(GF(2, 1), '{"n": 2, "entries": %s}' % entries)


def test_degree_window_span():
    f = GF(2, 1)
    g = diagonal(f, (LaurentPoly.monomial(f, 5, 1), LaurentPoly.monomial(f, -5, 1)))
    assert g.max_degree_span() == 5


@pytest.mark.parametrize("p,e", FIELDS)
def test_add_neg_sub_tables_match_digit_formula(p, e):
    # value = c0 + c1 p encodes c0 + c1 x; sums and negatives go digitwise mod p
    f = GF(p, e)

    def encode(c0, c1):
        return c0 % p + (c1 % p) * p

    for a in f.elements():
        assert f.neg(a) == encode(-(a % p), -(a // p))
        for b in f.elements():
            assert f.add(a, b) == encode(a % p + b % p, a // p + b // p)
            assert f.sub(a, b) == encode(a % p - b % p, a // p - b // p)


# --- Laurent arithmetic against a dict-of-coefficients reference ------------------


def ref_add(x, y):
    f, acc = x.field, dict(x.terms)
    for e, v in y.terms:
        s = f.add(acc.get(e, 0), v)
        if s:
            acc[e] = s
        elif e in acc:
            del acc[e]
    return LaurentPoly(f, tuple(sorted(acc.items())))


def ref_mul(x, y):
    f, acc = x.field, {}
    for e1, v1 in x.terms:
        for e2, v2 in y.terms:
            e = e1 + e2
            s = f.add(acc.get(e, 0), f.mul(v1, v2))
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
    return LaurentPoly(f, tuple(sorted(acc.items())))


def ref_matmul(a, b):
    """Schoolbook product, entry by entry: acc = acc + a_ik * b_kj."""
    n, f = a.n, a.field
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = LaurentPoly.zero(f)
            for k in range(n):
                if a.rows[i][k].terms and b.rows[k][j].terms:
                    acc = ref_add(acc, ref_mul(a.rows[i][k], b.rows[k][j]))
            row.append(acc)
        rows.append(tuple(row))
    return LaurentMatrix(f, n, tuple(rows))


def polys(f, count):
    coeffs = st.dictionaries(st.integers(-4, 4), st.integers(0, f.q - 1), max_size=5)
    return st.lists(coeffs.map(lambda m: LaurentPoly.of(f, m)), min_size=count, max_size=count)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_laurent_ring_laws(data):
    f = gf_of_order(data.draw(st.sampled_from(ORDERS)))
    a, b, c = data.draw(polys(f, 3))
    zero = LaurentPoly.zero(f)
    assert a * b == ref_mul(a, b) and a + b == ref_add(a, b)
    assert a - b == ref_add(a, -b)
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + (-a) == zero and a - a == zero and a + zero == a
    k, v = data.draw(st.integers(-3, 3)), data.draw(st.integers(0, f.q - 1))
    t_kv = LaurentPoly.monomial(f, k, v)
    assert a.shift(k).scale(v) == a * t_kv == a.scale(v).shift(k)
    assert (a * b).shift(k) == a.shift(k) * b
    assert (a * b).scale(v) == a.scale(v) * b


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_minus_times_is_the_fused_reduction_step(data):
    # the reduction step of LoopGroup._reduce_profile: target - c * t^s * gen
    f = gf_of_order(data.draw(st.sampled_from(ORDERS)))
    tp, gp = data.draw(polys(f, 2))
    s, c = data.draw(st.integers(-3, 3)), data.draw(st.integers(0, f.q - 1))
    assert tp.minus_times(c, s, gp) == tp - gp.shift(s).scale(c)
    assert gp.minus_times(1, 0, gp).is_zero()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_matrix_product_matches_schoolbook_reference(data):
    f = gf_of_order(data.draw(st.sampled_from(ORDERS)))
    n = data.draw(st.integers(1, 3))
    a, b = (
        LaurentMatrix(f, n, tuple(tuple(data.draw(polys(f, n))) for _ in range(n))) for _ in range(2)
    )
    assert a * b == ref_matmul(a, b)


def test_arithmetic_rejects_mixed_fields():
    x, y = LaurentPoly.one(GF(2, 1)), LaurentPoly.one(GF(3, 1))
    for op in (x.__add__, x.__sub__, x.__mul__):
        with pytest.raises(RankMismatch):
            op(y)
    with pytest.raises(RankMismatch):
        LaurentMatrix.identity(GF(2, 1), 2) * LaurentMatrix.identity(GF(3, 1), 2)


def leibniz_det(m):
    """Sum over permutations of sign * product of entries, from LaurentPoly * and +."""
    f, n = m.field, m.n
    total = LaurentPoly.zero(f)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = LaurentPoly.one(f) if inversions % 2 == 0 else -LaurentPoly.one(f)
        for i in range(n):
            term = term * m.rows[i][perm[i]]
        total = total + term
    return total


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_det_and_adjugate_match_leibniz_for_every_size(data):
    f = gf_of_order(data.draw(st.sampled_from(ORDERS)))
    n = data.draw(st.integers(1, 4))
    m = LaurentMatrix(f, n, tuple(tuple(data.draw(polys(f, n))) for _ in range(n)))
    d = m.det()
    assert d == leibniz_det(m)
    det_identity = diagonal(f, (d,) * n)
    assert m * m.adjugate() == det_identity == m.adjugate() * m
    if d.is_monomial():
        assert m * m.inverse() == LaurentMatrix.identity(f, n)
    else:
        with pytest.raises(NotUnimodular):
            m.inverse()
