import pytest

from twinroot.errors import NotUnimodular, RankMismatch, UnknownFormat
from twinroot.fields import GF, FqElement, gf_of_order
from twinroot.laurent import LaurentMatrix, LaurentPoly, diagonal, elementary, matrix_from_json


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2)])
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


def test_fq_element_wrapper():
    f = GF(3, 2)
    x = f.element(5)
    assert x.coeffs == (2, 1)
    assert (x + (-x)).is_zero()
    assert (x * x.inv()).value == 1
    with pytest.raises(RankMismatch):
        FqElement(f, 99)


def test_poly_ring_ops():
    f = GF(3, 1)
    t = LaurentPoly.monomial(f, 1, 1)
    p = t + LaurentPoly.const(f, 2)
    q = LaurentPoly.monomial(f, -2, 1)
    assert (p * q).terms == ((-2, 2), (-1, 1))
    assert (p - p).is_zero()
    assert p.val == 0 and p.deg == 1
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
        assert g * g.inverse() == ident
        assert g.inverse() * g == ident


def test_matrix_json_round_trip():
    f = GF(3, 2)
    g = elementary(f, 3, 0, 2, LaurentPoly.of(f, {-1: 4, 2: 1}))
    assert matrix_from_json(f, g.to_json()) == g


@pytest.mark.parametrize(
    "entries, error",
    [
        ('[[[{"k": 0, "c": [1, 1]}], []], [[], [{"k": 0, "c": [1]}]]]', UnknownFormat),  # e = 1
        ('[[[{"k": 0, "c": [2]}], []], [[], [{"k": 0, "c": [1]}]]]', UnknownFormat),
        ('[[[{"k": 0, "c": [1]}], []]]', RankMismatch),
        ('[[[{"k": 0, "c": [1]}]], [[], [{"k": 0, "c": [1]}]]]', RankMismatch),
    ],
    ids=["too-many-digits", "digit-out-of-range", "missing-row", "short-row"],
)
def test_matrix_json_rejects_malformed_entries(entries, error):
    with pytest.raises(error):
        matrix_from_json(GF(2, 1), '{"n": 2, "entries": %s}' % entries)


def test_degree_window_span():
    f = GF(2, 1)
    g = diagonal(f, (LaurentPoly.monomial(f, 5, 1), LaurentPoly.monomial(f, -5, 1)))
    assert g.max_degree_span() == 5
