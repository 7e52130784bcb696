import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinroot import gcm
from twinroot.errors import DiagonalNotTwo, GcmError, PositiveOffDiagonal, RankMismatch, ZeroAsymmetry

from conftest import FINITE_GCMS, TEST_GCMS


def det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(minor)
    return total


def test_validate_rank_one():
    A = gcm.validate_gcm([[2]])
    assert A.n == 1


def test_validate_a2():
    A = gcm.validate_gcm([[2, -1], [-1, 2]])
    assert A.a == ((2, -1), (-1, 2))


def test_validate_rejections():
    with pytest.raises(DiagonalNotTwo):
        gcm.validate_gcm([[1]])
    with pytest.raises(PositiveOffDiagonal):
        gcm.validate_gcm([[2, 1], [-1, 2]])
    with pytest.raises(ZeroAsymmetry) as err:
        gcm.validate_gcm([[2, -1], [0, 2]])
    assert err.value.indices in ((0, 1), (1, 0))
    with pytest.raises(RankMismatch):
        gcm.validate_gcm([[2, -1]])


def test_simply_connected_a2():
    D = gcm.simply_connected_datum(gcm.A2)
    assert D.c[0] == (2, -1)
    assert D.h[0] == (1, 0)
    assert D.pairing(0, 0) == 2
    assert D.pairing(1, 0) == -1


def test_simply_connected_rank_one():
    D = gcm.simply_connected_datum(gcm.validate_gcm([[2]]))
    assert D.c[0] == (2,)
    assert D.h[0] == (1,)


def test_minimal_adjoint():
    D = gcm.minimal_adjoint_datum(gcm.A2)
    assert D.h[0] == (2, -1)
    assert D.c[0] == (1, 0)
    D1 = gcm.minimal_adjoint_datum(gcm.validate_gcm([[2]]))
    assert D1.c[0] == (1,) and D1.h[0] == (2,)
    Daff = gcm.minimal_adjoint_datum(gcm.AFFINE_A1)
    assert Daff.h[0] == (2, -2)


def test_pairing_exhaustive():
    for A in TEST_GCMS.values():
        for D in (gcm.simply_connected_datum(A), gcm.minimal_adjoint_datum(A)):
            for i in range(A.n):
                for j in range(A.n):
                    assert D.pairing(i, j) == A.a[i][j]


def test_dual_is_involution():
    for A in TEST_GCMS.values():
        D = gcm.simply_connected_datum(A)
        assert gcm.dual_datum(gcm.dual_datum(D)) == D


def test_dual_transposes():
    D = gcm.simply_connected_datum(gcm.B2)
    Dt = gcm.dual_datum(D)
    assert Dt.gcm.a == ((2, -2), (-1, 2))
    for i in range(2):
        for j in range(2):
            assert Dt.pairing(i, j) == gcm.B2.a[j][i]


def test_sc_family_determinant():
    # the base (c_i) of the simply connected datum spans a sublattice of
    # index |det A|; its matrix determinant equals det(A)
    for A in FINITE_GCMS.values():
        D = gcm.simply_connected_datum(A)
        c_matrix = [list(v) for v in D.c]
        assert det(c_matrix) == det([list(r) for r in A.a]) != 0


def test_non_free_families_stored_verbatim():
    # a datum whose roots are neither free nor generating is kept as given,
    # only the pairing is enforced
    A1 = gcm.validate_gcm([[2]])
    D = gcm.KacMoodyRootDatum(A1, 2, ((2, 0),), ((1, 0),))
    assert D.c == ((2, 0),) and D.m == 2
    with pytest.raises(gcm.PairingMismatch):
        gcm.KacMoodyRootDatum(A1, 2, ((1, 0),), ((1, 1),))


def test_json_round_trip():
    D = gcm.simply_connected_datum(gcm.G2)
    assert gcm.datum_from_json(D.to_json()) == D
    A = gcm.gcm_from_json(gcm.AFFINE_A2.to_json())
    assert A == gcm.AFFINE_A2


_A1 = {"gcm": {"n": 1, "a": [[2]]}, "m": 1, "c": [[2]], "h": [[1]]}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(["a", "n", "m"]), kids, max_size=3),
    max_leaves=8,
)
_MALFORMED_DATA = [
    "[1]",
    json.dumps({**_A1, "h": 5}),
    json.dumps({k: v for k, v in _A1.items() if k != "gcm"}),
    json.dumps({**_A1, "m": 1.7, "c": [[2.9]]}),
]


@st.composite
def _mutated_datum_json(draw):
    """The A1 datum with one field replaced, dropped, or the whole text replaced."""
    key = draw(st.sampled_from(["gcm", "m", "c", "h", None]))
    if key is None:
        return json.dumps(draw(_JSON))
    data = dict(_A1)
    if draw(st.booleans()):
        del data[key]
    else:
        data[key] = draw(_JSON)
    return json.dumps(data)


@pytest.mark.parametrize("text", _MALFORMED_DATA, ids=["not-an-object", "h-not-rows", "no-gcm", "float-m-and-c"])
def test_datum_from_json_rejects_malformed_text(text):
    with pytest.raises(GcmError):
        gcm.datum_from_json(text)


@settings(max_examples=150, deadline=None)
@example(_MALFORMED_DATA[0])
@example(_MALFORMED_DATA[1])
@example(_MALFORMED_DATA[2])
@example(_MALFORMED_DATA[3])
@given(_mutated_datum_json())
def test_datum_from_json_returns_a_datum_or_a_typed_error(text):
    try:
        D = gcm.datum_from_json(text)
    except (GcmError, RankMismatch):
        return
    assert gcm.datum_from_json(D.to_json()) == D
