import random

import pytest

from twinroot import gcm, trd
from twinroot.chevalley import loop_group
from twinroot.errors import OracleInconsistent
from twinroot.laurent import LaurentMatrix, LaurentPoly, diagonal

TEST_GCMS = {
    "A2": gcm.A2,
    "B2": gcm.B2,
    "G2": gcm.G2,
    "affine_A1": gcm.AFFINE_A1,
    "affine_A2": gcm.AFFINE_A2,
}

FINITE_GCMS = {k: TEST_GCMS[k] for k in ("A2", "B2", "G2")}


def subfield_basis():
    """SL_2(F_9) and the RSD basis of its F_3 points: the F_3 torus and the
    F_3 lines of the two simple root groups."""
    G9 = loop_group(9, 2)
    f9 = G9.field
    sub = [a for a in f9.elements() if f9.frobenius(a) == a]

    def torus_test(g):
        return G9.is_torus(g) and all(f9.frobenius(v) == v for i in range(2) for _, v in g.entry(i, i).terms)

    torus = [diagonal(f9, (LaurentPoly.const(f9, c), LaurentPoly.const(f9, f9.inv(c)))) for c in sub if c]
    e_groups = {node: [G9.u(node, r) for r in sub] for node in (0, 1)}
    return G9, trd.RsdBasis("subfield-F3", torus, torus_test, e_groups)


def to_f3(g):
    """An SL_2(F_9) matrix with F_3 entries, read over F_3 (the prime field
    is 0..2 in both encodings)."""
    f9, f3 = loop_group(9, 2).field, loop_group(3, 2).field
    rows = []
    for i in range(2):
        terms = [g.entry(i, j).terms for j in range(2)]
        assert all(f9.frobenius(v) == v for t in terms for _, v in t)
        rows.append(tuple(LaurentPoly(f3, t) for t in terms))
    return LaurentMatrix(f3, 2, tuple(rows))


def probing_bruhat_cell(G, g, rng=None):
    """Reference for LoopGroup.bruhat_cell that finds each letter's
    parameter by trial: it tries r over F_q (shuffled by rng, when given)
    until s_i^-1 x_i(-r) rest, formed anew, lies in the cell of the rest of
    the word, and accumulates b1 letter by letter as the product of the
    conjugates prefix x_i(r) prefix^-1."""
    w = G.bruhat_weyl(g)
    f = G.field
    rest, b1 = g, G.identity()
    prefix = prefix_inv = G.identity()
    for pos, i in enumerate(w.word):
        s_inv = G._canonical_s(i).inverse()
        params = list(f.elements())
        if rng is not None:
            rng.shuffle(params)
        for r in params:
            cand = s_inv * G.root_group_element(G.simple_roots[i], f.neg(r)) * rest
            if G._cell(cand, True)[0].word == w.word[pos + 1 :]:
                break
        else:
            raise OracleInconsistent("descent peeling failed to shorten the cell")
        rest = cand
        b1 = b1 * prefix * G.root_group_element(G.simple_roots[i], r) * prefix_inv
        prefix, prefix_inv = prefix * G._canonical_s(i), s_inv * prefix_inv
    return w, b1, rest


@pytest.fixture
def rng():
    return random.Random(20240811)


def cartan(n, bonds):
    """GCM of rank n with a[i][j] = -1 and a[j][i] = -k for each bond (i, j, k)."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, k in bonds:
        a[i][j], a[j][i] = -1, -k
    return gcm.validate_gcm(a)


def _path(n):
    return [(i, i + 1, 1) for i in range(n - 1)]


# Finite types beyond rank 2 (Bourbaki numbering, 0-based) and two
# infinite ones: H3 glues A2 to affine A1, K4 is the rank-4 triangle group.
LARGER_GCMS = {
    "A6": cartan(6, _path(6)),
    "A7": cartan(7, _path(7)),
    "B5": cartan(5, _path(4) + [(3, 4, 2)]),
    "E6": cartan(6, [(0, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (1, 3, 1)]),
    "E8": cartan(8, [(0, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1), (6, 7, 1), (1, 3, 1)]),
    "H3": gcm.validate_gcm([[2, -1, 0], [-1, 2, -2], [0, -2, 2]]),
    "K4": gcm.validate_gcm([[2 if i == j else -1 for j in range(4)] for i in range(4)]),
}


def fraction_farkas_empty(deltas):
    """Farkas test of the scan reference: Gauss-Jordan elimination over
    Fraction, each pivot row divided by its pivot, and the kernel vector of
    each free column read off the reduced rows.  Only these basic vectors
    are tried, unlike roots._farkas_empty; on three real roots the two agree
    (a kernel of dimension >= 2 means rank 1, where the basic test is
    complete)."""
    from fractions import Fraction

    k, n = len(deltas), len(deltas[0])
    rows = [[Fraction(deltas[j][i]) for j in range(k)] for i in range(n)]
    pivots = []
    r = 0
    for c in range(k):
        pivot = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for fc in (c for c in range(k) if c not in pivots):
        sol = [Fraction(0)] * k
        sol[fc] = Fraction(1)
        for rr, pc in enumerate(pivots):
            sol[pc] = -rows[rr][fc]
        if all(x >= 0 for x in sol) or all(x <= 0 for x in sol):
            return True
    return False
