import itertools
import math

import pytest

from twinroot import gcm, weyl
from twinroot.errors import ExplosionGuard, IndexOutOfRange

from conftest import LARGER_GCMS, TEST_GCMS, cartan


def brute_group(A, radius=12):
    """Independent oracle: close the set of action matrices under the
    generators, remembering a shortest word per element."""
    gens = [weyl.simple_reflection_action(A, i) for i in range(A.n)]
    ident = weyl.identity_matrix(A.n)
    table = {ident: ()}
    frontier = [ident]
    for _ in range(radius):
        nxt = []
        for m in frontier:
            for i, g in enumerate(gens):
                prod = weyl.mat_mul(m, g)
                if prod not in table:
                    table[prod] = table[m] + (i,)
                    nxt.append(prod)
        frontier = nxt
    return table


def test_coxeter_table():
    cm = weyl.coxeter_matrix(gcm.A2)
    assert cm.m[0][1] == 3 and cm.m[0][0] == 1
    assert weyl.coxeter_matrix(gcm.B2).m[0][1] == 4
    assert weyl.coxeter_matrix(gcm.G2).m[0][1] == 6
    assert weyl.coxeter_matrix(gcm.AFFINE_A1).m[0][1] == weyl.INF


def test_coxeter_table_exhaustive_rank2():
    # the full map a_ij a_ji in {0,1,2,3,>=4} -> {2,3,4,6,inf}
    expected = {0: 2, 1: 3, 2: 4, 3: 6}
    for x in range(0, 5):
        for y in range(0, 5):
            if (x == 0) != (y == 0):
                continue
            A = gcm.validate_gcm([[2, -x], [-y, 2]])
            m = weyl.coxeter_matrix(A).m[0][1]
            assert m == expected.get(x * y, weyl.INF)


def test_simple_reflection_action():
    for A in TEST_GCMS.values():
        for i in range(A.n):
            s = weyl.simple_reflection_action(A, i)
            v_i = tuple(1 if k == i else 0 for k in range(A.n))
            assert weyl.mat_vec(s, v_i) == tuple(-x for x in v_i)
            assert weyl.mat_mul(s, s) == weyl.identity_matrix(A.n)
    s0 = weyl.simple_reflection_action(gcm.A2, 0)
    assert weyl.mat_vec(s0, (0, 1)) == (1, 1)  # s_0(v_1) = v_1 + v_0
    s1 = weyl.simple_reflection_action(gcm.B2, 1)
    assert weyl.mat_vec(s1, (1, 0)) == (1, 2)  # s_1(v_0) = v_0 + 2 v_1
    with pytest.raises(IndexOutOfRange):
        weyl.simple_reflection_action(gcm.A2, 2)


def test_braid_orders():
    for A in TEST_GCMS.values():
        cm = weyl.coxeter_matrix(A)
        for i in range(A.n):
            for j in range(A.n):
                if i == j:
                    continue
                prod = weyl.mat_mul(
                    weyl.simple_reflection_action(A, i), weyl.simple_reflection_action(A, j)
                )
                order = weyl.matrix_order(prod)
                assert order == cm.m[i][j]
                if cm.m[i][j] == weyl.INF:
                    power = prod
                    for _ in range(50):
                        assert power != weyl.identity_matrix(A.n)
                        power = weyl.mat_mul(power, prod)


def test_coxeter_element_orders():
    # s_0 ... s_(n-1) has order n + 1 in A_n (an (n+1)-cycle of S_(n+1)),
    # infinite order in affine A2
    for n in range(1, 8):
        c = weyl.from_word(cartan(n, [(i, i + 1, 1) for i in range(n - 1)]), tuple(range(n)))
        assert weyl.matrix_order(c.mat) == n + 1
    assert weyl.matrix_order(weyl.from_word(gcm.AFFINE_A2, (0, 1, 2)).mat) == weyl.INF


def test_multiply_against_brute_force_a2():
    # s0 s1 s0 = s1 s0 s1 in the order-6 group
    w1 = weyl.from_word(gcm.A2, (0, 1, 0))
    w2 = weyl.from_word(gcm.A2, (1, 0, 1))
    assert w1 == w2
    assert w1.word == (0, 1, 0)
    table = brute_group(gcm.A2)
    assert len(table) == 6
    for mat, word in table.items():
        assert weyl.from_word(gcm.A2, word).mat == mat


def test_multiply_identity_and_infinite_dihedral():
    w = weyl.from_word(gcm.B2, (0, 1))
    assert (w * weyl.identity_element(gcm.B2)) == w
    assert weyl.from_word(gcm.AFFINE_A1, (0, 1) * 3).length == 6


def test_length_examples():
    assert weyl.identity_element(gcm.A2).length == 0
    table = brute_group(gcm.A2)
    longest = max(len(v) for v in table.values())
    assert longest == 3
    assert weyl.from_word(gcm.A2, (0, 1, 0)).length == 3
    # infinite dihedral alternating words stay reduced
    for k in range(21):
        word = tuple((0, 1)[i % 2] for i in range(k))
        assert weyl.from_word(gcm.AFFINE_A1, word).length == k


def test_is_reduced():
    assert weyl.is_reduced(gcm.A2, ())
    assert not weyl.is_reduced(gcm.A2, (0, 1, 0, 1))
    assert weyl.is_reduced(gcm.AFFINE_A1, (0, 1, 0, 1, 0))
    for word in itertools.product(range(2), repeat=4):
        assert weyl.is_reduced(gcm.B2, word) == (
            weyl.from_word(gcm.B2, word).length == 4
        )


def test_enumerate_ball_counts():
    assert len(weyl.enumerate_ball(gcm.A2, 10)) == 6
    assert len(weyl.enumerate_ball(gcm.B2, 10)) == 8
    assert len(weyl.enumerate_ball(gcm.G2, 14)) == 12
    ball = weyl.enumerate_ball(gcm.AFFINE_A1, 3)
    assert len(ball) == 7  # 1 + 2 + 2 + 2
    # deterministic (length, ShortLex) order, no duplicates
    keys = [(w.length, w.word) for w in ball]
    assert keys == sorted(keys)
    assert len({w.mat for w in ball}) == len(ball)


def test_enumerate_ball_guard(monkeypatch):
    monkeypatch.setattr(weyl, "DEFAULT_BALL_CAP", 40)
    with pytest.raises(ExplosionGuard):
        weyl.enumerate_ball(gcm.AFFINE_A2, 50)


def test_length_equals_inversion_count():
    for A in TEST_GCMS.values():
        for w in weyl.enumerate_ball(A, 4):
            radius = w.length + 1
            positives = set()
            # positive roots in the orbit ball of radius length(w)+1
            from twinroot import roots

            for r in roots.enumerate_real_roots(A, radius):
                if r.sign > 0:
                    positives.add(r.coords)
            inversions = sum(
                1 for v in positives if weyl.root_sign(w.apply(v)) < 0
            )
            assert inversions == w.length


def test_action_determinant_parity():
    def det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        return sum(
            (-1) ** j * m[0][j] * det([row[:j] + row[j + 1 :] for row in m[1:]])
            for j in range(n)
        )

    for A in TEST_GCMS.values():
        for w in weyl.enumerate_ball(A, 4):
            assert det([list(r) for r in w.mat]) == (-1) ** w.length


def test_multiply_rank_mismatch():
    import pytest as _pytest

    from twinroot.errors import RankMismatch

    with _pytest.raises(RankMismatch):
        weyl.identity_element(gcm.A2) * weyl.identity_element(gcm.AFFINE_A2)


def test_multiply_associative_and_inverse(rng):
    for A in (gcm.B2, gcm.AFFINE_A1):
        ball = weyl.enumerate_ball(A, 4)
        for _ in range(500):
            a, b, c = (rng.choice(ball) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a.inverse() * a == weyl.identity_element(A)


def test_length_changes_by_one(rng):
    for A in TEST_GCMS.values():
        for w in weyl.enumerate_ball(A, 3):
            for i in range(A.n):
                w2 = w * weyl.simple_element(A, i)
                assert abs(w2.length - w.length) == 1


def test_group_order():
    assert weyl.group_order(gcm.A2) == 6
    assert weyl.group_order(gcm.B2) == 8
    assert weyl.group_order(gcm.G2) == 12
    assert weyl.group_order(gcm.AFFINE_A1) == math.inf


def test_group_order_certified_beyond_closure_size():
    assert weyl.group_order(LARGER_GCMS["A7"]) == 40320
    assert weyl.group_order(LARGER_GCMS["E6"]) == 51840
    assert weyl.group_order(LARGER_GCMS["E8"]) == 696729600
    for A in (gcm.AFFINE_A1, gcm.AFFINE_A2, LARGER_GCMS["H3"], LARGER_GCMS["K4"]):
        assert weyl.group_order(A) == math.inf


def test_is_finite_principal_minors():
    finite = {"A2", "B2", "G2", "A6", "A7", "B5", "E6", "E8"}
    for name, A in {**TEST_GCMS, **LARGER_GCMS}.items():
        assert weyl.is_finite(A) == (name in finite), name


def test_canonical_word_is_shortlex_least_by_brute_force():
    # every word of length <= 5 in lexicographic order, shortest first: the
    # first word reaching a matrix is the ShortLex-least word of the element
    for A in TEST_GCMS.values():
        gens = [weyl.simple_reflection_action(A, i) for i in range(A.n)]
        least = {}
        for k in range(6):
            for word in itertools.product(range(A.n), repeat=k):
                mat = weyl.identity_matrix(A.n)
                for i in word:
                    mat = weyl.mat_mul(mat, gens[i])
                least.setdefault(mat, word)
        ball = weyl.enumerate_ball(A, 5)
        assert len(ball) == len(least)
        for w in ball:
            assert w.word == least[w.mat]


def test_element_of_action_certifies_the_matrices():
    for A in TEST_GCMS.values():
        for w in weyl.enumerate_ball(A, 3):
            assert weyl.element_of_action(A, w.mat, w.inv) == w
    # the diagram flip of A2 preserves the lattice but is not in W
    flip = ((0, 1), (1, 0))
    assert weyl.element_of_action(gcm.A2, flip, flip) is None
    # a true element paired with a wrong inverse is rejected too
    w = weyl.from_word(gcm.B2, (0, 1))
    assert weyl.element_of_action(gcm.B2, w.mat, w.mat) is None
