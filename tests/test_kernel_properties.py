"""Property tests for the Weyl kernel laws over the test GCMs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from twinroot import roots, weyl

from conftest import TEST_GCMS, fraction_farkas_empty

GCMS = st.sampled_from(sorted(TEST_GCMS)).map(TEST_GCMS.get)


def words(A, max_size=14):
    return st.lists(st.integers(0, A.n - 1), max_size=max_size).map(tuple)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_canonical_word_is_a_reduced_word_of_the_element(data):
    A = data.draw(GCMS)
    word = data.draw(words(A))
    w = weyl.from_word(A, word)
    assert weyl.from_word(A, w.word) == w
    assert weyl.is_reduced(A, w.word)
    assert len(word) >= w.length
    assert weyl.is_reduced(A, word) == (len(word) == w.length)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inverse_of_a_product(data):
    A = data.draw(GCMS)
    u = weyl.from_word(A, data.draw(words(A)))
    v = weyl.from_word(A, data.draw(words(A)))
    assert (u * v).inverse() == v.inverse() * u.inverse()


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_matrix_order_of_two_reflections_is_the_coxeter_entry(data):
    A = data.draw(GCMS)
    i = data.draw(st.integers(0, A.n - 1))
    j = data.draw(st.integers(0, A.n - 1).filter(lambda j: j != i))
    product = weyl.mat_mul(weyl.simple_reflection_action(A, i), weyl.simple_reflection_action(A, j))
    assert weyl.matrix_order(product) == weyl.coxeter_matrix(A).m[i][j]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_root_witness_is_no_longer_than_any_word_reaching_the_root(data):
    A = data.draw(GCMS)
    w = weyl.from_word(A, data.draw(words(A)))
    i = data.draw(st.integers(0, A.n - 1))
    sign = data.draw(st.sampled_from((1, -1)))
    root = w.apply(tuple(sign if k == i else 0 for k in range(A.n)))
    u, j, s = roots.root_witness(A, root)
    assert u.apply(tuple(s if k == j else 0 for k in range(A.n))) == root
    assert u.length <= w.length


def int_matrices(n):
    return st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n).map(tuple), min_size=n, max_size=n).map(tuple)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reflection_updates_equal_products_with_the_simple_reflection(data):
    A = data.draw(GCMS)
    i = data.draw(st.integers(0, A.n - 1))
    s = weyl.simple_reflection_action(A, i)
    # column j of s_i is v_j - a[i][j] v_i
    assert s == tuple(tuple((k == j) - (k == i) * A.a[i][j] for j in range(A.n)) for k in range(A.n))
    for m in (data.draw(int_matrices(A.n)), weyl.from_word(A, data.draw(words(A))).mat):
        assert weyl._times_s(A.a, m, i) == weyl.mat_mul(m, s)
        assert weyl._s_times(A.a, m, i) == weyl.mat_mul(s, m)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_height_sign_is_the_root_sign_on_a_ball(data):
    A = data.draw(GCMS)
    i = data.draw(st.integers(0, A.n - 1))
    sign = data.draw(st.sampled_from((1, -1)))
    d = weyl.from_word(A, data.draw(words(A))).apply(tuple(sign if k == i else 0 for k in range(A.n)))
    ball, heights = roots._cached_ball(A, 6), roots._cached_heights(A, 6)
    assert len(ball) == len(heights)
    for w, h in zip(ball, heights):
        height = sum(x * y for x, y in zip(h, d))
        assert (height > 0) - (height < 0) == weyl.root_sign(weyl.mat_vec(w.mat, d))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_integer_farkas_matches_the_fraction_reference(data):
    n = data.draw(st.integers(2, 5))
    k = data.draw(st.integers(2, 5))
    vector = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    deltas = tuple(data.draw(vector) for _ in range(k))
    assert roots._farkas_empty(deltas) == fraction_farkas_empty(deltas)
