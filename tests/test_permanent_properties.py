"""Property tests of the minor-permanent kernel, the head/tail split and the nodes on them.

Runs are derandomized, so every run checks the same examples.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rolemodel import sudoku
from rolemodel.permanent import head_tail_split, minor_permanents, minor_permanents_split
from rolemodel.rng import make_rng

from oracles import head_tail_split as sorted_split
from oracles import minor_permanents as brute_minors

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# entries bounded away from 0, so no product of up to 7 of them underflows
ENTRIES = st.floats(min_value=1e-3, max_value=1.0)


def assert_relative(got: np.ndarray, ref: np.ndarray, rel: float) -> None:
    assert np.all(np.abs(got - ref) <= rel * np.maximum(np.abs(got), np.abs(ref)))


@st.composite
def batches(draw, elements=ENTRIES):
    n = draw(st.integers(2, 7))
    b = draw(st.integers(1, 3))
    return draw(arrays(float, (b, n, n), elements=elements))


@st.composite
def no_perfect_matching(draw):
    """Non-negative matrices whose first k rows only reach k-1 columns (then shuffled)."""
    n = draw(st.integers(3, 7))
    k = draw(st.integers(2, n))
    a = draw(arrays(float, (n, n), elements=st.one_of(st.just(0.0), ENTRIES)))
    a[:k, k - 1:] = 0.0
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(n)))
    return a[np.ix_(rows, cols)]


@st.composite
def near_permutations(draw):
    n = draw(st.integers(2, 7))
    eps = draw(st.floats(min_value=1e-12, max_value=1e-3))
    noise = draw(arrays(float, (n, n), elements=st.floats(0.0, 1.0)))
    perm = np.eye(n)[draw(st.permutations(range(n)))]
    return eps * noise + (1.0 - eps) * perm


@PROPERTY
@given(batches())
def test_batched_minors_match_bruteforce(stack):
    got = minor_permanents(stack)
    assert got.shape == stack.shape
    for a, minors in zip(stack, got):
        assert_relative(minors, brute_minors(a), 1e-12)


@PROPERTY
@given(no_perfect_matching())
def test_minors_without_a_matching_are_exactly_zero(a):
    got = minor_permanents(a)
    ref = brute_minors(a)
    assert np.array_equal(got == 0.0, ref == 0.0)
    assert_relative(got, ref, 1e-12)
    # the whole matrix has no perfect matching: its row expansion is exactly 0
    assert float(a[0] @ got[0]) == 0.0


#: Below the smallest normal float every value is a multiple of 2**-1074,
#: so no float algorithm keeps relative accuracy there; a minor under that
#: limit may differ from the brute-force sum by this many steps of 2**-1074
#: (at most 3 seen over 20,000 drawn near-permutations).
SUBNORMAL_STEPS = 8

#: A drawn near-permutation whose off-diagonal minors are subnormal: the
#: kernel and the brute-force sum differ there by one step of 2**-1074.
SUBNORMAL_MINORS = np.full((5, 5), float.fromhex("0x0.000008511d45ep-1022"))
np.fill_diagonal(SUBNORMAL_MINORS, float.fromhex("0x1.ffbf064b4e148p-1"))


@PROPERTY
@given(near_permutations())
@example(SUBNORMAL_MINORS)
def test_near_permutation_minors_keep_relative_accuracy(a):
    got, ref = minor_permanents(a), brute_minors(a)
    normal = np.abs(ref) >= np.finfo(float).tiny
    assert_relative(got[normal], ref[normal], 1e-12)
    assert np.all(np.abs(got - ref)[~normal] <= SUBNORMAL_STEPS * 2.0**-1074)


@PROPERTY
@given(st.integers(2, 9), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_each_matrix_gives_the_same_bits_in_any_batch(n, b, seed):
    stack = make_rng(seed).dirichlet(np.ones(n), size=(b, n))
    h = min(3, n - 1)
    minors = minor_permanents(stack)
    exact = sudoku.constraint_exact(stack)
    # the approximate node splits with HEAD_SIZE, which needs n > HEAD_SIZE
    approx = sudoku.constraint_approx(stack, 0.5)[0] if n > sudoku.HEAD_SIZE else None
    ph, pt = minor_permanents_split(*head_tail_split(stack, h))
    for k in range(b):
        assert np.array_equal(minors[k], minor_permanents(stack[k]))
        assert np.array_equal(exact[k], sudoku.constraint_exact(stack[k]))
        if approx is not None:
            assert np.array_equal(approx[k], sudoku.constraint_approx(stack[k], 0.5)[0])
        single = minor_permanents_split(*head_tail_split(stack[k], h))
        assert np.array_equal(ph[k], single[0]) and np.array_equal(pt[k], single[1])


#: Entries with ties and zeros: a few repeated values, besides any float in [0, 1].
SPLIT_ENTRIES = st.one_of(st.sampled_from([0.0, 1 / 9, 0.25, 0.5]), st.floats(0.0, 1.0))


@st.composite
def split_inputs(draw):
    """``(m, h)``: one (n, n) matrix or a (B, n, n) batch, n = 2..9, h = 1..n-1.

    Each row is as drawn (ties and zeros), uniform, or near one-hot.
    """
    n = draw(st.integers(2, 9))
    h = draw(st.integers(1, n - 1))
    shape = draw(st.sampled_from([(n, n), (draw(st.integers(1, 4)), n, n)]))
    m = draw(arrays(float, shape, elements=SPLIT_ENTRIES))
    rows = m.reshape(-1, n)
    for r in range(rows.shape[0]):
        kind = draw(st.sampled_from(["drawn", "uniform", "one-hot"]))
        if kind == "uniform":
            rows[r] = 1.0 / n
        elif kind == "one-hot":
            eps = draw(st.floats(min_value=1e-15, max_value=1e-3))
            rows[r] = eps * rows[r]
            rows[r, draw(st.integers(0, n - 1))] = 1.0 - eps
    return m, h


@PROPERTY
@given(split_inputs())
@example((np.full((9, 9), 1 / 9), 1))
@example((np.tile([0.5, 0.25, 0.25, 0.0, 0.0], (5, 1)), 2))
def test_split_matches_the_sorted_rows_oracle(case):
    m, h = case
    head, tails = head_tail_split(m, h)
    ref_head, ref_tails = sorted_split(m, h)
    assert head.shape == m.shape and tails.shape == m.shape[:-1]
    assert head.tobytes() == ref_head.tobytes()
    assert tails.tobytes() == ref_tails.tobytes()
