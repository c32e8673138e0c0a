"""Property tests of ``PostTable``: neither sample order nor splitting a batch changes a table.

Counts must match exactly; sums, whose floating-point additions happen in
another order, to 1e-12 relative. Runs are derandomized, so every run
checks the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rolemodel.rng import make_rng
from rolemodel.train import PostTable

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def batches(draw, num_bins: int, q: int):
    """A batch of Dirichlet posteriors (some exact zeros) and their random bins."""
    n = draw(st.integers(1, 300))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    post = rng.dirichlet(np.full(q, 0.5), size=n)
    post[rng.random((n, q)) < 0.1] = 0.0
    post[post.sum(axis=1) == 0, 0] = 1.0
    post /= post.sum(axis=1, keepdims=True)
    return post, rng.integers(0, num_bins, size=n)


@st.composite
def geometries(draw):
    return draw(st.integers(1, 12)), draw(st.integers(2, 4))


def table_of(batch: tuple[np.ndarray, np.ndarray], num_bins: int, q: int) -> PostTable:
    t = PostTable(num_bins=num_bins, alphabet_size=q)
    t.ingest_batch(*batch)
    return t


def assert_same_table(a: PostTable, b: PostTable) -> None:
    assert np.array_equal(a.counts, b.counts)
    scale = np.maximum(np.abs(a.sums), np.abs(b.sums))
    assert np.all(np.abs(a.sums - b.sums) <= 1e-12 * scale)


@PROPERTY
@given(geometries().flatmap(lambda g: st.tuples(st.just(g), batches(*g))), st.data())
def test_ingest_ignores_order_and_sharding(case, data):
    (num_bins, q), (post, bins) = case
    whole = table_of((post, bins), num_bins, q)
    n = bins.size
    perm = np.asarray(data.draw(st.permutations(range(n))), dtype=int)
    assert_same_table(whole, table_of((post[perm], bins[perm]), num_bins, q))
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
    sharded = PostTable(num_bins=num_bins, alphabet_size=q)
    for lo, hi in zip([0] + cuts, cuts + [n]):
        sharded.ingest_batch(post[perm[lo:hi]], bins[perm[lo:hi]])
    assert_same_table(whole, sharded)


@PROPERTY
@given(geometries().flatmap(lambda g: st.tuples(st.just(g), batches(*g))))
def test_finalized_rows_are_pmfs(case):
    (num_bins, q), batch = case
    final = table_of(batch, num_bins, q).finalize()
    assert final.shape == (num_bins, q)
    assert np.all(final >= 0.0)
    assert np.all(np.abs(final.sum(axis=1) - 1.0) <= 1e-12)
