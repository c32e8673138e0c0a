"""Property tests of the blocked min-sum pipeline against its one-shot formulas.

``simulate_blocks`` draws and works ``BLOCK`` rows at a time, one
``simulate_batch`` call a block; these tests hold every array of its
blocks, concatenated, bitwise equal to the whole-array formula in
``oracles``, for batch sizes on both sides of the block boundaries, and
hold each block to be one call of the module's ``simulate_batch``, so a
tracer that replaces that name sees every sample. That equality is what
keeps ``train-minsum --out`` byte-identical. The block kernel works every
branch in the all-+1 frame from one parity bit a trial; it is held bitwise
equal to the per-branch formula on the bits and noise that the frame
stands for. ``evaluate_table`` scores the naive baseline on two columns,
and its cross term, summed block by block, is held bitwise equal to the
row-wise floor of whole pmf rows.
Every table that ``train-minsum`` writes loads back with positive rows.
Runs are derandomized, so every run checks the same examples.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rolemodel import minsum
from rolemodel.cli import _load, _table_from_json, main
from rolemodel.probs import DEFAULT_FLOOR, floor_rows

import oracles
from minsum_batches import FIELDS, whole_batch

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

BLOCK = minsum.BLOCK
SIZES = st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
# sigmas from 1e-3 (one-hot posteriors, clamped bins) to 30 (pure noise)
SIGMA = st.floats(min_value=-3.0, max_value=np.log10(30.0)).map(lambda e: float(10.0**e))


@st.composite
def shapes(draw):
    d = draw(st.integers(2, 6))
    sigmas = draw(st.one_of(SIGMA.map(lambda s: [s] * d), st.lists(SIGMA, min_size=d, max_size=d)))
    return d, sigmas, draw(SIZES), draw(st.integers(0, 2**32 - 1))


def assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


#: Magnitude bins per sign branch; the oracle's magnitude range is 25, as the package's is.
NUM_BINS = [64, 16]


# n is no multiple of 64 at each example: the last block uses only part of
# its last parity word
@PROPERTY
@example((3, [0.6, 1.0, 1.6], BLOCK + 1, 23), NUM_BINS[0])
@example((3, [0.6, 1.0, 1.6], BLOCK + 1, 23), NUM_BINS[1])
@example((5, [1.0] * 5, 2 * BLOCK + 7, 24), NUM_BINS[0])
@example((5, [1.0] * 5, 2 * BLOCK + 7, 24), NUM_BINS[1])
@given(shapes(), st.sampled_from(NUM_BINS))
def test_blocked_batch_is_bitwise_the_one_shot_formula(shape, num_bins):
    d, sigmas, n, seed = shape
    batch = whole_batch(d, sigmas, n, seed, minsum.ZQuantizer(num_bins))
    posteriors, bins, truths, minsum_llrs = oracles.minsum_batch(d, sigmas, n, seed, num_bins)
    assert_bitwise(batch.posteriors, posteriors)
    assert_bitwise(batch.bins, bins)
    assert_bitwise(batch.truths, truths)
    assert_bitwise(batch.minsum_llrs, minsum_llrs)


# Normals from a seeded generator: no branch sum (1 - 2 * bit) + sigma * noise
# is exactly 0, where the per-branch formula counts the LLR +0 as positive but
# the frame gives the branch its bit's sign.
@PROPERTY
@example((1, [1e-3]), BLOCK + 1, 25, NUM_BINS[0])
@example((6, [30.0] * 6), 2 * BLOCK + 7, 26, NUM_BINS[1])
@given(st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.just(d), st.one_of(SIGMA.map(lambda s: [s] * d), st.lists(SIGMA, min_size=d, max_size=d)))),
       SIZES, st.integers(0, 2**32 - 1), st.sampled_from(NUM_BINS))
def test_kernel_in_the_all_plus_frame_is_bitwise_the_per_branch_formula(shape, n, seed, num_bins):
    d, sigmas = shape
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(n, d))
    noise = rng.standard_normal((n, d))
    flips = np.bitwise_xor.reduce(bits, axis=1).astype(np.uint8)
    out = minsum._trials(np.asarray(sigmas, dtype=float), flips, noise * (1.0 - 2.0 * bits),
                         minsum.ZQuantizer(num_bins))
    for name, want in zip(FIELDS, oracles.minsum_branch_rows(bits, noise, sigmas, num_bins)):
        assert_bitwise(getattr(out, name), want)
    assert out.posteriors.min() >= 2.0**-54


@PROPERTY
@given(st.integers(1, 6), st.sampled_from([1, BLOCK - 1, BLOCK, 2 * BLOCK + 7]),
       st.integers(0, 2**32 - 1), st.sampled_from(NUM_BINS))
def test_each_block_is_one_simulate_batch_call(d, n, seed, num_bins):
    sigmas = np.linspace(0.6, 1.6, d)
    quantizer = minsum.ZQuantizer(num_bins)
    steps = []
    step = minsum.simulate_batch

    def recorded(*args):
        steps.append(step(*args))
        return steps[-1]

    with mock.patch.object(minsum, "simulate_batch", recorded):
        blocks = list(minsum.simulate_blocks(d, sigmas, n, seed, quantizer))
    assert [len(b) for b in blocks] == [min(BLOCK, n - s) for s in range(0, n, BLOCK)]
    assert len(steps) == len(blocks) and all(b is s for b, s in zip(blocks, steps))


@PROPERTY
@given(st.integers(1, 6).flatmap(lambda d: arrays(
    float, st.tuples(st.integers(1, 40), st.just(d)),
    elements=st.floats(min_value=-100.0, max_value=100.0))))
def test_column_loop_tanh_rule_is_bitwise_the_row_reduction(llrs):
    assert_bitwise(minsum.tanh_rule_rows(llrs), oracles.tanh_rule_rows(llrs))


#: LLRs at the edges of the baseline's rows: signed zeros, a pmf entry near
#: the floor (27.6), an exact zero entry (745), and infinite LLRs, which
#: tiny sigmas give.
EDGE_LLRS = [0.0, -0.0, 27.6, -27.6, 745.0, -745.0, 1e20, -1e20, np.inf, -np.inf]


@PROPERTY
@example(BLOCK, 0.5, 0)
@example(2 * BLOCK + 7, 0.01, 1)
@given(st.sampled_from([1, 2, 7, 129, BLOCK - 1, BLOCK, 2 * BLOCK + 7]), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1))
def test_baseline_cross_term_is_bitwise_the_floored_rows(n, edge_share, seed):
    rng = np.random.default_rng(seed)
    llrs = rng.normal(0.0, 8.0, n)
    edge = rng.random(n) < edge_share
    llrs[edge] = rng.choice(EDGE_LLRS, int(edge.sum()))
    posteriors = oracles.llrs_to_dists(rng.normal(0.0, 8.0, n))
    got = want = 0.0
    for start in range(0, n, BLOCK):
        rows = slice(start, start + BLOCK)
        l, p = llrs[rows], posteriors[rows]
        got += minsum._baseline_cross(l, p)
        want += float((np.log2(floor_rows(oracles.llrs_to_dists(l), DEFAULT_FLOOR)) * p).sum())
    assert_bitwise(np.float64(got), np.float64(want))


#: Sigmas out to the ends of the range that ``square_is_normal`` admits.
WIDE_SIGMA = st.one_of(st.sampled_from([1e-150, 30.0]),
                       st.floats(min_value=-150.0, max_value=np.log10(30.0)).map(lambda e: 10.0**e))


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("trained") / "table.json"


# eval-minsum rejects a table whose finalized rows hold a zero; no trained
# table has one, since every tanh-rule posterior entry is at least 2^-54
@PROPERTY
@example((6, [1e-150] * 6), 256, 2000, 0)
@example((1, [30.0]), 1, 1, 1)
@example((3, [1e-150, 30.0, 1e-150]), 64, 500, 2)
@given(st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(WIDE_SIGMA, min_size=d, max_size=d))),
       st.integers(1, 256), st.integers(1, 2000), st.integers(0, 2**32 - 1))
def test_every_trained_table_loads_with_positive_rows(table_path, shape, bins, n, seed):
    d, sigmas = shape
    assert main(["train-minsum", "--degree", str(d), "--sigmas", ",".join(map(repr, sigmas)),
                 "--bins", str(bins), "--samples", str(n), "--seed", str(seed), "--quiet",
                 "--out", str(table_path)]) == 0
    table, final, _ = _load(str(table_path), _table_from_json)
    assert table.counts.sum() == n
    assert final.shape == (2 * bins, 2) and np.all(final > 0)
