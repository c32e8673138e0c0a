"""Binary check-node testbed.

A check node aggregates d independent binary branches; the bit being
estimated is the XOR of the branch bits. The reference estimator combines
exact branch LLRs with the tanh rule; the estimator in training sees only
the min-sum statistic (min magnitude, sign product), quantized into bins.
Training data comes from BPSK over AWGN with per-branch noise levels, so
the unequal-variance case is a first-class input. Both outputs depend on
the branch bits only through their XOR, so a trial draws that one bit and
works its branches in the all-+1 frame. A run is one pass over
``BLOCK``-trial blocks: ``simulate_blocks`` yields them lazily, one
``simulate_batch`` call a block. Training adds each block to a table with
``PostTable.ingest_batch``; ``evaluate_table`` adds each block into a table
and its scores, then reports those sums on trained table rows, its
divergence by ``train.empirical_ed``. Each block is dropped once added.
Binary log-likelihood ratios are in natural-log units, ``llr = ln(p0 /
p1)`` (positive favors symbol 0).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import AbsoluteContinuityViolation, BinOutOfRange, DimensionMismatch
from .probs import DEFAULT_FLOOR, log2_masked, soft_mi, square_is_normal
from .rng import make_rng
from .train import PostTable, SampleBatch, empirical_ed

#: Trials per block of a streamed pass: 2^14 rows of a few float64 columns
#: stay in cache between the element-wise passes. A multiple of 64, so only
#: a run's last block ends mid-way through a parity word.
BLOCK = 1 << 14

#: Finite LLRs saturate here before entering tanh; tanh(38/2) is still
#: strictly below 1 in double precision.
LLR_SATURATION = 38.0
#: Largest double below 1: the tanh product is clipped to it, so both
#: posterior entries (1 +- P) / 2 stay positive, the smaller at least 2^-54.
_TANH_CEIL = math.nextafter(1.0, 0.0)


def tanh_rule_rows(llrs: np.ndarray) -> np.ndarray:
    """The tanh rule's product over finite LLR rows, shape (N, d) -> (N,).

    P = prod_j tanh(l_j / 2), each l_j saturated at ``LLR_SATURATION`` and P
    clipped to ``_TANH_CEIL`` in magnitude. The posterior of the XOR bit is
    ((1 + P) / 2, (1 - P) / 2), its LLR 2 atanh P. Runs over the d columns,
    so its temporaries are (N,) vectors; the product accumulates left to
    right, column 0 first.
    """
    l = np.asarray(llrs, dtype=float)
    prod = np.ones(l.shape[0])
    t = np.empty(l.shape[0])
    for j in range(l.shape[1]):
        np.clip(l[:, j], -LLR_SATURATION, LLR_SATURATION, out=t)
        t *= 0.5
        np.tanh(t, out=t)
        prod *= t
    np.clip(prod, -_TANH_CEIL, _TANH_CEIL, out=prod)
    return prod


#: Min-sum magnitudes at or above this clamp into the top bin. Table files do
#: not record it, so a new value needs a new table format version.
MAX_MAGNITUDE = 25.0


@dataclass(frozen=True)
class ZQuantizer:
    """Uniform magnitude bins over [0, ``MAX_MAGNITUDE``) composed with the sign branch.

    Bin layout: [0, num_bins) for sign +1, [num_bins, 2*num_bins) for -1;
    magnitudes at or above ``MAX_MAGNITUDE`` clamp into the top bin.
    """

    num_bins: int = 64

    def __post_init__(self):
        if self.num_bins < 1:
            raise ValueError("need a positive bin count")
        if self.num_bins > 2**62:  # the top bin index, 2 * num_bins - 1, must fit int64
            raise ValueError(f"need at most 2^62 bins per sign, got {self.num_bins}")

    @property
    def total_bins(self) -> int:
        return 2 * self.num_bins

    def bin_indices(self, magnitudes: np.ndarray, signs: np.ndarray) -> np.ndarray:
        mag = np.asarray(magnitudes, dtype=float)
        if np.any(mag < 0):
            raise BinOutOfRange("negative magnitude")
        width = MAX_MAGNITUDE / self.num_bins
        # clamp the magnitude before the divide (no overflow) and before the
        # cast; clamp the index in integers, where num_bins - 1 is exact
        idx = (np.minimum(mag, MAX_MAGNITUDE) / width).astype(int)
        np.minimum(idx, self.num_bins - 1, out=idx)
        return idx + self.num_bins * (np.asarray(signs) < 0)


class MinsumBatch(SampleBatch):
    """Training samples plus each one's truth and the raw min-sum LLR it was binned from."""

    def __init__(self, posteriors, bins, truths, minsum_llrs):
        super().__init__(posteriors, bins)
        truths, self.minsum_llrs = np.asarray(truths), np.asarray(minsum_llrs, dtype=float)
        if truths.shape != (len(self),) or self.minsum_llrs.shape != (len(self),):
            raise DimensionMismatch("need one truth and one min-sum LLR per sample")
        self.truths = truths.astype(int, copy=False)


def simulate_blocks(d: int, sigmas, n: int, seed: int,
                    quantizer: ZQuantizer) -> Iterator[MinsumBatch]:
    """Draw n check-node trials, ``BLOCK`` at a time, pairing reference posteriors with Z bins.

    Each trial observes d branch bits over BPSK/AWGN with the given
    per-branch sigmas (exact branch LLR 2y/sigma^2), and emits the tanh-rule
    posterior for the XOR bit alongside the quantized min-sum statistic.
    Both see the bits only through that XOR, the truth: flipping a bit and
    its branch's noise negates that branch's LLR, and the noise law is
    symmetric. So a trial draws its truth as one parity bit, and d normals.

    Deterministic for a given seed. The normals are all n*d of
    ``make_rng(seed, 1)`` in (n, d) row order. Parity k is bit k % 64, least
    significant first, of raw word k // 64 of ``make_rng(seed, 1, 1)``,
    whose counter differs in word 1, 2^64 Philox blocks away. Each block
    is one :func:`simulate_batch` call, which draws its rows' normals and
    its ``BLOCK / 64`` words, so neither stream depends on ``BLOCK``, and is
    yielded as a MinsumBatch of its own; a pass holds no array of n rows.
    The arguments are checked and the generators built at the call; blocks are drawn as taken.
    """
    if n < 1:
        raise ValueError("need at least one trial")
    sig = np.asarray(sigmas, dtype=float)
    if sig.shape != (d,):
        raise ValueError(f"need {d} sigmas, got {sig.size}")
    if d < 1 or not np.all(square_is_normal(sig)):
        raise ValueError("need one positive sigma per branch, its square a finite normal float")
    normals, parity = (make_rng(seed, 1, word) for word in (0, 1))
    return (simulate_batch(sig, min(BLOCK, n - start), normals, parity, quantizer)
            for start in range(0, n, BLOCK))


def simulate_batch(sig: np.ndarray, m: int, normals: np.random.Generator,
                   parity: np.random.Generator, quantizer: ZQuantizer) -> MinsumBatch:
    """The next m trials of a :func:`simulate_blocks` run, from its two generators.

    Draws m parity bits from the next ``ceil(m / 64)`` raw words of
    ``parity`` and the (m, d) normals from ``normals``; ``sig`` holds the
    run's d checked sigmas.
    """
    words = parity.bit_generator.random_raw(-(-m // 64)).astype("<u8", copy=False)
    flips = np.unpackbits(words.view(np.uint8), count=m, bitorder="little")
    return _trials(sig, flips, normals.standard_normal((m, sig.size)), quantizer)


def _trials(sig: np.ndarray, flips: np.ndarray, noise: np.ndarray,
            quantizer: ZQuantizer) -> MinsumBatch:
    """The trials of truths ``flips`` (m,), each 0 or 1, and branch noise ``noise`` (m, d).

    Every branch is worked in the all-+1 frame, LLR 2 * (1 + sigma_j * n_j)
    / sigma_j^2, one column and operation at a time in that order; the
    truth then negates the tanh product P and the min-sum sign, and the
    posterior is ((1 + P) / 2, (1 - P) / 2). On (XOR of the bits, noise
    times each branch's 1 - 2 * bit) this is bitwise the per-branch formula
    on (bits, noise), since IEEE sign flips are exact, wherever no branch's
    (1 - 2 * bit) + sigma * noise is exactly 0 (an LLR of +0 counts as
    positive there, but its bit still flips the sign here).
    """
    m = flips.size
    llrs = np.empty((sig.size, m))  # branch j contiguous in llrs[j]
    tmp = np.empty(m)
    mins = np.full(m, np.inf)
    flip = flips.astype(bool)
    odd = flip.copy()
    for j, s in enumerate(sig):
        col = llrs[j]
        np.multiply(noise[:, j], s, out=col)
        col += 1.0
        col *= 2.0
        col /= s * s
        np.abs(col, out=tmp)
        np.minimum(mins, tmp, out=mins)
        odd ^= col < 0.0
    prod = tanh_rule_rows(llrs.T)
    np.negative(prod, out=prod, where=flip)
    posteriors = np.empty((m, 2))
    posteriors[:, 0] = prod
    np.negative(prod, out=posteriors[:, 1])
    posteriors += 1.0
    posteriors *= 0.5
    signs = 1.0 - 2.0 * odd
    bins = quantizer.bin_indices(mins, signs)
    mins *= signs
    return MinsumBatch(posteriors, bins, flips, mins)


def new_table(quantizer: ZQuantizer) -> PostTable:
    return PostTable(num_bins=quantizer.total_bins, alphabet_size=2)


@dataclass(frozen=True)
class EvalReport:
    empirical_ed: float
    soft_mi: float
    baseline_ed: float
    count: int

    def summary(self) -> str:
        return (
            f"samples={self.count} empirical_ed={self.empirical_ed:.6f} bits "
            f"baseline_ed={self.baseline_ed:.6f} bits soft_mi={self.soft_mi:.6f} bits"
        )


def plogp_sum(post: np.ndarray) -> float:
    """sum_k sum_x p_k[x] log2 p_k[x] over a block of posterior rows (0 log 0 = 0)."""
    logs = log2_masked(post)
    logs *= post
    return float(logs.sum())


def _baseline_cross(llrs: np.ndarray, post: np.ndarray) -> float:
    """sum_k sum_x p_k[x] log2 b_k[x] over a block, b_k the floored pmf row of min-sum LLR k.

    The row of LLR l has the larger entry 1 / (1 + e^-|l|) and the smaller
    e^-|l| / (1 + e^-|l|), the larger at symbol 0 where l >= 0. Bitwise
    ``float((np.log2(floor_rows(rows, DEFAULT_FLOOR)) * post).sum())`` on two
    contiguous columns: each row's larger and smaller entry is floored,
    divided by their sum (a 2-entry row's sum) and logged apart, then set in
    (p0, p1) order, so the one sum over the (m, 2) block adds the same terms
    in the same order.
    """
    lo = np.exp(-np.abs(llrs))
    hi = 1.0 + lo
    lo /= hi
    np.divide(1.0, hi, out=hi)
    np.maximum(hi, DEFAULT_FLOOR, out=hi)
    np.maximum(lo, DEFAULT_FLOOR, out=lo)
    tot = lo + hi
    hi /= tot
    lo /= tot
    np.log2(hi, out=hi)
    np.log2(lo, out=lo)
    pos = llrs >= 0  # the larger entry is at symbol 0 here
    logs = np.empty(post.shape)
    logs[:, 0] = np.where(pos, hi, lo)
    logs[:, 1] = np.where(pos, lo, hi)
    logs *= post
    return float(logs.sum())


def evaluate_table(q: np.ndarray, blocks: Iterable[MinsumBatch]) -> EvalReport:
    """Score table rows q, one per bin, on a batch's blocks, against the naive min-sum baseline.

    Each block is added up as it is taken, then dropped: into ``table``,
    the batch's own PostTable (per-bin posterior sums, added in place in
    sample order, and counts); into sum p log2 p and the baseline's cross
    term, one float each that adds a block's total; and into the (bin,
    truth) pair counts, row 2 * bin + truth, which sum to the sample count.
    The same blocks in the same order give the same bits. The sums are
    allocated before the first block is taken, so a lazy ``blocks``, such
    as a :func:`simulate_blocks` run, draws nothing before them. Truths are
    bits, as ``simulate_blocks`` draws them.

    The baseline treats the raw min-sum LLR as if it were the true LLR;
    its rows are floored before the divergence, since extreme LLRs
    produce exact zeros that the reference posteriors never have. Both
    divergences share one sum p log2 p. Soft MI is scored from the pair
    counts, one weighted row per pair, so a ``ZeroMassAtTruth`` from it
    names a pair row.
    """
    table = PostTable(len(q), 2)
    plogp = cross = 0.0
    pairs = np.zeros(table.sums.size, dtype=np.int64)
    for block in blocks:
        table.ingest_batch(block)  # checks the alphabet and the bins
        plogp += plogp_sum(block.posteriors)
        cross += _baseline_cross(block.minsum_llrs, block.posteriors)
        np.add.at(pairs, block.bins * 2 + block.truths, 1)
    count = int(pairs.sum())
    if not count:
        raise ValueError("empty sample sequence")
    q = np.asarray(q, dtype=float)
    if q.shape != table.sums.shape:
        raise DimensionMismatch(f"need {table.num_bins} rows of 2, got shape {q.shape}")
    bad = np.flatnonzero(((table.sums > 0) & (q == 0)).any(axis=1))
    if bad.size:
        raise AbsoluteContinuityViolation(f"bin {bad[0]}: table row is zero where "
                                          f"posterior has mass")
    mi = soft_mi(np.tile(np.arange(2), q.shape[0]), np.repeat(q, 2, axis=0), weights=pairs)
    return EvalReport(empirical_ed=empirical_ed(table.sums, q, plogp, count), soft_mi=mi,
                      baseline_ed=(plogp - cross) / count, count=count)
