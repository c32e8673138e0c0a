"""Binary check-node testbed.

A check node aggregates d independent binary branches; the bit being
estimated is the XOR of the branch bits. The reference estimator combines
exact branch LLRs with the tanh rule; the estimator in training sees only
the min-sum statistic (min magnitude, sign product), quantized into bins.
Training data comes from BPSK over AWGN with per-branch noise levels, so
the unequal-variance case is a first-class input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BinOutOfRange, DimensionMismatch, ZeroMassAtTruth
from .probs import DEFAULT_FLOOR, floor_rows, llrs_to_dists, soft_mi, square_is_normal
from .rng import make_rng
from .train import BLOCK, PostTable, SampleBatch, empirical_ed, plogp_sum

#: Finite LLRs saturate here before entering tanh; tanh(38/2) is still
#: strictly below 1 in double precision, keeping atanh finite.
LLR_SATURATION = 38.0
#: Largest double below 1; keeps atanh finite when saturated tanh rounds to 1.
_TANH_CEIL = math.nextafter(1.0, 0.0)


def tanh_rule_rows(llrs: np.ndarray) -> np.ndarray:
    """Vectorized tanh rule over finite LLR rows, shape (N, d) -> (N,).

    Runs over the d columns, so its temporaries are (N,) vectors; the
    product accumulates left to right, column 0 first.
    """
    l = np.asarray(llrs, dtype=float)
    prod = np.ones(l.shape[0])
    t = np.empty(l.shape[0])
    for j in range(l.shape[1]):
        np.clip(l[:, j], -LLR_SATURATION, LLR_SATURATION, out=t)
        t /= 2.0
        np.tanh(t, out=t)
        prod *= t
    np.clip(prod, -_TANH_CEIL, _TANH_CEIL, out=prod)
    np.arctanh(prod, out=prod)
    prod *= 2.0
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

    @property
    def total_bins(self) -> int:
        return 2 * self.num_bins

    def bin_indices(self, magnitudes: np.ndarray, signs: np.ndarray) -> np.ndarray:
        mag = np.asarray(magnitudes, dtype=float)
        if np.any(mag < 0):
            raise BinOutOfRange("negative magnitude")
        width = MAX_MAGNITUDE / self.num_bins
        # clamp before the divide (no overflow) and before the cast
        idx = np.minimum(np.minimum(mag, MAX_MAGNITUDE) / width, self.num_bins - 1)
        idx = idx.astype(int)
        return idx + self.num_bins * (np.asarray(signs) < 0)


class MinsumBatch(SampleBatch):
    """Training samples plus the raw min-sum LLR each one was binned from."""

    def __init__(self, posteriors, bins, truths, minsum_llrs):
        super().__init__(posteriors, bins, truths)
        self.minsum_llrs = np.asarray(minsum_llrs, dtype=float)


def simulate_batch(d: int, sigmas, n: int, seed: int,
                   quantizer: ZQuantizer | None = None) -> MinsumBatch:
    """Draw n check-node trials and pair reference posteriors with Z bins.

    Each trial draws d independent branch bits, observes them over BPSK/AWGN
    with the given per-branch sigmas (exact branch LLR 2y/sigma^2), and
    emits the tanh-rule posterior for the XOR bit alongside the quantized
    min-sum statistic. Deterministic for a given seed: all n*d bits come
    first and then all n*d normals, from ``make_rng(seed, 1)``. The bits are
    drawn ``BLOCK`` rows at a time into one (n, d) uint8 array; then each
    block draws its normals into one (``BLOCK``, d) buffer and runs column
    by column, writing into the returned arrays. Chunked draws advance the
    stream exactly as the whole-array calls would, so the batch is bitwise
    the same; it needs n*d bytes of bits, 40 bytes per sample of returned
    arrays, and the block buffers.
    """
    if n < 1:
        raise ValueError("need at least one trial")
    sig = np.asarray(sigmas, dtype=float)
    if sig.shape != (d,):
        raise ValueError(f"need {d} sigmas, got {sig.size}")
    if d < 1 or not np.all(square_is_normal(sig)):
        raise ValueError("need one positive sigma per branch, its square a finite normal float")
    quantizer = quantizer or ZQuantizer()
    rng = make_rng(seed, 1)
    bits = np.empty((n, d), dtype=np.uint8)
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        bits[start:stop] = rng.integers(0, 2, size=(stop - start, d))
    sig2 = sig**2
    posteriors = np.empty((n, 2))
    bins = np.empty(n, dtype=int)
    truths = np.empty(n, dtype=np.int64)
    minsum_llrs = np.empty(n)
    rows = min(n, BLOCK)
    noise_rows = np.empty((rows, d))
    llrs = np.empty((d, rows))  # one block of LLRs, branch j contiguous in llrs[j]
    tmp_rows = np.empty(rows)
    odd_rows = np.empty(rows, dtype=bool)
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        m = stop - start
        noise = rng.standard_normal(out=noise_rows[:m])
        mins, parity = minsum_llrs[start:stop], truths[start:stop]
        tmp, odd = tmp_rows[:m], odd_rows[:m]
        mins.fill(np.inf)
        parity.fill(0)
        odd.fill(False)
        for j in range(d):
            # llr = 2 * ((1 - 2 * bit) + sigma * noise) / sigma^2, one operation
            # at a time in the order of the whole-array formula, so the bits agree
            col = llrs[j, :m]
            np.multiply(bits[start:stop, j], 2.0, out=col)
            np.subtract(1.0, col, out=col)
            np.multiply(noise[:, j], sig[j], out=tmp)
            col += tmp
            col *= 2.0
            col /= sig2[j]
            np.abs(col, out=tmp)
            np.minimum(mins, tmp, out=mins)
            odd ^= col < 0.0
            parity ^= bits[start:stop, j]
        llrs_to_dists(tanh_rule_rows(llrs[:, :m].T), out=posteriors[start:stop])
        signs = 1.0 - 2.0 * odd
        bins[start:stop] = quantizer.bin_indices(mins, signs)
        mins *= signs
    return MinsumBatch(posteriors=posteriors, bins=bins, truths=truths,
                       minsum_llrs=minsum_llrs)


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


def _soft_mi_from_counts(q: np.ndarray, bins: np.ndarray, truths: np.ndarray) -> float:
    """``soft_mi(truths, q[bins])``, from (bin, truth) pair counts taken a block at a time."""
    num_bins, alphabet = q.shape
    if truths.min() < 0 or truths.max() >= alphabet:  # would alias another bin's pair
        raise DimensionMismatch(f"truths must lie in [0, {alphabet})")
    counts = np.zeros(num_bins * alphabet, dtype=np.int64)
    for start in range(0, bins.size, BLOCK):
        pair = bins[start:start + BLOCK] * alphabet
        pair += truths[start:start + BLOCK]
        counts += np.bincount(pair, minlength=counts.size)
    try:
        return soft_mi(np.tile(np.arange(alphabet), num_bins), np.repeat(q, alphabet, axis=0),
                       weights=counts)
    except ZeroMassAtTruth as exc:
        # name the first sample whose pair has zero mass, as a per-sample call would
        bad = (counts > 0) & (q.ravel() == 0)
        raise ZeroMassAtTruth(int(np.flatnonzero(bad[bins * alphabet + truths])[0])) from exc


def evaluate_table(table: PostTable, batch: MinsumBatch) -> EvalReport:
    """Score a trained table on a batch, against the naive min-sum baseline.

    The baseline treats the raw min-sum LLR as if it were the true LLR; its
    output rows are floored before the divergence since extreme LLRs
    produce exact zeros that the reference posteriors never have. Both
    divergences share one ``sum p log2 p`` over the batch; the baseline's
    rows are built one block at a time. Soft MI is scored from the batch's
    per-(bin, truth) counts, one row per pair, not from a per-sample gather.
    """
    q = table.finalize()
    post = batch.posteriors
    plogp = plogp_sum(post)
    ed = empirical_ed(batch, q, plogp)
    cross = 0.0
    for start in range(0, post.shape[0], BLOCK):
        stop = start + BLOCK
        rows = floor_rows(llrs_to_dists(batch.minsum_llrs[start:stop]), DEFAULT_FLOOR)
        np.log2(rows, out=rows)
        rows *= post[start:stop]
        cross += float(rows.sum())
    baseline = (plogp - cross) / post.shape[0]
    mi = math.nan if batch.truths is None else _soft_mi_from_counts(q, batch.bins, batch.truths)
    return EvalReport(empirical_ed=ed, soft_mi=mi, baseline_ed=baseline, count=len(batch))

