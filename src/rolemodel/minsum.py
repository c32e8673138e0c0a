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

from . import chains
from .errors import BinOutOfRange
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


@dataclass(frozen=True)
class ZQuantizer:
    """Uniform magnitude bins composed with the sign branch.

    Bin layout: [0, num_bins) for sign +1, [num_bins, 2*num_bins) for -1;
    magnitudes at or above ``max_magnitude`` clamp into the top bin.
    """

    num_bins: int = 64
    max_magnitude: float = 25.0

    def __post_init__(self):
        if self.num_bins < 1 or not 0 < self.max_magnitude < math.inf:
            raise ValueError("need a positive bin count and a finite positive magnitude range")

    @property
    def total_bins(self) -> int:
        return 2 * self.num_bins

    def bin_indices(self, magnitudes: np.ndarray, signs: np.ndarray) -> np.ndarray:
        mag = np.asarray(magnitudes, dtype=float)
        if np.any(mag < 0):
            raise BinOutOfRange("negative magnitude")
        width = self.max_magnitude / self.num_bins
        # clamp before the divide (no overflow) and before the cast
        idx = np.minimum(np.minimum(mag, self.max_magnitude) / width, self.num_bins - 1)
        idx = idx.astype(int)
        return idx + self.num_bins * (np.asarray(signs) < 0)

    def spec(self) -> dict:
        return {
            "kind": "minsum",
            "num_bins": self.num_bins,
            "max_magnitude": self.max_magnitude,
        }


class MinsumBatch(SampleBatch):
    """Training samples plus the raw min-sum LLR each one was binned from."""

    def __init__(self, posteriors, bins, truths, minsum_llrs):
        super().__init__(posteriors, bins, truths)
        self.minsum_llrs = np.asarray(minsum_llrs, dtype=float)


def simulate_batch(d: int, sigmas, n: int, seed: int,
                   quantizer: ZQuantizer | None = None, stream: int = 0) -> MinsumBatch:
    """Draw n check-node trials and pair reference posteriors with Z bins.

    Each trial draws d independent branch bits, observes them over BPSK/AWGN
    with the given per-branch sigmas (exact branch LLR 2y/sigma^2), and
    emits the tanh-rule posterior for the XOR bit alongside the quantized
    min-sum statistic. Deterministic for a given (seed, stream): the draws
    come first, all n*d bits and then all n*d normals from
    ``make_rng(seed, 1, stream)``. Everything after them runs ``BLOCK`` rows
    at a time, column by column, and writes into the returned arrays.
    """
    if n < 1:
        raise ValueError("need at least one trial")
    sig = np.asarray(sigmas, dtype=float)
    if d < 1 or sig.shape != (d,) or not np.all(square_is_normal(sig)):
        raise ValueError("need one positive sigma per branch, its square a finite normal float")
    quantizer = quantizer or ZQuantizer()
    rng = make_rng(seed, 1, stream)
    bits = rng.integers(0, 2, size=(n, d))
    noise = rng.standard_normal((n, d))
    sig2 = sig**2
    posteriors = np.empty((n, 2))
    bins = np.empty(n, dtype=int)
    truths = np.empty(n, dtype=bits.dtype)
    minsum_llrs = np.empty(n)
    rows = min(n, BLOCK)
    llrs = np.empty((d, rows))  # one block of LLRs, branch j contiguous in llrs[j]
    tmp_rows = np.empty(rows)
    odd_rows = np.empty(rows, dtype=bool)
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        m = stop - start
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
            np.multiply(noise[start:stop, j], sig[j], out=tmp)
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
    return PostTable(num_bins=quantizer.total_bins, alphabet_size=2,
                     bin_spec=quantizer.spec())


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


def evaluate_table(table: PostTable, batch: MinsumBatch) -> EvalReport:
    """Score a trained table on a batch, against the naive min-sum baseline.

    The baseline treats the raw min-sum LLR as if it were the true LLR; its
    output rows are floored before the divergence since extreme LLRs
    produce exact zeros that the reference posteriors never have. Both
    divergences share one ``sum p log2 p`` over the batch; the baseline's
    rows are built one block at a time.
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
    mi = soft_mi(batch.truths, q[batch.bins]) if batch.truths is not None else math.nan
    return EvalReport(empirical_ed=ed, soft_mi=mi, baseline_ed=baseline, count=len(batch))


# -- discretized surrogate chain ----------------------------------------


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _branch_level_probs(sigma: float, mag_edges: np.ndarray) -> np.ndarray:
    """(2, levels) table: P(level | bit) for one branch.

    Levels 0..M-1 are positive-LLR magnitude cells, M..2M-1 the negative
    mirror; LLR cell bounds map to observation bounds via y = l*sigma^2/2.
    """
    m = mag_edges.size - 1
    out = np.empty((2, 2 * m))
    for bit, mu in ((0, 1.0), (1, -1.0)):
        for cell in range(m):
            lo, hi = mag_edges[cell], mag_edges[cell + 1]
            y_lo, y_hi = lo * sigma**2 / 2.0, hi * sigma**2 / 2.0
            pos = _phi((y_hi - mu) / sigma) - _phi((y_lo - mu) / sigma)
            neg = _phi((-y_lo - mu) / sigma) - _phi((-y_hi - mu) / sigma)
            out[bit, cell] = pos
            out[bit, m + cell] = neg
    return out


@dataclass(frozen=True)
class SurrogateChain:
    """Exactly enumerable stand-in for the continuous check-node experiment.

    Y is the tuple of per-branch quantized LLR levels; Z applies the
    min-sum pairing (min magnitude level, sign product) to Y. The chain
    oracle can then evaluate trained tables and the divergence floor
    without Monte Carlo.
    """

    model: chains.ChainModel
    z_of_y: np.ndarray  # (ny,) bin index of each y tuple
    num_z: int
    levels_per_branch: int

    def divergence_floor(self) -> float:
        return chains.divergence_floor(self.model)

    def sample_batch(self, n: int, seed: int, stream: int = 0) -> SampleBatch:
        rng = make_rng(seed, 2, stream)
        post_xy = chains.posterior_table_xy(self.model)
        ys = rng.choice(self.model.ny, size=n, p=self.model.py())
        xs = (rng.random(n) >= post_xy[ys, 0]).astype(int)  # binary: P(x=0) first
        return SampleBatch(posteriors=post_xy[ys], bins=self.z_of_y[ys], truths=xs)

    def new_table(self) -> PostTable:
        return PostTable(num_bins=self.num_z, alphabet_size=2,
                         bin_spec={"kind": "surrogate-minsum", "num_bins": self.num_z})

    def exact_ed(self, q: np.ndarray) -> float:
        return chains.expected_divergence(self.model, q)


def surrogate_chain(sigmas, levels_per_branch: int = 8,
                    max_branch_magnitude: float = 8.0) -> SurrogateChain:
    """Build the discrete chain for branch LLRs quantized to a few levels."""
    sig = np.asarray(sigmas, dtype=float)
    d = sig.size
    if levels_per_branch % 2 or levels_per_branch < 2:
        raise ValueError("levels_per_branch must be even (sign * magnitude cells)")
    m = levels_per_branch // 2
    edges = np.linspace(0.0, max_branch_magnitude, m + 1)
    edges[-1] = math.inf  # top magnitude cell is open
    branch = [_branch_level_probs(s, edges) for s in sig]

    # P(level tuple | x) through the XOR mixture over branch bits
    even = branch[0][0]
    odd = branch[0][1]
    for a in branch[1:]:
        even, odd = (
            np.multiply.outer(even, a[0]) + np.multiply.outer(odd, a[1]),
            np.multiply.outer(even, a[1]) + np.multiply.outer(odd, a[0]),
        )
    scale = 2.0 ** (d - 1)
    ch1 = np.stack([even.ravel() / scale, odd.ravel() / scale])

    # Z = (sign product, min magnitude level) read directly off the levels
    grids = np.meshgrid(*([np.arange(levels_per_branch)] * d), indexing="ij")
    levels = np.stack([g.ravel() for g in grids], axis=1)  # (ny, d)
    mag_levels = levels % m
    negs = (levels >= m).sum(axis=1)
    z_of_y = np.where(negs % 2 == 1, m, 0) + mag_levels.min(axis=1)

    ny = levels.shape[0]
    ch2 = np.zeros((ny, 2 * m))
    ch2[np.arange(ny), z_of_y] = 1.0
    model = chains.ChainModel(px=np.array([0.5, 0.5]), ch1=ch1, ch2=ch2)
    return SurrogateChain(model=model, z_of_y=z_of_y, num_z=2 * m,
                          levels_per_branch=levels_per_branch)

