"""The two trainers for the estimator in training; the min-sum pass and its block are in minsum.

Non-parametric path: accumulate reference posteriors, plain (N, q) rows
with their (N,) bins, per degraded-statistic bin and finalize to their
per-bin average, which solves the per-bin convex program exactly.
Parametric path: a golden-section search over a small vector of
correction weights in [0,1], run on every weight at once, of a frozen
empirical objective that scores each weight on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BinOutOfRange, DimensionMismatch


class PostTable:
    """Per-bin accumulator of reference posteriors.

    Takes plain arrays: (N, q) posterior rows and their (N,) bins. Stores
    plain sums and counts (never running means), each sum added to in
    sample order, so successive ``ingest_batch`` calls give bitwise the
    table of their concatenated rows; ``finalize`` turns each
    non-empty bin into the average posterior and fills empty bins with the
    uniform row. Single-writer.
    """

    def __init__(self, num_bins: int, alphabet_size: int):
        if num_bins < 1 or alphabet_size < 2:
            raise ValueError("need at least one bin and a binary alphabet")
        self.num_bins = num_bins
        self.alphabet_size = alphabet_size
        self.sums = np.zeros((num_bins, alphabet_size))
        self.counts = np.zeros(num_bins, dtype=np.int64)

    def ingest_batch(self, posteriors, bins) -> None:
        """Add (N, q) rows to the sums in place, in sample order, and their (N,) bins to counts."""
        posteriors, bins = np.asarray(posteriors, dtype=float), np.asarray(bins, dtype=int)
        if posteriors.shape != (bins.size, self.alphabet_size):
            raise DimensionMismatch(f"need one posterior row of {self.alphabet_size} per bin "
                                    f"index, got shape {posteriors.shape} for {bins.size} bins")
        if bins.size and (bins.min() < 0 or bins.max() >= self.num_bins):
            bad = bins[(bins < 0) | (bins >= self.num_bins)][0]
            raise BinOutOfRange(f"bin {bad} outside [0, {self.num_bins})")
        for x in range(self.alphabet_size):
            np.add.at(self.sums[:, x], bins, posteriors[:, x])
        np.add.at(self.counts, bins, 1)

    def finalize(self) -> np.ndarray:
        """Conditional table, one pmf row per bin (uniform where count = 0)."""
        out = np.full((self.num_bins, self.alphabet_size), 1.0 / self.alphabet_size)
        filled = self.counts > 0
        rows = self.sums[filled] / self.counts[filled, None]
        out[filled] = rows / rows.sum(axis=1, keepdims=True)
        return out


def empirical_ed(sums: np.ndarray, q: np.ndarray, plogp: float, count: int) -> float:
    """Time-averaged divergence (bits) of ``count`` sample posteriors from table rows q.

    (1/N) sum_k D(posterior_k || q[statistic_k]), the finite-N approximation
    of the expected divergence being minimized, from the samples' per-bin
    posterior sums S (``sums``) and their sum p log2 p (``plogp``):
    (1/N) [``plogp`` - sum_b sum_x S[b,x] log2 q[b,x]], the table term over
    the entries where S > 0, one log per table entry. The caller has checked
    that q is positive there.
    """
    mass = sums > 0
    return (plogp - float(np.sum(sums[mass] * np.log2(q[mass])))) / count


@dataclass(frozen=True)
class ParametricCorrector:
    """Vector of correction weights, one per slot, each in [0,1]."""

    alphas: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        if a.ndim != 1 or not np.all((a >= 0) & (a <= 1)):
            raise ValueError("alphas must lie in [0,1]")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "alphas", a)


@dataclass
class TrainResult:
    corrector: ParametricCorrector
    evaluations: int


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
#: Golden-section bracket width that ends the search: 20 steps from [0, 1].
_LINE_TOL = 1e-4


def train_parametric(objective, slots: int, budget: int = 4000) -> TrainResult:
    """Minimize a slot-separable objective over [0,1]^slots.

    ``objective`` maps a (slots,) weight array, which it must not write to,
    to ``slots`` values, value i depending on alpha_i alone, so every slot
    is minimized on its own. One golden-section search runs on every slot
    at once: each call scores one new point per slot, and all brackets
    shrink by the same factor, so every slot takes the same steps (24 calls
    at ``_LINE_TOL``: the all-0.5 start, the two first points, 20 steps and
    the final midpoints). Per slot the result is the first point that
    scored lowest, so it never loses to 0.5. A call past ``budget`` scores
    +inf in every slot without calling the objective; ``budget`` must be
    at least 1.
    """
    if slots < 1:
        raise ValueError("need at least one slot")
    if budget < 1:
        raise ValueError(f"the evaluation budget must be at least 1, got {budget}")
    evals = 0
    best_x, best_f = np.full(slots, 0.5), np.full(slots, math.inf)

    def evaluate(x: np.ndarray) -> np.ndarray:
        nonlocal evals, best_x, best_f
        if evals >= budget:
            return np.full(slots, math.inf)
        evals += 1
        f = np.asarray(objective(x), dtype=float)
        if f.shape != (slots,):
            raise ValueError(f"the objective must return one value per slot, got shape {f.shape}")
        better = f < best_f
        best_x, best_f = np.where(better, x, best_x), np.where(better, f, best_f)
        return f

    evaluate(best_x)
    a, b = np.zeros(slots), np.ones(slots)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = evaluate(c), evaluate(d)
    while (b - a).max() > _LINE_TOL:  # every bracket has the same width, up to rounding
        left = fc < fd  # keep [a, d] where c scored lower, else [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        fx = evaluate(x)
        c, fc, d, fd = (np.where(left, x, d), np.where(left, fx, fd),
                        np.where(left, c, x), np.where(left, fc, fx))
    evaluate(0.5 * (a + b))
    return TrainResult(corrector=ParametricCorrector(best_x), evaluations=evals)
