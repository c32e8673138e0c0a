"""Trainers for the estimator in training.

Non-parametric path: accumulate reference posteriors per degraded-statistic
bin and finalize to their per-bin average, which solves the per-bin convex
program exactly. Parametric path: derivative-free minimization of a frozen
empirical objective over a small vector of correction weights in [0,1].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AbsoluteContinuityViolation, BinOutOfRange, DimensionMismatch
from .probs import Distribution, log2_masked

TABLE_FORMAT_VERSION = 1


#: Rows per block where a batch is processed piecewise: 2^14 rows of a few
#: float64 columns stay in cache between the element-wise passes.
BLOCK = 1 << 14


class SampleBatch:
    """Column-wise batch of training samples.

    Stores posteriors as an (N, q) array plus parallel bin/truth vectors.
    """

    def __init__(self, posteriors, bins, truths=None):
        self.posteriors = np.asarray(posteriors, dtype=float)
        self.bins = np.asarray(bins, dtype=int)
        self.truths = None if truths is None else np.asarray(truths, dtype=int)
        if self.posteriors.ndim != 2 or self.posteriors.shape[0] != self.bins.size:
            raise DimensionMismatch("need one posterior row per bin index")
        if self.truths is not None and self.truths.size != self.bins.size:
            raise DimensionMismatch("need one truth per sample")

    def __len__(self) -> int:
        return self.bins.size


def _bin_sums(bins: np.ndarray, posteriors: np.ndarray, num_bins: int) -> np.ndarray:
    """(num_bins, q) sums of the posterior rows that fall in each bin."""
    return np.stack([np.bincount(bins, weights=posteriors[:, x], minlength=num_bins)
                     for x in range(posteriors.shape[1])], axis=1)


def plogp_sum(posteriors: np.ndarray) -> float:
    """sum_k sum_x p log2 p over posterior rows (0 log 0 = 0), one block at a time."""
    total = 0.0
    for start in range(0, posteriors.shape[0], BLOCK):
        p = posteriors[start:start + BLOCK]
        logs = log2_masked(p)
        logs *= p
        total += float(logs.sum())
    return total


class PostTable:
    """Per-bin accumulator of reference posteriors.

    Stores plain sums and counts (never running means) so shards can be
    merged exactly; ``finalize`` turns each non-empty bin into the average
    posterior and fills empty bins with the fallback distribution.
    Single-writer: share work by sharding samples across tables and merging.
    """

    def __init__(self, num_bins: int, alphabet_size: int, fallback=None, bin_spec=None):
        if num_bins < 1 or alphabet_size < 2:
            raise ValueError("need at least one bin and a binary alphabet")
        self.num_bins = num_bins
        self.alphabet_size = alphabet_size
        self.sums = np.zeros((num_bins, alphabet_size))
        self.counts = np.zeros(num_bins, dtype=np.int64)
        if fallback is None:
            fallback = Distribution.uniform(alphabet_size)
        elif not isinstance(fallback, Distribution):
            fallback = Distribution(np.asarray(fallback, dtype=float))
        if fallback.q != alphabet_size:
            raise DimensionMismatch("fallback alphabet differs from table alphabet")
        self.fallback = fallback
        self.bin_spec = dict(bin_spec) if bin_spec else {"kind": "index", "num_bins": num_bins}

    @property
    def count_total(self) -> int:
        return int(self.counts.sum())

    def ingest_batch(self, batch: SampleBatch) -> None:
        """Order-independent bulk accumulation of a whole batch."""
        if batch.posteriors.shape[1] != self.alphabet_size:
            raise DimensionMismatch("batch alphabet differs from table alphabet")
        if batch.bins.size and (batch.bins.min() < 0 or batch.bins.max() >= self.num_bins):
            bad = batch.bins[(batch.bins < 0) | (batch.bins >= self.num_bins)][0]
            raise BinOutOfRange(f"bin {bad} outside [0, {self.num_bins})")
        self.sums += _bin_sums(batch.bins, batch.posteriors, self.num_bins)
        self.counts += np.bincount(batch.bins, minlength=self.num_bins)

    def merge(self, other: "PostTable") -> None:
        """Fold another shard into this one (sums and counts add exactly)."""
        if (other.num_bins, other.alphabet_size) != (self.num_bins, self.alphabet_size):
            raise DimensionMismatch("cannot merge tables with different geometry")
        self.sums += other.sums
        self.counts += other.counts

    def finalize(self) -> np.ndarray:
        """Conditional table, one pmf row per bin (fallback where count = 0)."""
        out = np.tile(np.asarray(self.fallback), (self.num_bins, 1))
        filled = self.counts > 0
        rows = self.sums[filled] / self.counts[filled, None]
        out[filled] = rows / rows.sum(axis=1, keepdims=True)
        return out

    # -- persistence ---------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "version": TABLE_FORMAT_VERSION,
            "q": self.alphabet_size,
            "bin_spec": self.bin_spec,
            "fallback": list(np.asarray(self.fallback)),
            "bins": [
                {"sum": list(self.sums[b]), "count": int(self.counts[b])}
                for b in range(self.num_bins)
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PostTable":
        doc = json.loads(text)
        if doc.get("version") != TABLE_FORMAT_VERSION:
            raise ValueError(f"unsupported table version {doc.get('version')!r}")
        table = cls(
            num_bins=len(doc["bins"]),
            alphabet_size=int(doc["q"]),
            fallback=np.asarray(doc["fallback"], dtype=float),
            bin_spec=doc["bin_spec"],
        )
        for b, entry in enumerate(doc["bins"]):
            table.sums[b] = np.asarray(entry["sum"], dtype=float)
            table.counts[b] = int(entry["count"])
        return table


def empirical_ed(batch: SampleBatch, q: np.ndarray, plogp: float | None = None) -> float:
    """Time-averaged divergence (bits) of sample posteriors from table rows q.

    (1/N) sum_k D(posterior_k || q[statistic_k]); the finite-N approximation
    of the expected divergence being minimized. Evaluated as
    (1/N) [sum_k sum_x p log2 p - sum_b sum_x S[b,x] log2 q[b,x]], where S
    holds the per-bin posterior sums, so the table term takes one log per
    table entry. ``plogp`` is the first sum (:func:`plogp_sum`) when the
    caller already has it.
    """
    q = np.asarray(q, dtype=float)
    post, bins = batch.posteriors, batch.bins
    if post.shape[0] == 0:
        raise ValueError("empty sample sequence")
    if q.ndim != 2 or q.shape[1] != post.shape[1]:
        raise DimensionMismatch("table alphabet differs from sample alphabet")
    if bins.min() < 0 or bins.max() >= q.shape[0]:
        raise BinOutOfRange("sample statistic not covered by the table")
    sums = _bin_sums(bins, post, q.shape[0])
    mass = sums > 0
    bad = mass & (q == 0)
    if np.any(bad):
        k = int(np.nonzero(((post > 0) & bad[bins]).any(axis=1))[0][0])
        raise AbsoluteContinuityViolation(f"sample {k}: table row is zero where posterior has mass")
    if plogp is None:
        plogp = plogp_sum(post)
    return (plogp - float(np.sum(sums[mass] * np.log2(q[mass])))) / post.shape[0]


@dataclass(frozen=True)
class ParametricCorrector:
    """Vector of correction weights, one per slot, each in [0,1]."""

    alphas: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        if a.ndim != 1 or np.any(a < 0) or np.any(a > 1):
            raise ValueError("alphas must lie in [0,1]")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "alphas", a)


@dataclass
class TrainResult:
    corrector: ParametricCorrector
    objective_value: float
    evaluations: int
    budget_exhausted: bool
    trace: list = field(default_factory=list, repr=False)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
#: Golden-section bracket width that ends a coordinate search, and the least
#: improvement of a full coordinate cycle that starts another cycle.
_LINE_TOL, _CYCLE_TOL = 1e-4, 1e-6


def train_parametric(objective, slots: int, budget: int = 4000) -> TrainResult:
    """Minimize a deterministic objective over [0,1]^slots.

    Cyclic coordinate descent from 0.5 in every slot, each coordinate
    minimized by golden-section search to a bracket of ``_LINE_TOL``; stops
    when a full cycle improves by less than ``_CYCLE_TOL`` or the
    evaluation budget runs out (best-so-far returned with
    ``budget_exhausted`` set). The returned point is the best of every
    point evaluated along the search trace.
    """
    if slots < 1:
        raise ValueError("need at least one slot")
    alphas = np.full(slots, 0.5)

    state = {"evals": 0, "exhausted": False}
    best = {"x": alphas.copy(), "f": math.inf}
    trace: list[tuple[np.ndarray, float]] = []

    def evaluate(x: np.ndarray) -> float:
        if state["evals"] >= budget:
            state["exhausted"] = True
            raise _BudgetStop
        state["evals"] += 1
        f = float(objective(ParametricCorrector(x.copy())))
        trace.append((x.copy(), f))
        if f < best["f"]:
            best["x"], best["f"] = x.copy(), f
        return f

    def golden(i: int, current: float) -> float:
        incumbent = alphas[i]
        a, b = 0.0, 1.0
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        x = alphas
        x[i] = c
        fc = evaluate(x)
        x[i] = d
        fd = evaluate(x)
        while b - a > _LINE_TOL:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - _INVPHI * (b - a)
                x[i] = c
                fc = evaluate(x)
            else:
                a, c, fc = c, d, fd
                d = a + _INVPHI * (b - a)
                x[i] = d
                fd = evaluate(x)
        mid = 0.5 * (a + b)
        x[i] = mid
        fm = evaluate(x)
        # never leave the coordinate worse than it started
        pos, val = min(((incumbent, current), (c, fc), (d, fd), (mid, fm)), key=lambda t: t[1])
        x[i] = pos
        return val

    try:
        current = evaluate(alphas)
        while True:
            start = current
            for i in range(slots):
                current = golden(i, current)
            if start - current < _CYCLE_TOL:
                break
    except _BudgetStop:
        pass

    return TrainResult(
        corrector=ParametricCorrector(best["x"]),
        objective_value=best["f"],
        evaluations=state["evals"],
        budget_exhausted=state["exhausted"],
        trace=trace,
    )


class _BudgetStop(Exception):
    pass
