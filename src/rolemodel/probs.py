"""Finite-alphabet probability primitives.

Distributions are probability mass functions over symbol indices 0..q-1.
All information quantities are in bits (log base 2). Binary log-likelihood
ratios are plain floats in natural-log units with the convention
``llr = ln(p0 / p1)`` (positive favors symbol 0); ``math.inf`` / ``-math.inf``
are the sentinels for the degenerate distributions (1,0) / (0,1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AbsoluteContinuityViolation, DimensionMismatch, ZeroMassAtTruth

#: Floors, each applied by floor_rows (raise to the floor, renormalize):
#: DEFAULT_FLOOR on rows that a divergence or soft MI scores (min-sum
#: baseline, calibrate_sigma, EXIT mass at the truth, alpha objective);
#: MESSAGE_FLOOR on sudoku BP and EXIT variable-node messages, so products
#: of messages keep every symbol; GIVEN_FLOOR on classic-mode givens.
DEFAULT_FLOOR = 1e-12
MESSAGE_FLOOR = 1e-30
GIVEN_FLOOR = 1e-9


def normalize(weights) -> np.ndarray:
    """Scale non-negative weights to sum exactly to 1 (idempotent)."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("negative weight in distribution")
    total = w.sum()
    if total <= 0 or not np.isfinite(total):
        raise ValueError(f"weights sum to {total}, cannot normalize")
    return w / total


@dataclass(frozen=True)
class Distribution:
    """Immutable pmf over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("distribution must be a non-empty 1-d vector")
        if np.any(p < 0):
            raise ValueError("negative probability")
        total = p.sum()
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"probabilities sum to {total}, not 1")
        p = p / total
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_weights(cls, weights) -> "Distribution":
        return cls(normalize(weights))

    @classmethod
    def uniform(cls, q: int) -> "Distribution":
        return cls(np.full(q, 1.0 / q))

    @classmethod
    def one_hot(cls, q: int, symbol: int) -> "Distribution":
        p = np.zeros(q)
        p[symbol] = 1.0
        return cls(p)

    @property
    def q(self) -> int:
        return self.probs.size

    def floor(self, eps: float = DEFAULT_FLOOR) -> "Distribution":
        """Raise every entry to at least ``eps`` and renormalize."""
        return Distribution(floor_rows(self.probs, eps))

    def __array__(self, dtype=None):
        return np.asarray(self.probs, dtype=dtype)

    def __len__(self) -> int:
        return self.probs.size

    def __getitem__(self, i):
        return self.probs[i]


def floor_rows(rows: np.ndarray, eps: float = DEFAULT_FLOOR) -> np.ndarray:
    """Row-wise floor-and-renormalize for a matrix whose rows are pmfs."""
    r = np.maximum(np.asarray(rows, dtype=float), eps)
    return r / r.sum(axis=-1, keepdims=True)


def log2_masked(a) -> np.ndarray:
    """log2 a where a > 0 and 0 elsewhere, so ``p * log2_masked(p)`` has 0 log 0 = 0."""
    a = np.asarray(a, dtype=float)
    out = np.where(a > 0, a, 1.0)
    return np.log2(out, out=out)


def entropy_rows(rows) -> np.ndarray:
    """Shannon entropy in bits of each pmf along the last axis."""
    p = np.asarray(rows, dtype=float)
    return -(p * log2_masked(p)).sum(axis=-1)


def divergence_rows(p, q) -> np.ndarray:
    """Row-wise D(p || q) in bits; log2 q is taken only where p > 0, so a zero there gives inf."""
    p = np.asarray(p, dtype=float)
    logq = np.log2(q, out=np.zeros(np.broadcast_shapes(p.shape, np.shape(q))), where=p > 0)
    return (p * (log2_masked(p) - logq)).sum(axis=-1)


def divergence(p, q) -> float:
    """K-L divergence D(p||q) in bits; terms with p(x)=0 contribute 0."""
    pa = np.asarray(p, dtype=float)
    qa = np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise DimensionMismatch(f"alphabet sizes differ: {pa.shape} vs {qa.shape}")
    if np.any((pa > 0) & (qa == 0)):
        raise AbsoluteContinuityViolation("p has mass where q is zero")
    return float(divergence_rows(pa, qa))


def entropy(p) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    return float(entropy_rows(p))


def llr_to_dist(llr: float) -> Distribution:
    """Binary distribution (p0, p1) for ``llr = ln(p0/p1)``; +-inf allowed."""
    l = float(llr)
    if math.isinf(l):
        return Distribution.one_hot(2, 0 if l > 0 else 1)
    # evaluate the stable branch of the logistic pair
    if l >= 0:
        z = math.exp(-l)
        p0, p1 = 1.0 / (1.0 + z), z / (1.0 + z)
    else:
        z = math.exp(l)
        p0, p1 = z / (1.0 + z), 1.0 / (1.0 + z)
    return Distribution(np.array([p0, p1]))


def dist_to_llr(p) -> float:
    """Inverse of :func:`llr_to_dist`; maps (1,0)/(0,1) to +-inf."""
    pa = np.asarray(p, dtype=float)
    if pa.shape != (2,):
        raise DimensionMismatch("LLR view requires a binary alphabet")
    if pa[1] == 0:
        return math.inf
    if pa[0] == 0:
        return -math.inf
    return math.log(pa[0]) - math.log(pa[1])


def llrs_to_dists(llrs, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized :func:`llr_to_dist`: (N,) finite LLRs -> (N, 2) rows.

    Writes the rows into ``out`` (shape (N, 2)) when it is given.
    """
    l = np.asarray(llrs, dtype=float)
    if out is None:
        out = np.empty(l.shape + (2,))
    small = np.exp(-np.abs(l))
    big = 1.0 + small
    small /= big
    np.divide(1.0, big, out=big)
    pos = l >= 0
    p0, p1 = out[..., 0], out[..., 1]
    np.copyto(p0, small)
    np.copyto(p0, big, where=pos)
    np.copyto(p1, big)
    np.copyto(p1, small, where=pos)
    return out


def soft_mi(truths, messages) -> float:
    """Cross-entropy-based soft information of messages about the truths, in bits.

    ``log2 q - mean_k(-log2 m_k(x_k))``, clamped below at 0. Equals the true
    conditional mutual information when the messages are calibrated
    posteriors.
    """
    t = np.asarray(truths, dtype=int)
    m = np.asarray(messages, dtype=float)
    if t.size == 0:
        raise ValueError("empty sample sequence")
    if m.ndim != 2 or m.shape[0] != t.size:
        raise DimensionMismatch("need one message row per truth symbol")
    at_truth = m[np.arange(t.size), t]
    zero = np.flatnonzero(at_truth == 0)
    if zero.size:
        raise ZeroMassAtTruth(int(zero[0]))
    q = m.shape[1]
    mi = math.log2(q) - float(np.mean(-np.log2(at_truth)))
    return max(mi, 0.0)
