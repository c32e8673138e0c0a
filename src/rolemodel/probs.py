"""Finite-alphabet probability row kernels.

A pmf over symbol indices 0..q-1 is a numpy row; every kernel here works
row-wise along the last axis, so one call covers a whole batch. All
information quantities are in bits (log base 2).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, ZeroMassAtTruth

#: Floors, each applied by floor_rows (raise to the floor, renormalize),
#: bitwise alike on the min-sum baseline's two columns:
#: DEFAULT_FLOOR on rows that a divergence or soft MI scores (min-sum
#: baseline, calibrate_sigma, EXIT mass at the truth, alpha objective);
#: MESSAGE_FLOOR on sudoku BP and EXIT variable-node messages, so products
#: of messages keep every symbol; GIVEN_FLOOR on classic-mode givens.
DEFAULT_FLOOR = 1e-12
MESSAGE_FLOOR = 1e-30
GIVEN_FLOOR = 1e-9


def floor_rows(rows: np.ndarray, eps: float, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise floor-and-renormalize at ``eps`` (one of the floors above) for pmf rows.

    ``out``, if given, receives the result; it may be ``rows`` itself.
    """
    r = np.maximum(np.asarray(rows, dtype=float), eps, out=out)
    r /= r.sum(axis=-1, keepdims=True)
    return r


def square_is_normal(x) -> np.ndarray:
    """Whether x > 0 and x^2 is a finite normal float, elementwise.

    The noise levels sigma must pass: outside that range the LLRs
    2y / sigma^2 and the logits y / sigma^2 divide by zero or overflow.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        sq = x * x
    return (x > 0) & (sq >= np.finfo(float).tiny) & (sq < math.inf)


def log2_masked(a) -> np.ndarray:
    """log2 a where a > 0 and 0 elsewhere, so ``p * log2_masked(p)`` has 0 log 0 = 0."""
    a = np.asarray(a, dtype=float)
    out = np.where(a > 0, a, 1.0)
    return np.log2(out, out=out)


def entropy_rows(rows) -> np.ndarray:
    """Shannon entropy in bits of each pmf along the last axis."""
    p = np.asarray(rows, dtype=float)
    return -(p * log2_masked(p)).sum(axis=-1)


def divergence_rows(p, q, *, _log_p=None, _work=None) -> np.ndarray:
    """Row-wise D(p || q) in bits; log2 q is taken only where p > 0, so a zero there gives inf.

    A caller that scores the same p against many q computes ``_log_p`` once:
    ``(log2_masked(p), where)``, with where ``p > 0``, or True for q that
    are positive pmf rows, since where p = 0 both give a +0.0 term.
    ``_work``, if given, is a zero-filled array of the broadcast shape that
    holds the terms, so the caller's next q allocates nothing.
    """
    p = np.asarray(p, dtype=float)
    log_p, support = (log2_masked(p), p > 0) if _log_p is None else _log_p
    terms = np.zeros(np.broadcast_shapes(p.shape, np.shape(q))) if _work is None else _work
    np.log2(q, out=terms, where=support)
    np.subtract(log_p, terms, out=terms)
    terms *= p
    return terms.sum(axis=-1)


def soft_mi(truths, messages, weights=None) -> float:
    """Cross-entropy-based soft information of messages about the truths, in bits.

    ``log2 q - mean_k(-log2 m_k(x_k))``, clamped below at 0. Equals the true
    conditional mutual information when the messages are calibrated
    posteriors. ``weights`` (all ones if not given) holds one non-negative
    count per row and makes the mean a weighted one: a row of weight w
    stands for w samples, so per-(bin, truth) counts score a whole batch in
    one row per pair. A row of weight 0 is not scored.
    """
    t = np.asarray(truths, dtype=int)
    m = np.asarray(messages, dtype=float)
    if t.size == 0:
        raise ValueError("empty sample sequence")
    if m.ndim != 2 or m.shape[0] != t.size:
        raise DimensionMismatch("need one message row per truth symbol")
    at_truth = m[np.arange(t.size), t]
    w = np.ones(t.shape) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != t.shape:
        raise DimensionMismatch("need one weight per truth symbol")
    total = float(w.sum())
    if not (np.all(w >= 0) and 0 < total < math.inf):
        raise ValueError("weights must be finite, non-negative, and not all zero")
    scored = w > 0
    zero = np.flatnonzero(scored & (at_truth == 0))
    if zero.size:
        raise ZeroMassAtTruth(int(zero[0]))
    logs = -np.log2(at_truth[scored])
    mean = float((w[scored] * logs).sum()) / total
    return max(math.log2(m.shape[1]) - mean, 0.0)
