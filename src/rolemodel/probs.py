"""Finite-alphabet probability row kernels.

A pmf over symbol indices 0..q-1 is a numpy row; every kernel here works
row-wise along the last axis, so one call covers a whole batch. All
information quantities are in bits (log base 2). Binary log-likelihood
ratios are finite floats in natural-log units with the convention
``llr = ln(p0 / p1)`` (positive favors symbol 0).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, ZeroMassAtTruth

#: Floors, each applied by floor_rows (raise to the floor, renormalize):
#: DEFAULT_FLOOR on rows that a divergence or soft MI scores (min-sum
#: baseline, calibrate_sigma, EXIT mass at the truth, alpha objective);
#: MESSAGE_FLOOR on sudoku BP and EXIT variable-node messages, so products
#: of messages keep every symbol; GIVEN_FLOOR on classic-mode givens.
DEFAULT_FLOOR = 1e-12
MESSAGE_FLOOR = 1e-30
GIVEN_FLOOR = 1e-9


def floor_rows(rows: np.ndarray, eps: float = DEFAULT_FLOOR) -> np.ndarray:
    """Row-wise floor-and-renormalize for a matrix whose rows are pmfs."""
    r = np.maximum(np.asarray(rows, dtype=float), eps)
    return r / r.sum(axis=-1, keepdims=True)


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


def divergence_rows(p, q) -> np.ndarray:
    """Row-wise D(p || q) in bits; log2 q is taken only where p > 0, so a zero there gives inf."""
    p = np.asarray(p, dtype=float)
    logq = np.log2(q, out=np.zeros(np.broadcast_shapes(p.shape, np.shape(q))), where=p > 0)
    return (p * (log2_masked(p) - logq)).sum(axis=-1)


def llrs_to_dists(llrs, out: np.ndarray | None = None) -> np.ndarray:
    """Binary pmf rows (p0, p1) for finite ``llr = ln(p0/p1)``: (N,) -> (N, 2).

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
