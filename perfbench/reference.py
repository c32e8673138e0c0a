"""Brute-force permanents for the benchmark's output checks.

Shares no code with ``rolemodel``: a permanent is the sum over every
permutation of the product of the selected entries, enumerated explicitly.
All terms of a probability matrix are non-negative, so the sum keeps full
relative accuracy even when the matrix is close to a permutation matrix.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np


@functools.lru_cache(maxsize=None)
def _permutations(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)


def permanent(m) -> float:
    """sum over permutations s of prod_i m[i, s(i)]; 1 for an empty matrix."""
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("permanent needs a square matrix")
    if n == 0:
        return 1.0
    return float(a[np.arange(n), _permutations(n)].prod(axis=1).sum())


def minor_permanents(m) -> np.ndarray:
    """Matrix of perm(m without row i and column j)."""
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        rows = np.delete(a, i, axis=0)
        for j in range(n):
            out[i, j] = permanent(np.delete(rows, j, axis=1))
    return out


def constraint_rows(m) -> np.ndarray:
    """Exact constraint-node output: each row of minor permanents normalized."""
    minors = minor_permanents(m)
    return minors / minors.sum(axis=1, keepdims=True)
