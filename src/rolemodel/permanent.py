"""Matrix permanents: reference kernels, the batched minor kernel and the head/tail split.

The reference kernels compute one permanent each: brute force over all n!
permutations (n <= 10), Ryser inclusion-exclusion (n <= 16), sparse row
expansion, and the closed form for rows of constant value.

Constraint nodes need every minor permanent perm(A without row i and
column j). :func:`minor_permanents` computes all n^2 of them for a batch of
matrices at once by forward/backward subset dynamic programming:

    f_k[S] = permanent of rows 0..k-1 on column set S, |S| = k
    b_r[T] = permanent of rows r..n-1 on column set T, |T| = n - r
    minor(i, j) = sum over |S| = i, j not in S of f_i[S] * b_{i+1}[full - S - {j}]

That is O(n^2 2^n) work per matrix (n = 20 at most) in about 8n numpy calls
per batch, over two batch-major (B, 2^n - 1) tables, one for f and one for
b. The gather indices depend only on n and are built once per n.
For non-negative input every step adds non-negative products, so (unlike
inclusion-exclusion) tiny minors of near-decided probability matrices keep
full relative accuracy, and a minor without a perfect matching comes out as
exactly 0. Each matrix's result is bitwise the same whatever batch it is in.

All values are computed in the linear domain; entries here are
probabilities, so products of up to 20 of them cannot overflow and
underflow is acceptable (results are compared relatively).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import DimensionTooLarge

BRUTEFORCE_MAX_N = 10
RYSER_MAX_N = 16
MINORS_MAX_N = 20


def _as_square(m, batched: bool = False) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim not in ((2, 3) if batched else (2,)) or a.shape[-1] != a.shape[-2]:
        kind = "(n, n) or (B, n, n)" if batched else "square"
        raise ValueError(f"{kind} matrix required, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def permanent_bruteforce(m) -> float:
    """Sum over all n! permutations; the reference every kernel is checked against.

    Permutations are consumed in chunks so the row-gather product runs
    vectorized without materializing all n! index tuples at once.
    """
    a = _as_square(m)
    n = a.shape[0]
    if n > BRUTEFORCE_MAX_N:
        raise DimensionTooLarge(f"brute force capped at n={BRUTEFORCE_MAX_N}")
    rows = np.arange(n)
    total = 0.0
    chunk: list[tuple[int, ...]] = []
    for p in permutations(range(n)):
        chunk.append(p)
        if len(chunk) == 40320:
            total += a[rows, np.array(chunk)].prod(axis=1).sum()
            chunk.clear()
    if chunk:
        total += a[rows, np.array(chunk)].prod(axis=1).sum()
    return float(total)


def permanent_ryser(m) -> float:
    """Ryser inclusion-exclusion with Gray-code column-sum updates, O(2^n * n)."""
    a = _as_square(m)
    n = a.shape[0]
    if n > RYSER_MAX_N:
        raise DimensionTooLarge(f"Ryser kernel capped at n={RYSER_MAX_N}")
    col_sums = np.zeros(n)
    total = 0.0
    gray = 0
    size = 0
    for k in range(1, 1 << n):
        bit = (k & -k).bit_length() - 1  # column toggled between consecutive Gray codes
        gray ^= 1 << bit
        if gray >> bit & 1:
            col_sums += a[:, bit]
            size += 1
        else:
            col_sums -= a[:, bit]
            size -= 1
        sign = -1.0 if (n - size) & 1 else 1.0
        total += sign * col_sums.prod()
    return float(total)


def permanent_uniform_rows(tail_values, n: int | None = None) -> float:
    """Permanent of the matrix whose row i is constant tail_values[i]: n! * prod(t)."""
    t = np.asarray(tail_values, dtype=float)
    if n is None:
        n = t.size
    if t.size != n:
        raise ValueError("need one constant per row")
    if n == 0:
        return 1.0
    return float(math.factorial(n) * t.prod())


def _permanent_sparse_rows(rows: list[list[tuple[int, float]]]) -> float:
    """Row expansion with used-column masking, zero pruning, and state memoization."""
    order = sorted(rows, key=len)  # fewest options first
    m = len(order)
    memo: dict[tuple[int, int], float] = {}

    def rec(r: int, used: int) -> float:
        if r == m:
            return 1.0
        key = (r, used)
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = 0.0
        for c, v in order[r]:
            if not used >> c & 1:
                total += v * rec(r + 1, used | 1 << c)
        memo[key] = total
        return total

    return rec(0, 0)


def permanent_sparse(m) -> float:
    """Exact permanent exploiting row sparsity; cheap when rows have few nonzeros."""
    a = _as_square(m)
    return float(_permanent_sparse_rows([[(j, v) for j, v in enumerate(row) if v != 0.0]
                                         for row in a]))


# -- batched minors ----------------------------------------------------


@dataclass(frozen=True)
class _MinorPlan:
    """Gather indices of the subset DP for one n.

    Subsets of the n columns are numbered by (size, bitmask); a table holds
    every subset but the full set, in that order, one row per matrix. The
    forward table holds the values f, the backward table the values b.
    """

    size: int  # 2^n - 1 table entries
    # per level k = 1..n-1: (lo, hi, f row, b row, parents, members, sum axis)
    levels: tuple
    head: np.ndarray  # table index of S, ordered by (i, j, S)
    tail: np.ndarray  # table index of full - S - {j}, same order
    starts: np.ndarray  # first term of each (i, j) group, row-major


@functools.lru_cache(maxsize=None)
def _minor_plan(n: int) -> _MinorPlan:
    masks = np.arange(1 << n)
    sizes = np.zeros_like(masks)
    for c in range(n):
        sizes += (masks >> c) & 1
    order = np.argsort(sizes, kind="stable")  # masks by (size, mask)
    pos = np.empty_like(order)
    pos[order] = masks
    offsets = np.concatenate([[0], np.cumsum([math.comb(n, k) for k in range(n + 1)])])
    columns = np.arange(n)

    def level(k: int) -> np.ndarray:
        return order[offsets[k] : offsets[k + 1]]

    levels = []
    for k in range(1, n):
        subsets = level(k)
        members = np.nonzero((subsets[:, None] >> columns) & 1)[1].reshape(-1, k)
        parents = pos[subsets[:, None] ^ (1 << members)]
        # The k terms of a level are summed in the order numpy gives a contiguous
        # last axis: in sequence below 8 terms, pairwise from 8 on. Below 8 the
        # indices are stored (k, C), so the gather is (B, k, C) and its sum over
        # axis 1 adds whole rows in that sequence; from 8 on (the last levels at
        # n >= 9, where C is small) they stay (C, k) and the gather is summed
        # over its last axis. Either way the bits are those of the last-axis sum.
        if k < 8:
            parents, members, axis = parents.T.copy(), members.T.copy(), 1
        else:
            axis = 2
        # f_k adds row k-1, b_{n-k} adds row n-k
        levels.append((offsets[k], offsets[k + 1], k - 1, n - k, parents, members, axis))

    full = (1 << n) - 1
    head, tail = [], []
    for i in range(n):
        subsets = level(i)
        j, s = np.nonzero(((subsets[None, :] >> columns[:, None]) & 1) == 0)
        head.append(pos[subsets[s]])
        tail.append(pos[full ^ subsets[s] ^ (1 << j)])
    group = np.repeat([math.comb(n - 1, i) for i in range(n)], n)
    starts = np.concatenate([[0], np.cumsum(group)[:-1]])
    return _MinorPlan(size=full, levels=tuple(levels), head=np.concatenate(head),
                      tail=np.concatenate(tail), starts=starts)


def minor_permanents(m) -> np.ndarray:
    """Permanents of every (i, j) minor of one (n, n) matrix or a (B, n, n) batch.

    Returns the input's shape. Forward/backward subset DP (module
    docstring) over two batch-major (B, 2^n - 1) tables.
    """
    a = _as_square(m, batched=True)
    n = a.shape[-1]
    if n < 2:
        raise ValueError("minors need n >= 2")
    if n > MINORS_MAX_N:
        raise DimensionTooLarge(f"subset DP capped at n={MINORS_MAX_N}")
    plan = _minor_plan(n)
    batch = a.reshape(-1, n, n)
    f = np.empty((batch.shape[0], plan.size))
    b = np.empty_like(f)
    f[:, 0] = b[:, 0] = 1.0  # f_0 and b_n: the empty set
    for lo, hi, f_row, b_row, parents, members, axis in plan.levels:
        for table, row in ((f, f_row), (b, b_row)):
            # take gives a C-contiguous gather, which fixes the sum order;
            # table[:, parents] would put the batch axis innermost
            terms = table.take(parents, axis=1)
            terms *= batch[:, row].take(members, axis=1)
            terms.sum(axis=axis, out=table[:, lo:hi])
    terms = f.take(plan.head, axis=1)
    terms *= b.take(plan.tail, axis=1)
    return np.add.reduceat(terms, plan.starts, axis=-1).reshape(a.shape)


# -- head/tail split ---------------------------------------------------


@dataclass(frozen=True)
class HeadTailSplit:
    """Decomposition M' = H + T of row-stochastic matrices, one or a batch.

    ``head`` keeps the h largest entries per row, reduced by that row's
    uniform tail constant; ``tail_values`` holds the per-row constants.
    Row sums of ``head + tail_values[..., None]`` match the original matrix.
    """

    head: np.ndarray  # (..., n, n), at most h nonzeros per row
    tail_values: np.ndarray  # (..., n)

    @property
    def n(self) -> int:
        return self.tail_values.shape[-1]


def head_tail_split(m, h: int = 3) -> HeadTailSplit:
    """Split each row of an (n, n) or (B, n, n) input into its h largest entries plus a uniform remainder.

    Ties in the selection break by (value desc, column asc). Head entries
    are clamped at 0; the h largest entries can never fall strictly below
    the mean of the remaining ones, so the clamp only absorbs rounding.
    """
    a = _as_square(m, batched=True)
    n = a.shape[-1]
    if not 0 < h < n:
        raise ValueError(f"head size must be in (0, {n})")
    order = np.argsort(-a, axis=-1, kind="stable")
    kept, rest = order[..., :h], order[..., h:]
    tails = np.take_along_axis(a, rest, axis=-1).sum(axis=-1) / (n - h)
    head = np.zeros_like(a)
    top = np.take_along_axis(a, kept, axis=-1)
    np.put_along_axis(head, kept, np.maximum(top - tails[..., None], 0.0), axis=-1)
    return HeadTailSplit(head=head, tail_values=tails)


def minor_permanents_split(split: HeadTailSplit) -> tuple[np.ndarray, np.ndarray]:
    """All head-minor and tail-minor permanents at once: (PH, PT), each of the head's shape.

    PH runs through :func:`minor_permanents` (the head is a matrix with at
    most h nonzeros per row). A tail minor has uniform rows, so its
    permanent is (n-1)! times the other rows' constants, constant in j. That
    product comes from exclusive prefix and suffix products, never from
    dividing by a tail value, which may be 0.
    """
    t = split.tail_values
    before = np.ones_like(t)
    after = np.ones_like(t)
    np.cumprod(t[..., :-1], axis=-1, out=before[..., 1:])
    after[..., :-1] = np.cumprod(t[..., :0:-1], axis=-1)[..., ::-1]
    pt = math.factorial(split.n - 1) * before * after
    return minor_permanents(split.head), np.repeat(pt[..., None], split.n, axis=-1)
