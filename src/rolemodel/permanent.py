"""Matrix permanents: the batched minor kernel and the head/tail split.

Constraint nodes need every minor permanent perm(A without row i and
column j), and these are the only permanents the package computes.
:func:`minor_permanents`, the one kernel, computes all n^2 of them for a
batch of matrices at once by forward/backward subset dynamic programming:

    f_k[S] = permanent of rows 0..k-1 on column set S, |S| = k
    b_r[T] = permanent of rows r..n-1 on column set T, |T| = n - r
    minor(i, j) = sum over |S| = i, j not in S of f_i[S] * b_{i+1}[full - S - {j}]

That is O(n^2 2^n) work per matrix (n = 20 at most) in about 10n numpy
calls per batch, over two column-set-major (2^n - 1, B) tables, one for f
and one for b: one row per column set, the batch innermost, so every gather
index copies a contiguous B-long row. Each level f_k or b_{n-k} sums its k
terms per column set over axis 0, as k whole-row adds in sequence. The
minors are read off one row i at a time. The gather indices depend only on
n and are built once per n.
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

import numpy as np

from .errors import DimensionTooLarge

MINORS_MAX_N = 20


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"(n, n) or (B, n, n) matrix required, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


# -- batched minors ----------------------------------------------------


@functools.lru_cache(maxsize=None)
def _minor_plan(n: int) -> tuple[tuple, tuple]:
    """Gather indices of the subset DP for one n: ``(levels, readout)``.

    Subsets of the n columns are numbered by (size, bitmask); a table holds
    every subset but the full set, in that order, one row per subset. The
    forward table holds the values f, the backward table the values b.
    ``levels`` holds, per level k = 1..n-1, ``(lo, hi, parents, members)``:
    the table rows of the C subsets of size k, a (k, C) array of each
    subset's parents (the subset less one member), and for f_k and
    b_{n-k} the (k, C) indices of those members' entries in the added row
    (row k-1 and row n-k) of the (n^2, B) entry rows.
    ``readout`` holds, per minor row i, ``(head, tail, starts)``: the table
    index of S with |S| = i and of full - S - {j}, ordered by (j, S), and
    the first term of each j.
    """
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
        members = members.T.copy()
        levels.append((offsets[k], offsets[k + 1], parents.T.copy(),
                       ((k - 1) * n + members, (n - k) * n + members)))

    full = (1 << n) - 1
    readout = []
    for i in range(n):
        subsets = level(i)
        j, s = np.nonzero(((subsets[None, :] >> columns[:, None]) & 1) == 0)
        readout.append((pos[subsets[s]], pos[full ^ subsets[s] ^ (1 << j)],
                        columns * math.comb(n - 1, i)))
    return tuple(levels), tuple(readout)


@functools.lru_cache(maxsize=1)
def _workspace(n: int, batch: int) -> tuple:
    """Scratch arrays and step plan of :func:`minor_permanents` for one (n, B), kept for its next call.

    Returns ``(f, b, steps, reads)``: the f and b tables, their empty-set
    row 0 already 1, then every step of the DP with its views into two term
    buffers that each hold the largest (k, C, B) level or read-out, k
    binomial(n, k) rows. ``steps`` holds, per level k = 1..n-1, one step
    for f_k and then one for b_{n-k}: ``(table, parents, members, terms,
    factors, table[lo:hi])``, with the plan's indices and the level's
    (k, C, B) term and factor views. ``reads`` holds, per minor row i,
    ``(head, tail, starts, terms, factors)``. Building these views once saves the ~50 that a call would
    otherwise build, about a quarter of a single-matrix call at n = 9.
    Only the last shape is kept. Arrays of this size (110-140 KB at n = 9,
    B = 27), freed after every call, go back to the system or not
    depending on the heap's layout; when they do, every call faults their
    pages in afresh, at about the cost of the arithmetic. Shared arrays
    make the kernel not re-entrant across threads; the package starts
    none.
    """
    levels, readout = _minor_plan(n)
    size = (1 << n) - 1
    most = max(k * math.comb(n, k) for k in range(1, n + 1))
    f, b = np.empty((size, batch)), np.empty((size, batch))
    f[0] = b[0] = 1.0  # f_0 and b_n, the empty set; no step writes row 0
    work, spare = np.empty((most, batch)), np.empty((most, batch))
    steps = []
    for lo, hi, parents, members in levels:
        k, count = parents.shape
        terms = work[:k * count].reshape(k, count, batch)
        factors = spare[:k * count].reshape(k, count, batch)
        for table, added in zip((f, b), members):
            steps.append((table, parents, added, terms, factors, table[lo:hi]))
    reads = [(head, tail, starts, work[:head.size], spare[:tail.size])
             for head, tail, starts in readout]
    return f, b, tuple(steps), tuple(reads)


def minor_permanents(m) -> np.ndarray:
    """Permanents of every (i, j) minor of one (n, n) matrix or a (B, n, n) batch.

    Returns a new C-contiguous array of the input's shape. Forward/backward
    subset DP (module docstring) over two column-set-major (2^n - 1, B)
    tables, in arrays that the next call of the same shape reuses. The
    minors are allocated afresh on every call: at B = 1 the final transpose
    is already contiguous and returns a view, so a kept buffer would alias
    the previous call's result.
    """
    a = _as_square(m)
    n = a.shape[-1]
    if n < 2:
        raise ValueError("minors need n >= 2")
    if n > MINORS_MAX_N:
        raise DimensionTooLarge(f"subset DP capped at n={MINORS_MAX_N}")
    batch = a.reshape(-1, n, n)
    width = batch.shape[0]
    # entries[i * n + j]: entry (i, j), all of B
    entries = np.ascontiguousarray(batch.transpose(1, 2, 0)).reshape(n * n, width)
    f, b, steps, reads = _workspace(n, width)
    # take writes straight into out= only in "clip" mode ("raise" buffers it);
    # every plan index is in range, so clipping changes no value
    for table, parents, added, terms, factors, dest in steps:
        table.take(parents, axis=0, out=terms, mode="clip")
        terms *= entries.take(added, axis=0, out=factors, mode="clip")
        terms.sum(axis=0, out=dest)  # k whole-row adds, in sequence
    # One minor row at a time: each read-out holds at most binomial(n - 1, n // 2) n
    # rows, not 2^(n-1) n, and fits a term buffer.
    minors = np.empty((n, n, width))
    for i, (head, tail, starts, terms, factors) in enumerate(reads):
        f.take(head, axis=0, out=terms, mode="clip")
        terms *= b.take(tail, axis=0, out=factors, mode="clip")
        np.add.reduceat(terms, starts, axis=0, out=minors[i])
    # contiguous, so callers' row sums over j keep the bits of a last-axis sum
    return np.ascontiguousarray(minors.transpose(2, 0, 1)).reshape(a.shape)


# -- head/tail split ---------------------------------------------------


def head_tail_split(m, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Split each row of an (n, n) or (B, n, n) input into its h largest entries plus a uniform remainder.

    Returns ``(head, tails)``. ``head`` has the input's shape and keeps the
    h largest entries of each row, reduced by that row's uniform tail
    constant; ``tails``, shape (..., n), holds those constants, so
    ``head + tails[..., None]`` has the input's row sums.

    Ties in the selection break by (value desc, column asc): the head keeps
    every entry above the row's h-th largest value, then the first entries
    equal to it by column. The tail is summed in descending order. Head
    entries are clamped at 0; the h largest entries can never fall strictly
    below the mean of the remaining ones, so the clamp only absorbs
    rounding.
    """
    a = _as_square(m)
    n = a.shape[-1]
    if not 0 < h < n:
        raise ValueError(f"head size must be in (0, {n})")
    desc = -np.sort(-a, axis=-1)  # each row's values, largest first, contiguous
    tails = desc[..., h:].sum(axis=-1) / (n - h)
    cut = desc[..., h - 1, None]
    kept = a >= cut
    tied = desc[..., h] == desc[..., h - 1]  # rows where entries equal to the cut overflow the head
    if tied.any():
        rows, cuts = a[tied], cut[tied]
        above, equal = rows > cuts, rows == cuts
        room = h - above.sum(axis=-1, keepdims=True)
        kept[tied] = above | (equal & (np.cumsum(equal, axis=-1) <= room))
    head = np.where(kept, np.maximum(a - tails[..., None], 0.0), 0.0)
    return head, tails


def minor_permanents_split(head: np.ndarray, tails: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All head-minor and tail-minor permanents at once: (PH, PT).

    ``(head, tails)`` is the pair :func:`head_tail_split` returns. PH, of
    the head's shape, runs through :func:`minor_permanents` (the head is a
    matrix with at most h nonzeros per row). A tail minor has uniform rows,
    so its permanent is (n-1)! times the other rows' constants, the same
    for every column j: PT holds one value per row, shape (..., n). That
    product comes from exclusive prefix and suffix products, never from
    dividing by a tail value, which may be 0.
    """
    n = head.shape[-1]
    before = np.ones_like(tails)
    after = np.ones_like(tails)
    np.cumprod(tails[..., :-1], axis=-1, out=before[..., 1:])
    after[..., :-1] = np.cumprod(tails[..., :0:-1], axis=-1)[..., ::-1]
    return minor_permanents(head), math.factorial(n - 1) * before * after
