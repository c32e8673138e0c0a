"""Soft-sudoku belief propagation with permanent-based constraint nodes.

Every cell is observed through a noisy q-ary channel; rows, columns and
boxes are all-different constraints. A constraint node receives an n x n
message matrix M (row i = pmf of variable i) and returns to each variable
the probability of each symbol given the other n-1 variables, which is the
matrix of minor permanents perm(M with row i and column j removed), row
normalized. Three node variants are provided: exact, head/tail approximate
(fixed weight 0.5), and the alpha-corrected approximation with per-row
trainable weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BisectionFailure, DegenerateRow
from .permanent import head_tail_split, minor_permanents, minor_permanents_split
from .probs import (DEFAULT_FLOOR, GIVEN_FLOOR, MESSAGE_FLOOR, divergence_rows, floor_rows,
                    log2_masked, soft_mi, square_is_normal)
from .rng import make_rng
from .train import ParametricCorrector, TrainResult, train_parametric

BOX_SIDE = {4: 2, 9: 3}
NODE_KINDS = ("exact", "approx", "corrected")
#: The node kinds an EXIT chart can trace: the constraint nodes and the variable node.
EXIT_KINDS = (*NODE_KINDS, "variable")

#: Head size h of the approximate nodes: the h largest entries of each
#: message row form the sparse head, the rest a uniform tail.
HEAD_SIZE = 3


# -- puzzle and constraints ----------------------------------------------


def _box_side(n: int) -> int:
    if n not in BOX_SIDE:
        raise ValueError(f"unsupported sudoku size {n}; supported sizes are {sorted(BOX_SIDE)}")
    return BOX_SIDE[n]


@functools.lru_cache(maxsize=None)
def constraint_cells(n: int) -> np.ndarray:
    """Cell indices of the 3n constraints, shape (3n, n), built once per n and read-only.

    Constraint c is a row for c < n, a column for n <= c < 2n and a box
    after that, so its kind (0 row, 1 column, 2 box) is ``c // n``, and
    every cell sits in exactly one constraint of each kind.
    """
    b = _box_side(n)
    cells = np.arange(n * n).reshape(n, n)
    boxes = cells.reshape(b, b, b, b).transpose(0, 2, 1, 3).reshape(n, n)
    cons = np.concatenate([cells, cells.T, boxes])
    cons.flags.writeable = False
    return cons


@functools.lru_cache(maxsize=None)
def _node_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    """BP's node-order permutation ``(slots, back)``, built once per n and read-only.

    ``slots[r]`` is the row of node input r in BP's messages viewed as
    (3 n^2, n): the constraint's cell times 3 plus its kind, so every
    (cell, kind) slot appears once; ``back`` is the inverse permutation,
    node order -> (cell, kind).
    """
    slots = (constraint_cells(n) * 3 + np.arange(3 * n)[:, None] // n).ravel()
    back = np.argsort(slots)
    slots.flags.writeable = back.flags.writeable = False
    return slots, back


@functools.lru_cache(maxsize=None)
def _base_grid(n: int) -> np.ndarray:
    """The solved (n, n) pattern that :func:`random_puzzle` shuffles, built once per n and read-only."""
    b = _box_side(n)
    base = np.array([[(r * b + r // b + c) % n for c in range(n)] for r in range(n)])
    base.flags.writeable = False
    return base


def _sorted_constraint_values(n: int, grid: np.ndarray) -> np.ndarray:
    """The grid's values in each constraint, sorted, shape (3n, n)."""
    return np.sort(grid[constraint_cells(n)], axis=1)


def _check_solution(n: int, grid: np.ndarray) -> None:
    """Symbols in 0..n-1 (-1 for an unknown cell), and no known symbol twice in a constraint."""
    vals = _sorted_constraint_values(n, grid)
    if np.any((vals[:, 1:] == vals[:, :-1]) & (vals[:, 1:] >= 0)):
        raise ValueError("grid violates an all-different constraint")
    if vals.min() < -1 or vals.max() >= n:
        raise ValueError("symbols out of range")


def _satisfies(n: int, decisions: np.ndarray) -> bool:
    return bool(np.all(_sorted_constraint_values(n, decisions) == np.arange(n)))


@dataclass(frozen=True)
class Puzzle:
    """Ground-truth grid; ``givens`` marks revealed cells in classic mode.

    ``solution`` is flat row-major with symbols 0..n-1; classic puzzles may
    carry -1 at cells whose true value is unknown. ``givens`` is a flat
    n^2 mask, and every given cell holds a known symbol.
    """

    n: int
    solution: np.ndarray
    givens: np.ndarray | None = None

    def __post_init__(self):
        sol = np.asarray(self.solution, dtype=int)
        if sol.shape != (self.n * self.n,):
            raise ValueError("solution must be a flat n^2 vector")
        if self.givens is None and np.any(sol < 0):
            raise ValueError("unknown cells require a givens mask")
        _check_solution(self.n, sol)
        sol = sol.copy()
        sol.flags.writeable = False
        object.__setattr__(self, "solution", sol)
        if self.givens is not None:
            g = np.asarray(self.givens, dtype=bool).copy()
            if g.shape != sol.shape:
                raise ValueError("givens must be a flat n^2 mask")
            if np.any(g & (sol < 0)):
                raise ValueError("a given cell needs a known symbol")
            g.flags.writeable = False
            object.__setattr__(self, "givens", g)

    @property
    def truth_known(self) -> bool:
        return not np.any(self.solution < 0)


def random_puzzle(n: int, rng: np.random.Generator) -> Puzzle:
    """Seeded random solved grid via symbol/band/stack shuffles of a base pattern."""
    base = _base_grid(n)
    b = BOX_SIDE[n]
    symbols = rng.permutation(n)
    grid = symbols[base]
    row_order = np.concatenate([band * b + rng.permutation(b) for band in rng.permutation(b)])
    col_order = np.concatenate([stack * b + rng.permutation(b) for stack in rng.permutation(b)])
    grid = grid[row_order][:, col_order]
    if rng.integers(2):
        grid = grid.T
    return Puzzle(n=n, solution=grid.ravel())


def parse_grid(text: str, n: int) -> Puzzle:
    """Row-major digits, symbols 1..n; '0' marks an unknown cell (classic mode)."""
    digits = [ch for ch in text if not ch.isspace()]
    if n not in BOX_SIDE or len(digits) != n * n:
        raise ValueError(f"expected {n}x{n} grid, got {len(digits)} symbols")
    vals = np.array([int(ch, 16) for ch in digits])
    if np.any(vals > n):
        raise ValueError("symbol out of range")
    givens = vals > 0
    if np.all(givens):
        return Puzzle(n=n, solution=vals - 1)
    return Puzzle(n=n, solution=vals - 1, givens=givens)


# -- observation channel -------------------------------------------------


@dataclass(frozen=True)
class ChannelModel:
    """q-ary orthogonal signaling over AWGN: y = one_hot(s) + sigma * noise."""

    sigma: float
    q: int = 9

    def __post_init__(self):
        if not square_is_normal(self.sigma):
            raise ValueError(f"sigma must be positive, its square a finite normal float; "
                             f"got {self.sigma}")

    @classmethod
    def from_snr_db(cls, snr_db: float, q: int = 9) -> "ChannelModel":
        """The channel at ``snr_db``; ValueError naming the snr when its sigma is not valid."""
        try:
            sigma = 10.0 ** (-snr_db / 20.0)
        except OverflowError:  # a sigma past the float range; rejected as infinite
            sigma = math.inf
        if not square_is_normal(sigma):
            raise ValueError(f"snr {snr_db} dB gives no valid channel: its sigma "
                             f"10^(-snr/20) = {sigma} must have a finite normal square")
        return cls(sigma=sigma, q=q)

    def observe(self, symbols, rng: np.random.Generator) -> np.ndarray:
        s = np.asarray(symbols, dtype=int)
        return self.receive(s, rng.standard_normal((s.size, self.q)))

    def receive(self, symbols, noise: np.ndarray) -> np.ndarray:
        """Channel outputs for ``symbols`` of any shape, given noise of that shape plus (q,)."""
        s = np.asarray(symbols, dtype=int)
        y = self.sigma * noise
        y[(*np.indices(s.shape, sparse=True), s)] += 1.0
        return y

    def posterior(self, y: np.ndarray) -> np.ndarray:
        """Exact symbol posterior, proportional to exp(y_j / sigma^2)."""
        logits = np.asarray(y, dtype=float) / self.sigma**2
        logits = logits - logits.max(axis=-1, keepdims=True)
        w = np.exp(logits)
        return w / w.sum(axis=-1, keepdims=True)


# -- constraint nodes ----------------------------------------------------


def constraint_exact(m: np.ndarray) -> np.ndarray:
    """Outgoing messages from the exact node: normalized minor permanents.

    ``m`` is one (n, n) message matrix or a (B, n, n) batch. A row that
    excludes every configuration raises :class:`DegenerateRow` naming the
    row and, for a batch, the matrix (the constraint in BP, the trial in
    EXIT).
    """
    perms = minor_permanents(m)  # a fresh array, normalized in place
    sums = perms.sum(axis=-1)
    dead = np.argwhere(sums <= 0)
    if dead.size:
        *index, row = (int(v) for v in dead[0])
        raise DegenerateRow(row, *index)
    return np.divide(perms, sums[..., None], out=perms)


def _alpha_mix(alphas, ph: np.ndarray, pt: np.ndarray,
               out: np.ndarray) -> tuple[np.ndarray, int]:
    """Row-normalized alpha_i PH + (1 - alpha_i) PT in ``out``, and how many zero-sum rows went uniform.

    ``alphas`` is one weight for every row or one per row; ``pt`` holds one
    tail-minor value per row. ``out`` has PH's shape and may be PH itself.
    """
    a = np.asarray(alphas, dtype=float)[..., None]
    combined = np.multiply(a, ph, out=out)
    combined += (1.0 - a) * pt[..., None]
    sums = combined.sum(axis=-1)
    dead = sums <= 0
    fallback_rows = int(dead.sum())
    if fallback_rows:
        combined[dead] = 1.0
        sums = combined.sum(axis=-1)
    combined /= sums[..., None]
    return combined, fallback_rows


def constraint_approx(m: np.ndarray, alphas) -> tuple[np.ndarray, int]:
    """Head/tail approximate node with correction weights: ``(rows, fallback_rows)``.

    ``m`` is one (n, n) message matrix or a (B, n, n) batch, split with
    head size ``HEAD_SIZE``. alpha_i weights the head-minor permanent
    against the tail-minor permanent in row i; ``alphas`` is one weight for
    every row or one per row. Rows whose weighted sum vanishes fall back to
    uniform, and ``fallback_rows`` counts them. The rows are mixed into the
    head minors the kernel has just allocated.
    """
    ph, pt = minor_permanents_split(*head_tail_split(m, HEAD_SIZE))
    return _alpha_mix(alphas, ph, pt, ph)


def node_function(kind: str, alphas=None):
    """Bind a constraint-node variant to a callable m -> ``(rows, fallback_rows)``.

    ``m`` is one matrix or a batch, and ``rows`` has its shape. The exact
    node never falls back (a degenerate row raises :class:`DegenerateRow`),
    so its count is 0.
    """
    if kind == "exact":
        return lambda m: (constraint_exact(m), 0)
    if kind == "approx":
        return lambda m: constraint_approx(m, 0.5)
    if kind == "corrected":
        if alphas is None:
            raise ValueError("corrected node needs trained alphas (--alpha-table)")
        return lambda m: constraint_approx(m, alphas)
    raise ValueError(f"unknown node kind {kind!r}; expected one of {NODE_KINDS}")


# -- belief propagation --------------------------------------------------


@dataclass
class BpResult:
    solved: bool
    iterations: int
    beliefs: np.ndarray  # (n^2, q)
    decisions: np.ndarray  # (n^2,)
    symbol_error_rate: float
    degenerate_rows: int = 0


def observation_messages(puzzle: Puzzle, channel: ChannelModel | None,
                         rng: np.random.Generator) -> np.ndarray:
    """Per-cell observation posteriors: channel draws, or one-hot givens."""
    n = puzzle.n
    if channel is not None:
        if not puzzle.truth_known:
            raise ValueError("channel observations need a fully known solution")
        return channel.posterior(channel.observe(puzzle.solution, rng))
    if puzzle.givens is None:
        raise ValueError("classic mode needs a givens mask")
    post = np.full((n * n, n), 1.0 / n)
    hot = floor_rows(np.eye(n), GIVEN_FLOOR)
    post[puzzle.givens] = hot[puzzle.solution[puzzle.givens]]
    return post


def bp_solve(puzzle: Puzzle, channel: ChannelModel | None, node, *, max_iters: int = 30,
             damping: float = 0.9, seed: int = 0, stream: int = 0) -> BpResult:
    """Flooding-schedule BP over the sudoku factor graph.

    ``node`` is the constraint node, a callable m -> ``(rows, fallback_rows)``
    such as :func:`node_function` returns. BP calls it once per iteration on
    a fresh (3n, n, q) stack of the constraint nodes' inputs, in constraint
    order, and never writes to that stack or the returned rows afterwards,
    so a node may keep both. ``damping`` is the weight of the new
    constraint-to-variable message (1.0 disables damping). Terminates as
    soon as the per-cell hard decision satisfies every constraint.
    Observations are drawn from the stream (seed, stream), so paired-seed
    runs of different node variants see identical inputs.
    ``degenerate_rows`` sums the node calls' fallback rows. ``max_iters``
    may be 0, which leaves the channel's decisions.
    BP updates its own messages in place: it permutes the node's rows
    into one copy of its own (node order from :func:`_node_order`, built
    once per n) and floors and damps that copy, and it writes the variable
    update into its ``v2c`` buffer, which the next iteration's stack is
    gathered from. It skips that update after the last iteration, which
    nothing reads.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must be in (0, 1]")
    if max_iters < 0:
        raise ValueError(f"max_iters must be at least 0, got {max_iters}")
    n = puzzle.n
    slots, back = _node_order(n)
    channel_post = observation_messages(puzzle, channel, make_rng(seed, 5, stream))
    degenerate_rows = 0

    # messages per (cell, constraint kind): v2c[v, k] goes to, and c2v[v, k]
    # comes from, the kind-k constraint of cell v; slots gathers them into
    # node order (3n, n, q). Strict positivity throughout; extreme snr
    # and undamped oscillation otherwise produce zero-support products.
    # v2c is BP's own buffer, rewritten in place by every variable update.
    v2c = np.stack([floor_rows(channel_post, MESSAGE_FLOOR)] * 3, axis=1)

    beliefs = channel_post.copy()
    decisions = beliefs.argmax(axis=1)
    iterations = 0
    solved = _satisfies(n, decisions)

    while not solved and iterations < max_iters:
        iterations += 1
        inputs = v2c.reshape(-1, n).take(slots, axis=0).reshape(3 * n, n, n)
        rows, fallback_rows = node(inputs)
        degenerate_rows += fallback_rows
        # one permuted copy of the node's rows, floored in place (the floor is row-wise)
        fresh = rows.reshape(-1, n).take(back, axis=0).reshape(v2c.shape)
        floor_rows(fresh, MESSAGE_FLOOR, out=fresh)
        if iterations == 1 or damping == 1.0:
            c2v = fresh
        else:
            fresh *= damping
            c2v *= 1.0 - damping
            c2v += fresh
            c2v /= c2v.sum(axis=2, keepdims=True)

        np.multiply(channel_post, c2v.prod(axis=1), out=beliefs)
        beliefs /= beliefs.sum(axis=1, keepdims=True)
        decisions = beliefs.argmax(axis=1)
        solved = _satisfies(n, decisions)
        if solved or iterations == max_iters:
            break  # nothing reads the variable update after the last iteration

        # extrinsic variable update: each kind gets the product of the other two
        i0, i1, i2 = c2v[:, 0], c2v[:, 1], c2v[:, 2]
        np.multiply(i1, i2, out=v2c[:, 0])
        np.multiply(i0, i2, out=v2c[:, 1])
        np.multiply(i0, i1, out=v2c[:, 2])
        v2c *= channel_post[:, None]
        floor_rows(v2c, MESSAGE_FLOOR, out=v2c)

    ser = math.nan
    if puzzle.truth_known:
        ser = float(np.mean(decisions != puzzle.solution))
    return BpResult(
        solved=bool(solved),
        iterations=iterations,
        beliefs=beliefs,
        decisions=decisions,
        symbol_error_rate=ser,
        degenerate_rows=degenerate_rows,
    )


# -- EXIT harness --------------------------------------------------------


@dataclass(frozen=True)
class ExitPoint:
    node: str
    snr_db: float | None
    ia_bits: float
    ie_bits: float
    stderr: float
    #: node rows replaced by uniform over the point's trials (0 for exact and variable)
    fallback_rows: int


def _apriori_rows(truths: np.ndarray, ia_bits: float, n: int, seed: int,
                  noise: np.ndarray) -> np.ndarray:
    """A-priori rows about ``truths`` carrying ``ia_bits``, one block per noise block.

    ``noise`` has shape (blocks, *truths.shape, n). Within 1e-9 of 0 bits
    the rows are uniform, within 1e-9 of log2(n) one-hot, and otherwise the
    channel posteriors at the sigma that :func:`calibrate_sigma` gives.
    """
    if ia_bits <= 1e-9:
        return np.full(noise.shape, 1.0 / n)
    truths = np.broadcast_to(truths, noise.shape[:-1])
    if ia_bits >= math.log2(n) - 1e-9:
        return np.eye(n)[truths]
    ch = ChannelModel(sigma=calibrate_sigma(ia_bits, n, seed), q=n)
    return ch.posterior(ch.receive(truths, noise))


@functools.lru_cache(maxsize=256)
def calibrate_sigma(ia_target: float, q: int, seed: int) -> float:
    """Noise level whose observation posteriors carry ``ia_target`` bits.

    Bisects log-sigma in [-3, 3] (at most 200 steps, to 0.005 bits) against
    a fixed 16384-sample calibration draw (common random numbers make the
    MI curve smooth and monotone in sigma), whose MI there spans 0 to log2 q
    within that tolerance: every target in (0, log2 q) calibrates to within
    it. The tolerance is absolute, so near 0 bits many targets share one
    sigma: at q = 9, seed 0, every target up to about 0.006 bits returns
    31.62, whose draw carries 0.0014 bits. The result depends only on the
    arguments, so it is cached per process. An EXIT point already calibrates
    once for all its curves, so the cache serves only repeated calls in one
    process, such as a test suite or a benchmark's passes.
    """
    max_mi = math.log2(q)
    if not 0.0 < ia_target < max_mi:
        raise BisectionFailure(f"target {ia_target} outside (0, {max_mi})")
    samples, tol = 16384, 0.005
    rng = make_rng(seed, 6)
    truths = rng.integers(0, q, size=samples)
    noise = rng.standard_normal((samples, q))

    def mi_at(log_sigma: float) -> float:
        ch = ChannelModel(sigma=10.0**log_sigma, q=q)
        return soft_mi(truths, floor_rows(ch.posterior(ch.receive(truths, noise)), DEFAULT_FLOOR))

    lo, hi = -3.0, 3.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        mi = mi_at(mid)
        if abs(mi - ia_target) <= tol:
            return 10.0**mid
        if mi > ia_target:
            lo = mid
        else:
            hi = mid
    raise BisectionFailure(f"bisection did not reach target {ia_target}")


def _exit_checks(nodes, ia_grid, trials: int, n: int, snr_db_list, alphas):
    """Check an EXIT run's arguments before any work, and return its curves in curve order.

    Each curve is ``(kind, snr_db, apply)``: a constraint kind at snr None
    with its node function, or ``variable`` once per snr with that snr's
    :class:`ChannelModel`. The grid, trials, kinds and every snr raise
    ValueError; an a-priori target outside [0, log2(n)] raises
    :class:`BisectionFailure`.
    """
    if not ia_grid:
        raise ValueError("empty a-priori grid")
    if trials < 1:
        raise ValueError("need at least one trial")
    if not nodes or not set(nodes) <= set(EXIT_KINDS):  # a bare string's letters are no kinds
        raise ValueError(f"nodes (--node) must be a non-empty sequence of node kinds from "
                         f"{EXIT_KINDS}, got {nodes!r}")
    funcs = [None if kind == "variable" else node_function(kind, alphas=alphas) for kind in nodes]
    # every snr given is checked, though constraint-node curves ignore the channel
    channels = [(snr, ChannelModel.from_snr_db(snr, q=n)) for snr in snr_db_list or ()]
    if "variable" in nodes and not channels:
        raise ValueError("variable-node transfer needs a channel snr (--snr-list)")
    max_mi = math.log2(n)
    for ia in ia_grid:
        if not -1e-9 <= ia <= max_mi + 1e-9:
            raise BisectionFailure(f"a-priori target {ia} outside [0, {max_mi}]")
    return [(kind, snr, apply) for kind, func in zip(nodes, funcs)
            for snr, apply in (channels if func is None else [(None, func)])]


def exit_point_trials(nodes, ia_bits: float, trials: int, seed: int, *,
                      n: int = 9, point: int = 0, alphas=None,
                      snr_db_list=None) -> tuple[np.ndarray, list[int]]:
    """Per-trial extrinsic information of each EXIT curve at one point.

    A curve is a constraint-node kind, or ``variable`` at one snr of
    ``snr_db_list``; curves come in node order, a ``variable`` node's in snr
    order. Returns ``(values, fallback_rows)``: unclamped values of shape
    (curves, trials), and per curve the rows replaced by uniform over all
    trials. The kinds (from ``EXIT_KINDS``; ``corrected`` needs ``alphas``,
    ``variable`` an snr) and every snr are checked before any work.

    Every curve reads one draw on stream (seed, 7, point), so the curves
    are paired trial by trial: the truths, (trials, n) random permutations,
    then normal noise blocks of shape (trials, n, n), one block or, with
    ``variable``, three. Block 0 gives the a-priori rows carrying
    ``ia_bits`` (by :func:`_apriori_rows`'s rule) that every constraint
    node is called on as one stack. The ``variable`` curves multiply those
    rows by a second a-priori message from block 1 and by a channel
    observation at their snr from block 2.
    """
    curves = _exit_checks(nodes, [ia_bits], trials, n, snr_db_list, alphas)
    max_mi = math.log2(n)
    # blocks 0 and 1 are drawn at every I_A, uniform and one-hot too, so
    # every block keeps its place in the stream
    rng = make_rng(seed, 7, point)
    truths = rng.permuted(np.tile(np.arange(n), (trials, 1)), axis=1)
    noise = rng.standard_normal((3 if "variable" in nodes else 1, trials, n, n))
    apriori = _apriori_rows(truths, ia_bits, n, seed, noise[:2])
    if "variable" in nodes:
        both = apriori[0] * apriori[1]
    values = []
    fallback_rows = []
    for kind, _, apply in curves:
        if kind == "variable":
            msg = apply.posterior(apply.receive(truths, noise[2])) * both
            out, fallback = floor_rows(msg, MESSAGE_FLOOR), 0
        else:
            out, fallback = apply(apriori[0])
        at_truth = np.take_along_axis(floor_rows(out, DEFAULT_FLOOR), truths[..., None], axis=-1)
        values.append(max_mi - np.mean(-np.log2(at_truth[..., 0]), axis=-1))
        fallback_rows.append(fallback)
    return np.array(values), fallback_rows


def exit_curve(nodes, ia_grid, trials: int, seed: int, *,
               n: int = 9, snr_db_list=None, alphas=None) -> list[ExitPoint]:
    """Extrinsic-vs-a-priori information transfer of each EXIT curve of ``nodes``.

    Every argument, the whole grid included, is checked before the first
    point. One :func:`exit_point_trials` call per grid point then
    calibrates once and draws one set of trials for every curve, so the
    curves are paired. Points come curve by curve, in that function's curve
    order, each in grid order.
    """
    grid = list(ia_grid)
    curves = _exit_checks(nodes, grid, trials, n, snr_db_list, alphas)
    points = [exit_point_trials(nodes, ia, trials, seed, n=n, point=p, alphas=alphas,
                                snr_db_list=snr_db_list) for p, ia in enumerate(grid)]

    def stderr(vals: np.ndarray) -> float:
        # trials that agree to within 4 ulps (or one trial) differ only by rounding: no spread
        if np.ptp(vals) <= 4 * np.spacing(np.abs(vals).max()):
            return 0.0
        return float(vals.std(ddof=1) / math.sqrt(trials))

    return [ExitPoint(node=kind, snr_db=snr, ia_bits=float(ia),
                      ie_bits=max(float(values[c].mean()), 0.0), stderr=stderr(values[c]),
                      fallback_rows=fallbacks[c])
            for c, (kind, snr, _) in enumerate(curves)
            for ia, (values, fallbacks) in zip(grid, points)]


# -- alpha training ------------------------------------------------------


#: The harvest's cap on BP runs, and the iterations of each run whose node inputs it keeps.
_HARVEST_RUNS, _HARVEST_ITERS = 64, 5


def _harvest(n: int, snr_db_list, count: int, seed: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The matrices of :func:`harvest_constraint_inputs`, and their exact-node rows.

    The BP runs' exact node keeps each stack it is called on and its rows.
    So the rows, one (count, n, n) array, are bitwise ``constraint_exact``
    of the stacked matrices, since each matrix's rows are the same whatever
    batch it is in.
    """
    most = _HARVEST_RUNS * _HARVEST_ITERS * 3 * n
    if not 1 <= count <= most:
        raise ValueError(f"need at least one matrix and at most {most}, all that {_HARVEST_RUNS} "
                         f"BP runs of {_HARVEST_ITERS} iterations hold at n = {n}; got {count} "
                         f"(--batch)")
    if not snr_db_list:
        raise ValueError("need at least one snr")
    channels = [ChannelModel.from_snr_db(snr, q=n) for snr in snr_db_list]
    pool: list[np.ndarray] = []
    rows: list[np.ndarray] = []

    def exact(m: np.ndarray) -> tuple[np.ndarray, int]:
        out = constraint_exact(m)
        pool.extend(m)
        rows.extend(out)
        return out, 0

    run = 0
    while len(pool) < count * 2 and run < _HARVEST_RUNS:
        puzzle = random_puzzle(n, make_rng(seed, 8, run))
        channel = channels[run % len(channels)]
        bp_solve(puzzle, channel, exact, seed=seed, stream=run, max_iters=_HARVEST_ITERS)
        run += 1
    if len(pool) < count:
        raise ValueError(f"harvest gathered {len(pool)} of the {count} matrices needed in "
                         f"{run} BP runs, its cap: BP solved too early at these snrs, "
                         f"or --batch is too large")
    pick = sorted(make_rng(seed, 9).choice(len(pool), size=count, replace=False))
    return [pool[i] for i in pick], np.array([rows[i] for i in pick])


def harvest_constraint_inputs(n: int, snr_db_list, count: int, seed: int) -> list[np.ndarray]:
    """Constraint-node input matrices from live exact-node BP runs.

    Runs cycle through the snr mix, every snr of which is checked before
    the first run; matrices are the exact node's inputs in BP iterations
    1-5, as the node records them, subsampled to ``count`` with a fixed
    stream so the batch is reproducible. They are views of those stacks.
    ``count`` must lie in [1, 960n], the 3n matrices of each of 5
    iterations of at most 64 runs, and is checked before the first run.
    """
    return _harvest(n, snr_db_list, count, seed)[0]


@dataclass
class AlphaTrainResult:
    corrector: ParametricCorrector
    objective_value: float
    baseline_half: float
    baseline_ones: float
    search: TrainResult


def _alpha_divergences(matrices, exact: np.ndarray):
    """Frozen batch, its exact rows -> weights (n,) -> (B, n) divergences of exact from corrected.

    Minor permanents of both split parts are precomputed once for the
    stacked batch, and each call scores a weight array in buffers built here:
    alpha-weighted mix, floor, log2, divergence. Row i of every matrix
    depends on alpha_i alone.
    Corrected rows are floored at ``DEFAULT_FLOOR``, since a sparse head
    leaves zeros where the exact node has mass.
    """
    stack = np.asarray(matrices, dtype=float)
    ph, pt = minor_permanents_split(*head_tail_split(stack, HEAD_SIZE))
    # log2 q unmasked: the floored rows are positive pmfs, so where p = 0
    # the term (0 - log2 q) * 0 is +0.0, the bits of the masked one
    log_p = (log2_masked(exact), True)
    corrected, terms = np.empty_like(ph), np.zeros_like(ph)

    def rows(alphas: np.ndarray) -> np.ndarray:
        _alpha_mix(alphas, ph, pt, corrected)
        floor_rows(corrected, DEFAULT_FLOOR, out=corrected)
        return divergence_rows(exact, corrected, _log_p=log_p, _work=terms)

    return rows


def alpha_objective(matrices: list[np.ndarray]):
    """Frozen-batch objective: the mean divergence over rows per matrix, then over matrices."""
    stack = np.asarray(matrices, dtype=float)
    rows = _alpha_divergences(stack, constraint_exact(stack))
    return lambda corrector: float(rows(corrector.alphas).mean(axis=-1).mean())


def train_alpha(n: int = 9, snr_db_list=(6.0, 8.0, 10.0), batch: int = 64,
                seed: int = 0, budget: int = 4000) -> AlphaTrainResult:
    """Train per-row correction weights against the exact node as reference.

    The default snr mix covers the solver's working region, where the
    ensemble holds both mushy and nearly decided message matrices. The
    search minimizes each row's mean divergence over the batch; the result
    is the lowest under :func:`alpha_objective`'s reduction of the search's
    point, alpha = 0.5 and alpha = 1, so it never loses to those baselines
    on the frozen batch.
    """
    rows = _alpha_divergences(*_harvest(n, list(snr_db_list), batch, seed))
    result = train_parametric(lambda a: rows(a).mean(axis=0), slots=n, budget=budget)
    candidates = (result.corrector, ParametricCorrector(np.full(n, 0.5)),
                  ParametricCorrector(np.ones(n)))
    values = [float(rows(c.alphas).mean(axis=-1).mean()) for c in candidates]
    best = int(np.argmin(values))  # the first lowest: the search's point wins a tie
    return AlphaTrainResult(corrector=candidates[best], objective_value=values[best],
                            baseline_half=values[1], baseline_ones=values[2], search=result)
