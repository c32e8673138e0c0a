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
from dataclasses import dataclass, field

import numpy as np

from .errors import BisectionFailure, DegenerateRow
from .permanent import head_tail_split, minor_permanents, minor_permanents_split
from .probs import (DEFAULT_FLOOR, GIVEN_FLOOR, MESSAGE_FLOOR, divergence_rows, floor_rows,
                    soft_mi, square_is_normal)
from .rng import make_rng
from .train import ParametricCorrector, TrainResult, train_parametric

BOX_SIDE = {4: 2, 9: 3}
NODE_KINDS = ("exact", "approx", "corrected")

#: Head size h of the approximate nodes: the h largest entries of each
#: message row form the sparse head, the rest a uniform tail.
HEAD_SIZE = 3


# -- puzzle and graph ----------------------------------------------------


def constraint_cells(n: int) -> np.ndarray:
    """Cell indices of the 3n constraints (n rows, n columns, n boxes), shape (3n, n)."""
    b = BOX_SIDE[n]
    cells = np.arange(n * n).reshape(n, n)
    rows = [cells[r] for r in range(n)]
    cols = [cells[:, c] for c in range(n)]
    boxes = [
        cells[br * b : (br + 1) * b, bc * b : (bc + 1) * b].ravel()
        for br in range(b)
        for bc in range(b)
    ]
    return np.array(rows + cols + boxes)


@dataclass(frozen=True)
class FactorGraph:
    """Bipartite adjacency: each cell sits in exactly 3 constraints."""

    n: int
    constraints: np.ndarray  # (3n, n) cell index per constraint slot
    cell_constraints: np.ndarray  # (n^2, 3) constraint index per cell
    cell_slots: np.ndarray  # (n^2, 3) slot of the cell inside each constraint

    @classmethod
    @functools.lru_cache(maxsize=None)
    def build(cls, n: int) -> "FactorGraph":
        """The graph for size n, built once per process; its arrays are read-only."""
        cons = constraint_cells(n)
        ncells = n * n
        cC = np.empty((ncells, 3), dtype=int)
        cS = np.empty((ncells, 3), dtype=int)
        fill = np.zeros(ncells, dtype=int)
        for c, members in enumerate(cons):
            for slot, v in enumerate(members):
                k = fill[v]
                cC[v, k] = c
                cS[v, k] = slot
                fill[v] += 1
        assert np.all(fill == 3)
        for a in (cons, cC, cS):
            a.flags.writeable = False
        return cls(n=n, constraints=cons, cell_constraints=cC, cell_slots=cS)


def _check_solution(n: int, grid: np.ndarray, partial: bool) -> None:
    for members in constraint_cells(n):
        vals = grid[members]
        vals = vals[vals >= 0] if partial else vals
        if np.unique(vals).size != vals.size:
            raise ValueError("grid violates an all-different constraint")
        if not partial and (vals.min() < 0 or vals.max() >= n):
            raise ValueError("symbols out of range")


@dataclass(frozen=True)
class Puzzle:
    """Ground-truth grid; ``givens`` marks revealed cells in classic mode.

    ``solution`` is flat row-major with symbols 0..n-1; classic puzzles may
    carry -1 at cells whose true value is unknown.
    """

    n: int
    solution: np.ndarray
    givens: np.ndarray | None = None

    def __post_init__(self):
        sol = np.asarray(self.solution, dtype=int)
        if sol.shape != (self.n * self.n,):
            raise ValueError("solution must be a flat n^2 vector")
        partial = bool(np.any(sol < 0))
        if partial and self.givens is None:
            raise ValueError("unknown cells require a givens mask")
        _check_solution(self.n, sol, partial)
        sol = sol.copy()
        sol.flags.writeable = False
        object.__setattr__(self, "solution", sol)
        if self.givens is not None:
            g = np.asarray(self.givens, dtype=bool).copy()
            g.flags.writeable = False
            object.__setattr__(self, "givens", g)

    @property
    def truth_known(self) -> bool:
        return not np.any(self.solution < 0)


def random_puzzle(n: int, rng: np.random.Generator) -> Puzzle:
    """Seeded random solved grid via symbol/band/stack shuffles of a base pattern."""
    b = BOX_SIDE[n]
    base = np.array([[(r * b + r // b + c) % n for c in range(n)] for r in range(n)])
    symbols = rng.permutation(n)
    grid = symbols[base]
    row_order = np.concatenate([band * b + rng.permutation(b) for band in rng.permutation(b)])
    col_order = np.concatenate([stack * b + rng.permutation(b) for stack in rng.permutation(b)])
    grid = grid[row_order][:, col_order]
    if rng.integers(2):
        grid = grid.T
    return Puzzle(n=n, solution=grid.ravel())


def parse_grid(text: str, n: int | None = None) -> Puzzle:
    """Row-major digits, symbols 1..n; '0' marks an unknown cell (classic mode)."""
    digits = [ch for ch in text if not ch.isspace()]
    if n is None:
        n = math.isqrt(len(digits))
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

    @property
    def snr_db(self) -> float:
        return -20.0 * math.log10(self.sigma)

    @classmethod
    def from_snr_db(cls, snr_db: float, q: int = 9) -> "ChannelModel":
        try:
            sigma = 10.0 ** (-snr_db / 20.0)
        except OverflowError:  # a sigma past the float range; rejected as infinite
            sigma = math.inf
        return cls(sigma=sigma, q=q)

    def observe(self, symbols, rng: np.random.Generator) -> np.ndarray:
        s = np.asarray(symbols, dtype=int)
        y = self.sigma * rng.standard_normal((s.size, self.q))
        y[np.arange(s.size), s] += 1.0
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
    perms = minor_permanents(m)
    sums = perms.sum(axis=-1)
    dead = np.argwhere(sums <= 0)
    if dead.size:
        *index, row = (int(v) for v in dead[0])
        raise DegenerateRow(row, *index)
    return perms / sums[..., None]


def _alpha_mix(alphas: np.ndarray, ph: np.ndarray, pt: np.ndarray,
               diag: dict | None = None) -> np.ndarray:
    """Row-normalized alpha_i PH + (1 - alpha_i) PT; zero-sum rows go uniform (counted in diag)."""
    a = alphas[:, None]
    combined = a * ph + (1.0 - a) * pt
    sums = combined.sum(axis=-1)
    dead = sums <= 0
    if np.any(dead):
        if diag is not None:
            diag["degenerate_rows"] = diag.get("degenerate_rows", 0) + int(dead.sum())
        combined[dead] = 1.0
        sums = combined.sum(axis=-1)
    return combined / sums[..., None]


def constraint_approx(m: np.ndarray, alphas=0.5, h: int = HEAD_SIZE,
                      diag: dict | None = None) -> np.ndarray:
    """Head/tail approximate node with per-row correction weights.

    ``m`` is one (n, n) message matrix or a (B, n, n) batch. alpha_i
    weights the head-minor permanent against the tail-minor permanent in
    row i; a scalar alpha applies to every row. Rows whose weighted sum
    vanishes fall back to uniform (counted in ``diag``).
    """
    n = m.shape[-1]
    a = np.full(n, float(alphas)) if np.isscalar(alphas) else np.asarray(alphas, dtype=float)
    return _alpha_mix(a, *minor_permanents_split(head_tail_split(m, h)), diag)


def node_function(kind: str, alphas=None):
    """Bind a constraint-node variant to a callable (matrix or batch, diag=None) -> same shape."""
    if kind == "exact":
        return lambda m, diag=None: constraint_exact(m)
    if kind == "approx":
        return lambda m, diag=None: constraint_approx(m, 0.5, diag=diag)
    if kind == "corrected":
        if alphas is None:
            raise ValueError("corrected node needs trained alphas")
        a = np.asarray(alphas, dtype=float)
        return lambda m, diag=None: constraint_approx(m, a, diag=diag)
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
    collected: list = field(default_factory=list, repr=False)


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


def bp_solve(puzzle: Puzzle, channel: ChannelModel | None, node: str = "exact", *,
             alphas=None, max_iters: int = 30, damping: float = 0.9,
             seed: int = 0, stream: int = 0, collect_iters: tuple = ()) -> BpResult:
    """Flooding-schedule BP over the sudoku factor graph.

    ``damping`` is the weight of the new constraint-to-variable message
    (1.0 disables damping). Terminates as soon as the per-cell hard
    decision satisfies every constraint. Observations are drawn from the
    stream (seed, stream), so paired-seed runs of different node variants
    see identical inputs. ``collect_iters`` records copies of incoming
    constraint message matrices at those iteration numbers (1-based).
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must be in (0, 1]")
    n = puzzle.n
    graph = FactorGraph.build(n)
    rng = make_rng(seed, 5, stream)
    channel_post = observation_messages(puzzle, channel, rng)
    apply_node = node_function(node, alphas=alphas)
    diag: dict = {}

    nc = 3 * n
    # strict positivity throughout; extreme snr and undamped oscillation
    # otherwise produce zero-support products
    v2c = floor_rows(channel_post[graph.constraints], MESSAGE_FLOOR)  # (3n, n, q)
    c2v = np.full_like(v2c, 1.0 / n)
    collected: list[tuple[int, int, np.ndarray]] = []

    cC, cS = graph.cell_constraints, graph.cell_slots
    cell_idx = np.arange(n * n)
    beliefs = channel_post.copy()
    decisions = beliefs.argmax(axis=1)
    iterations = 0
    solved = _satisfies(graph, decisions)

    for it in range(1, max_iters + 1):
        if solved:
            break
        iterations = it
        if it in collect_iters:
            for c in range(nc):
                collected.append((it, c, v2c[c].copy()))
        fresh = floor_rows(apply_node(v2c, diag=diag), MESSAGE_FLOOR)  # all 3n constraints at once
        if it == 1 or damping == 1.0:
            c2v = fresh
        else:
            c2v = damping * fresh + (1.0 - damping) * c2v
            c2v /= c2v.sum(axis=2, keepdims=True)

        incoming = c2v[cC, cS]  # (n^2, 3, q)
        beliefs = channel_post * incoming.prod(axis=1)
        beliefs /= beliefs.sum(axis=1, keepdims=True)
        decisions = beliefs.argmax(axis=1)
        solved = _satisfies(graph, decisions)

        # extrinsic variable update: product of the other two constraint messages
        for k in range(3):
            others = [j for j in range(3) if j != k]
            out = floor_rows(channel_post * incoming[:, others].prod(axis=1), MESSAGE_FLOOR)
            v2c[cC[cell_idx, k], cS[cell_idx, k]] = out

    ser = math.nan
    if puzzle.truth_known:
        ser = float(np.mean(decisions != puzzle.solution))
    return BpResult(
        solved=bool(solved),
        iterations=iterations,
        beliefs=beliefs,
        decisions=decisions,
        symbol_error_rate=ser,
        degenerate_rows=diag.get("degenerate_rows", 0),
        collected=collected,
    )


def _satisfies(graph: FactorGraph, decisions: np.ndarray) -> bool:
    vals = decisions[graph.constraints]
    return bool(np.all(np.sort(vals, axis=1) == np.arange(graph.n)))


# -- EXIT harness --------------------------------------------------------


@dataclass(frozen=True)
class ExitPoint:
    node: str
    snr_db: float | None
    ia_bits: float
    ie_bits: float
    stderr: float
    trials: int


def _apriori_messages(truths: np.ndarray, sigma: float | None, q: int,
                      rng: np.random.Generator) -> np.ndarray:
    if sigma is None:  # degenerate endpoints of the MI scale
        return np.full((truths.size, q), 1.0 / q)
    ch = ChannelModel(sigma=sigma, q=q)
    return ch.posterior(ch.observe(truths, rng))


@functools.lru_cache(maxsize=256)
def calibrate_sigma(ia_target: float, q: int, seed: int) -> float:
    """Noise level whose observation posteriors carry ``ia_target`` bits.

    Bisects log-sigma (at most 200 steps, to 0.005 bits) against a fixed
    16384-sample calibration draw (common random numbers make the MI curve
    smooth and monotone in sigma). The result depends only on the
    arguments, so it is cached per process: the curves of several node
    kinds at the same grid and seed calibrate once.
    """
    max_mi = math.log2(q)
    if not 0.0 < ia_target < max_mi:
        raise BisectionFailure(f"target {ia_target} outside (0, {max_mi})")
    samples, tol = 16384, 0.005
    rng = make_rng(seed, 6)
    truths = rng.integers(0, q, size=samples)
    noise = rng.standard_normal((samples, q))

    def mi_at(log_sigma: float) -> float:
        sigma = 10.0**log_sigma
        y = sigma * noise
        y[np.arange(samples), truths] += 1.0
        ch = ChannelModel(sigma=sigma, q=q)
        return soft_mi(truths, floor_rows(ch.posterior(y), DEFAULT_FLOOR))

    lo, hi = -3.0, 3.0
    if not (mi_at(hi) <= ia_target <= mi_at(lo)):
        raise BisectionFailure(f"target {ia_target} not bracketed by sigma range")
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


def exit_point_trials(node: str, ia_bits: float, trials: int, seed: int, *,
                      n: int = 9, point: int = 0, alphas=None,
                      snr_db: float | None = None) -> np.ndarray:
    """Per-trial extrinsic information values (unclamped), one per trial.

    Constraint-node variants see an n x n matrix whose truth is a random
    permutation (a valid constraint configuration); the ``variable``
    variant combines a channel observation at ``snr_db`` with two a-priori
    messages. A-priori messages are synthesized at the sigma calibrated to
    ``ia_bits``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    max_mi = math.log2(n)
    if not -1e-9 <= ia_bits <= max_mi + 1e-9:
        raise BisectionFailure(f"a-priori target {ia_bits} outside [0, {max_mi}]")
    if ia_bits >= max_mi - 1e-9:
        sigma_a = 0.0  # exact one-hot inputs
    elif ia_bits <= 1e-9:
        sigma_a = None
    else:
        sigma_a = calibrate_sigma(ia_bits, n, seed)
    if node == "variable" and snr_db is None:
        raise ValueError("variable-node transfer needs a channel snr")
    channel = ChannelModel.from_snr_db(snr_db, q=n) if node == "variable" else None
    apply_node = None if node == "variable" else node_function(node, alphas=alphas)

    def synth_apriori(truths, rng):
        if sigma_a == 0.0:
            return np.eye(n)[truths]
        return _apriori_messages(truths, sigma_a, n, rng)

    # each trial draws from its own stream; constraint nodes then see all
    # trials in one batched call
    truths = np.empty((trials, n), dtype=int)
    out = np.empty((trials, n, n))
    for t in range(trials):
        rng = make_rng(seed, 7, point, t)
        if node == "variable":
            truths[t] = rng.integers(0, n, size=n)
            obs = channel.posterior(channel.observe(truths[t], rng))
            msg = obs * synth_apriori(truths[t], rng) * synth_apriori(truths[t], rng)
            out[t] = floor_rows(msg, MESSAGE_FLOOR)
        else:
            truths[t] = rng.permutation(n)
            out[t] = synth_apriori(truths[t], rng)
    if apply_node is not None:
        out = apply_node(out)
    at_truth = np.take_along_axis(floor_rows(out, DEFAULT_FLOOR), truths[..., None], axis=-1)
    return max_mi - np.mean(-np.log2(at_truth[..., 0]), axis=-1)


def exit_curve(node: str, ia_grid, trials: int, seed: int, *,
               n: int = 9, snr_db_list=None, alphas=None) -> list[ExitPoint]:
    """Extrinsic-vs-a-priori information transfer of one node variant.

    Constraint-node curves do not depend on the observation channel, so
    ``snr_db_list`` only applies to the ``variable`` variant (one curve per
    channel snr).
    """
    grid = list(ia_grid)
    if not grid:
        raise ValueError("empty a-priori grid")
    snrs: list[float | None]
    if node == "variable":
        if not snr_db_list:
            raise ValueError("variable-node transfer needs --snr-list")
        snrs = list(snr_db_list)
    else:
        snrs = [None]
    points = []
    for snr in snrs:
        for p, ia in enumerate(grid):
            vals = exit_point_trials(node, ia, trials, seed, n=n, point=p,
                                     alphas=alphas, snr_db=snr)
            stderr = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
            points.append(ExitPoint(node=node, snr_db=snr, ia_bits=float(ia),
                                    ie_bits=max(float(vals.mean()), 0.0),
                                    stderr=stderr, trials=trials))
    return points


# -- alpha training ------------------------------------------------------


def harvest_constraint_inputs(n: int, snr_db_list, count: int, seed: int) -> list[np.ndarray]:
    """Constraint-node input matrices from live exact-node BP runs.

    Runs cycle through the snr mix; matrices are the incoming messages at
    BP iterations 1-5, subsampled to ``count`` with a fixed stream so the
    batch is reproducible.
    """
    if count < 1:
        raise ValueError("need at least one matrix")
    if not snr_db_list:
        raise ValueError("need at least one snr")
    pool: list[np.ndarray] = []
    run = 0
    while len(pool) < count * 2 and run < 64:
        snr = snr_db_list[run % len(snr_db_list)]
        puzzle = random_puzzle(n, make_rng(seed, 8, run))
        channel = ChannelModel.from_snr_db(snr, q=n)
        result = bp_solve(puzzle, channel, node="exact", seed=seed, stream=run,
                          max_iters=5, collect_iters=(1, 2, 3, 4, 5))
        pool.extend(m for _, _, m in result.collected)
        run += 1
    if len(pool) < count:
        raise ValueError("harvest produced too few matrices; increase runs")
    pick = make_rng(seed, 9).choice(len(pool), size=count, replace=False)
    return [pool[i] for i in sorted(pick)]


@dataclass
class AlphaTrainResult:
    corrector: ParametricCorrector
    objective_value: float
    baseline_half: float
    baseline_ones: float
    search: TrainResult


def alpha_objective(matrices: list[np.ndarray]):
    """Frozen-batch objective: mean divergence of exact rows from corrected rows.

    Minor permanents of both split parts are precomputed once for the
    stacked batch, so each evaluation is one alpha-weighted broadcast: the
    mean over rows per matrix, then the mean over matrices. Corrected rows
    are floored at ``DEFAULT_FLOOR``, since a sparse head leaves zeros
    where the exact node has mass.
    """
    stack = np.asarray(matrices, dtype=float)
    exact = constraint_exact(stack)
    ph, pt = minor_permanents_split(head_tail_split(stack, HEAD_SIZE))

    def objective(corrector: ParametricCorrector) -> float:
        corrected = floor_rows(_alpha_mix(corrector.alphas, ph, pt), DEFAULT_FLOOR)
        return float(divergence_rows(exact, corrected).mean(axis=-1).mean())

    return objective


def train_alpha(n: int = 9, snr_db_list=(6.0, 8.0, 10.0), batch: int = 64,
                seed: int = 0, budget: int = 4000) -> AlphaTrainResult:
    """Train per-row correction weights against the exact node as reference.

    The default snr mix covers the solver's working region, where the
    ensemble holds both mushy and nearly decided message matrices. The
    returned corrector never loses to the fixed alpha = 0.5 / alpha = 1
    baselines on the frozen batch (they are probed explicitly).
    """
    matrices = harvest_constraint_inputs(n, list(snr_db_list), batch, seed)
    objective = alpha_objective(matrices)
    result = train_parametric(objective, slots=n, budget=budget)
    baselines = {
        0.5: objective(ParametricCorrector(np.full(n, 0.5))),
        1.0: objective(ParametricCorrector(np.ones(n))),
    }
    best_alpha, best_val = result.corrector, result.objective_value
    for level, val in baselines.items():
        if val < best_val:
            best_alpha, best_val = ParametricCorrector(np.full(n, level)), val
    return AlphaTrainResult(
        corrector=best_alpha,
        objective_value=best_val,
        baseline_half=baselines[0.5],
        baseline_ones=baselines[1.0],
        search=result,
    )
