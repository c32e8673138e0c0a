"""The benchmark's three workloads: job lists, timings, reports and output checks.

Each workload is a closed loop with one caller: its jobs run one after
another through ``rolemodel.cli.main``, the command users run, and the next
job starts when the previous one returns. A pass is the workload's fixed
job list; job inputs (puzzle seeds, min-sum seeds) are drawn from the
benchmark's seed. Every workload splits its jobs into two kinds, A and B,
whose times are the end-to-end metrics ``job_a_s`` and ``job_b_s``. Job
times are calibrated seconds (see calibration.py), taken as medians over
the untraced passes (see each workload's ``job_times``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import statistics
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from rolemodel import cli, sudoku
from rolemodel.rng import make_rng
from rolemodel.train import ParametricCorrector

import reference
from calibration import Timing

SEED_RANGE = 2**31
MAX_MI_9 = math.log2(9)


@dataclass
class Job:
    kind: str
    argv: list[str]
    out: Path


@dataclass
class Result:
    job: Job
    timing: Timing
    code: int
    out: bytes
    stdout: str

    @property
    def calibrated(self) -> float:
        return self.timing.calibrated


class Runner:
    """Runs jobs and checks, counting every attempt and every failure.

    Each job is timed by a calibrator (see calibration.py), which gives its
    CPU and wall seconds and the scale to calibrated ones.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def job(self, job: Job, calibrator) -> Result:
        job.out.unlink(missing_ok=True)
        buf = io.StringIO()
        self.attempted += 1

        def call() -> int:
            try:
                with contextlib.redirect_stdout(buf):
                    return cli.main(job.argv)
            except Exception:  # a crashing job is a failed job; the loop goes on
                traceback.print_exc()
                return -1

        code, timing = calibrator.measure(call)
        out = job.out.read_bytes() if job.out.exists() else b""
        return Result(job, timing, code, out, buf.getvalue())

    def fail_job(self, result: Result, problem: str) -> None:
        self.failures.append(f"{result.job.argv[0]} ({result.job.kind}): {problem}")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check {name} failed {detail}".rstrip())

    @property
    def failed(self) -> int:
        return len(self.failures)


def _json(result: Result) -> dict:
    try:
        return json.loads(result.out)
    except ValueError:
        return {}


def check_exact_node(runner: Runner, seed: int, count: int = 2) -> None:
    """``constraint_exact`` against the brute-force reference, 1e-9 relative.

    Half the matrices are harvested from live BP runs; the other half are
    near-decided posteriors of a permutation at 15 dB, whose off-truth
    minors are many orders of magnitude below the on-truth ones.
    """
    matrices = sudoku.harvest_constraint_inputs(9, [6.0, 8.0], count, seed)
    channel = sudoku.ChannelModel.from_snr_db(15.0, q=9)
    for k in range(count):
        rng = make_rng(seed, 100, k)
        matrices.append(channel.posterior(channel.observe(rng.permutation(9), rng)))
    for k, m in enumerate(matrices):
        got = sudoku.constraint_exact(m)
        want = reference.constraint_rows(m)
        err = float(np.max(np.abs(got - want) / want))
        runner.check(f"exact node matrix {k}", err <= 1e-9, f"relative error {err:.3e}")


class Workload:
    name = ""
    #: Calibration kernel whose speed tracks this workload's jobs.
    kernel = "compute"
    #: What ``job_a_s`` and ``job_b_s`` measure on this workload.
    kinds = ("", "")

    def __init__(self, work: Path):
        self.work = work

    def jobs(self, rnd) -> list[Job]:
        raise NotImplementedError

    def warmup(self, rnd) -> list[Job]:
        raise NotImplementedError

    def job_times(self, passes) -> tuple[float, float]:
        """``job_a_s`` and ``job_b_s`` from the untraced passes."""
        raise NotImplementedError

    def problem(self, result: Result) -> str | None:
        """Why a job's output is wrong, or None."""
        raise NotImplementedError

    def describe(self, result: Result) -> dict:
        """What the results file records about one job's output."""
        return {}

    def report(self, passes, medians, runner: Runner, rnd) -> dict[str, tuple[float, str]]:
        """Workload-specific figures; runs the workload's stand-alone checks."""
        raise NotImplementedError


class SudokuBp(Workload):
    """``solve`` jobs: six puzzles, each at 4 and 8 dB, exact and approx node."""

    name = "sudoku-bp"
    kinds = ("seconds per BP iteration, exact-node solves",
             "seconds per BP iteration, approx-node solves")
    PUZZLES = 6

    def _solve(self, tag: str, seed: int, snr: str, node: str) -> Job:
        out = self.work / f"solve-{tag}-{snr}db-{node}.json"
        return Job(node, ["solve", "--size", "9", "--snr-db", snr, "--node", node,
                          "--seed", str(seed), "--out", str(out), "--quiet"], out)

    def jobs(self, rnd):
        jobs = []
        for p in range(self.PUZZLES):
            seed = rnd.randrange(SEED_RANGE)
            jobs += [self._solve(str(p), seed, snr, node)
                     for snr in ("4", "8") for node in ("exact", "approx")]
        return jobs

    def warmup(self, rnd):
        # 4 dB, cut at three iterations: node calls carry the warm-up, as
        # they do the timed solves
        seed = rnd.randrange(SEED_RANGE)
        jobs = [self._solve("warmup", seed, "4", node) for node in ("exact", "approx")]
        for job in jobs:
            job.argv[-1:-1] = ["--iters", "3"]
        return jobs

    def job_times(self, passes):
        # Iteration counts differ from puzzle to puzzle by a factor of ten;
        # time per iteration is what a faster node or variable update moves.
        # The median is over every solve of the kind in every pass.
        def per_iteration(kind):
            return statistics.median(
                r.calibrated / max(int(_json(r).get("iterations") or 0), 1)
                for p in passes for r in p.results if r.job.kind == kind)

        return per_iteration("exact"), per_iteration("approx")

    def problem(self, result):
        if result.code != 0:
            return f"exit status {result.code}"
        ser = _json(result).get("symbol_error_rate")
        if not isinstance(ser, (int, float)) or not 0.0 <= ser <= 1.0:
            return f"symbol_error_rate {ser!r} is not a finite value in [0, 1]"
        return None

    def describe(self, result):
        doc = _json(result)
        return {k: doc.get(k) for k in ("iterations", "symbol_error_rate")}

    def report(self, passes, medians, runner, rnd):
        check_exact_node(runner, rnd.randrange(SEED_RANGE))
        kinds = [r.job.kind for r in passes[0].results]
        # decoded means every symbol right; ``solved`` only means the
        # decisions satisfy every constraint, which a wrong grid can do
        sers = [1.0 if self.problem(r) else _json(r)["symbol_error_rate"]
                for r in passes[0].results]
        return {
            "solve_exact_s": (_mean(t for t, k in zip(medians, kinds) if k == "exact"), "s"),
            "solve_approx_s": (_mean(t for t, k in zip(medians, kinds) if k == "approx"), "s"),
            "bp_ser": (_mean(sers), "ratio"),
            "bp_decoded_frac": (_mean(float(s == 0.0) for s in sers), "ratio"),
        }


class SudokuTrain(Workload):
    """One EXIT sweep of both nodes, then one corrected-node alpha training."""

    name = "sudoku-train"
    kinds = ("seconds per one-point exit-chart job (interquartile mean over the grid and passes)",
             "seconds per train-sudoku-alpha run (interquartile mean over seeds and passes)")
    EXIT_TRIALS = "40"
    #: The default ``--mi-grid 0:3.17:0.25``, one job per point: the sweep
    #: does the same work, and a host slowdown inside a short job is caught
    #: by the calibration runs around it.
    EXIT_GRID = [f"{0.25 * k:g}" for k in range(13)]
    HELDOUT_BATCHES = 5

    def jobs(self, rnd):
        seed = str(rnd.randrange(SEED_RANGE))
        exits = []
        for k, ia in enumerate(self.EXIT_GRID):
            out = self.work / f"exit-{k}.csv"
            exits.append(Job("exit", ["exit-chart", "--node", "exact,approx", "--size", "9",
                                      "--mi-grid", f"{ia}:{ia}:1", "--trials", self.EXIT_TRIALS,
                                      "--seed", seed, "--out", str(out), "--quiet"], out))
        # four training runs on four seeds, spread over the pass
        alphas = []
        for k in range(4):
            out = self.work / f"alphas-{k}.json"
            alphas.append(Job("alpha", ["train-sudoku-alpha", "--size", "9", "--batch", "64",
                                        "--snr-list", "6,8,10",
                                        "--seed", str(rnd.randrange(SEED_RANGE)),
                                        "--out", str(out), "--quiet"], out))
        return (exits[:3] + alphas[:1] + exits[3:6] + alphas[1:2] + exits[6:9] + alphas[2:3]
                + exits[9:] + alphas[3:])

    def warmup(self, rnd):
        exit_out, alpha_out = self.work / "warmup-exit.csv", self.work / "warmup-alphas.json"
        return [
            Job("exit", ["exit-chart", "--size", "9", "--mi-grid", "1:1:1", "--trials", "4",
                         "--seed", str(rnd.randrange(SEED_RANGE)), "--out", str(exit_out),
                         "--quiet"], exit_out),
            Job("alpha", ["train-sudoku-alpha", "--size", "9", "--batch", "8", "--snr-list", "8",
                          "--budget", "30", "--seed", str(rnd.randrange(SEED_RANGE)),
                          "--out", str(alpha_out), "--quiet"], alpha_out),
        ]

    def job_times(self, passes):
        # A job's cost hardly depends on the seed's inputs, so each metric
        # pools every job of its kind in every pass: the most samples a run
        # has. The interquartile mean drops the quarter the host slowed most
        # and the quickest quarter, which holds grid point 0 (no a-priori
        # information, so no sigma calibration: the one cheap point).
        def pooled(kind):
            return interquartile_mean(r.calibrated for p in passes for r in p.results
                                      if r.job.kind == kind)

        return pooled("exit"), pooled("alpha")

    @staticmethod
    def exit_curves(results) -> dict[str, list[float]]:
        """I_E per node over the grid, from the exit-chart jobs' CSV output."""
        curves: dict[str, list[float]] = {}
        for result in results:
            rows = [row for row in csv.reader(io.StringIO(result.out.decode()))
                    if row and not row[0].startswith("#")]
            for row in rows[1:]:
                curves.setdefault(row[0], []).append(float(row[3]))
        return curves

    def problem(self, result):
        if result.code != 0:
            return f"exit status {result.code}"
        if result.job.kind == "alpha":
            alphas = _json(result).get("alphas", [])
            if len(alphas) != 9 or not all(0.0 <= a <= 1.0 for a in alphas):
                return f"alphas {alphas!r} are not nine weights in [0, 1]"
            return None
        curves = self.exit_curves([result])
        if len(curves.get("exact", [])) != 1 or len(curves.get("approx", [])) != 1:
            return "exit chart lacks one exact and one approx point"
        if not all(0.0 <= ie[0] <= MAX_MI_9 for ie in curves.values()):
            return "an I_E value lies outside [0, log2 9]"
        return None

    def report(self, passes, medians, runner, rnd):
        check_exact_node(runner, rnd.randrange(SEED_RANGE))
        first = passes[0].results
        curves = self.exit_curves([r for r in first if r.job.kind == "exit"])
        exact, approx = curves.get("exact", []), curves.get("approx", [])
        runner.check("EXIT exact >= approx on average", _mean(exact) >= _mean(approx),
                     f"mean I_E exact {_mean(exact):.4f} < approx {_mean(approx):.4f}")
        gaps = [e - a for e, a in zip(exact, approx)]
        heldout = self.check_heldout(runner, first[-1], rnd.randrange(SEED_RANGE))
        kinds = [r.job.kind for r in first]
        return {
            "exit_chart_s": (sum(t for t, k in zip(medians, kinds) if k == "exit"), "s"),
            "alpha_train_s": (_mean(t for t, k in zip(medians, kinds) if k == "alpha"), "s"),
            "exit_ie_gap_bits": (_mean(gaps), "bits"),
            "alpha_heldout_bits": (heldout, "bits"),
        }

    def check_heldout(self, runner, result, seed) -> float:
        """Trained alphas are no worse than alpha = 0.5 on fresh harvested batches.

        The criterion of the acceptance suite: the median held-out
        divergence over several batches. Returns the trained median.
        """
        alphas = _json(result).get("alphas")
        if not alphas:
            runner.check("held-out alphas", False, "no trained alphas to evaluate")
            return math.nan
        trained = ParametricCorrector(np.asarray(alphas, dtype=float))
        half = ParametricCorrector(np.full(9, 0.5))
        trained_ed, half_ed = [], []
        for k in range(self.HELDOUT_BATCHES):
            objective = sudoku.alpha_objective(
                sudoku.harvest_constraint_inputs(9, [6.0, 8.0, 10.0], 24, seed + k))
            trained_ed.append(objective(trained))
            half_ed.append(objective(half))
        med_trained, med_half = statistics.median(trained_ed), statistics.median(half_ed)
        runner.check("held-out alphas", med_trained <= med_half,
                     f"median divergence {med_trained:.5f} > alpha=0.5 {med_half:.5f}")
        return med_trained


class Minsum(Workload):
    """``train-minsum`` then ``eval-minsum`` on a fresh seed, at 1e6 samples."""

    name = "minsum"
    kernel = "memory"
    kinds = ("seconds per train-minsum job", "seconds per eval-minsum job")
    SAMPLES = 1_000_000
    SIGMAS = {3: "1.0,1.0,1.0", 6: "0.6,0.8,1.0,1.2,1.4,1.6"}
    SUMMARY = re.compile(r"empirical_ed=(\S+) bits baseline_ed=(\S+) bits")

    def _pair(self, tag: str, degree: int, samples: int, rnd) -> list[Job]:
        table, evaluated = self.work / f"table-{tag}.json", self.work / f"eval-{tag}.csv"
        shape = ["--degree", str(degree), "--sigmas", self.SIGMAS[degree],
                 "--samples", str(samples)]
        return [
            Job("train", ["train-minsum", *shape, "--seed", str(rnd.randrange(SEED_RANGE)),
                          "--out", str(table), "--quiet"], table),
            Job("eval", ["eval-minsum", "--table", str(table), *shape,
                         "--seed", str(rnd.randrange(SEED_RANGE)), "--out", str(evaluated)],
                evaluated),
        ]

    def jobs(self, rnd):
        return [job for d in (3, 6) for job in self._pair(f"d{d}", d, self.SAMPLES, rnd)]

    def warmup(self, rnd):
        return self._pair("warmup", 3, 200_000, rnd)

    def job_times(self, passes):
        medians = job_medians(passes)
        kinds = [r.job.kind for r in passes[0].results]
        return (_mean(t for t, k in zip(medians, kinds) if k == "train"),
                _mean(t for t, k in zip(medians, kinds) if k == "eval"))

    def summary(self, result) -> tuple[float, float] | None:
        match = self.SUMMARY.search(result.stdout)
        return (float(match[1]), float(match[2])) if match else None

    def problem(self, result):
        if result.code != 0:
            return f"exit status {result.code}"
        if result.job.kind == "train":
            counts = sum(b.get("count", 0) for b in _json(result).get("bins", []))
            return None if counts == self.SAMPLES else f"table holds {counts} samples"
        scores = self.summary(result)
        if scores is None or not all(math.isfinite(s) and s >= 0.0 for s in scores):
            return f"no finite divergences in the summary {result.stdout.strip()!r}"
        if scores[0] >= scores[1]:
            return f"trained table ED {scores[0]} does not beat the min-sum baseline {scores[1]}"
        return None

    def report(self, passes, medians, runner, rnd):
        eds = [s[0] for r in passes[0].results if r.job.kind == "eval"
               for s in [self.summary(r)] if s]
        return {
            "minsum_job_s": (_mean(medians), "s"),
            "minsum_ed_bits": (_mean(eds), "bits"),
        }

    def computed_bytes(self) -> dict[int, int]:
        """Array bytes one job's ``simulate_batch`` materialises, by degree.

        Five float64/int64 arrays of shape (samples, degree) (bits, symbols,
        noise, observations, LLRs) and the batch itself: two posterior
        columns, bins, truths and min-sum LLRs, 40 bytes per sample.
        A computed figure, not a bandwidth measurement.
        """
        return {d: self.SAMPLES * (5 * 8 * d + 40) for d in self.SIGMAS}


WORKLOADS = {w.name: w for w in (SudokuBp, SudokuTrain, Minsum)}


def job_medians(passes) -> list[float]:
    """Each job's calibrated seconds, median over the passes that ran it."""
    return [statistics.median(p.results[i].calibrated for p in passes if i < len(p.results))
            for i in range(len(passes[0].results))]


def interquartile_mean(values) -> float:
    """Mean of the middle half of the values (all of them if fewer than four)."""
    values = sorted(values)
    cut = len(values) // 4
    return _mean(values[cut:len(values) - cut])


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else math.nan
