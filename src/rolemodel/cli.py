"""Command-line surface.

One binary, one subcommand per experiment. Machine-readable results go to
--out (CSV for tabular sweeps, JSON for trained artifacts); a short human
summary goes to stdout. Runs with identical flags and seed produce
byte-identical output files. Exit status: 0 success; 1 for a bad flag
value or an unreadable input file, reported as one ``error:`` line on
stderr; 2 for a numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__, chains, minsum, sudoku
from .errors import RoleModelError
from .permanent import (
    permanent_bruteforce,
    permanent_ryser,
    permanent_sparse,
    permanent_uniform_rows,
)
from .rng import make_rng
from .train import ParametricCorrector, PostTable


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value like -1e5 is a negative number, not an unknown option (the
        # matcher of Python 3.13; no option here starts with a digit)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # argparse defaults to status 2; we reserve that
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _csv_float(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _grid(text: str) -> list[float]:
    """start:stop:step, stop inclusive when it lands on the lattice."""
    try:
        start, stop, step = (float(tok) for tok in text.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}, expected start:stop:step") from exc
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError("grid needs step > 0 and stop >= start")
    values = []
    k = 0
    while start + k * step <= stop + 1e-9:
        values.append(round(start + k * step, 12))
        k += 1
    return values


def _save_csv(path: str, header: list[str], rows: list[list], seed: int) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        f.write(f"# version={__version__} seed={seed}\n")


def _save_json(path: str, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


# -- subcommands ---------------------------------------------------------


def _run_verify_theorem(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if args.max_alphabet < 2:
        raise ValueError("--max-alphabet must be at least 2")
    rng = make_rng(args.seed, 10)
    rows = []
    worst = 0.0
    for trial in range(args.trials):
        nx, ny, nz = (int(rng.integers(2, args.max_alphabet + 1)) for _ in range(3))
        model = chains.random_chain(rng, nx, ny, nz)
        q = chains.random_conditional(rng, nz, nx)
        r_markov = chains.markov_identity_residual(model, q)
        joint = chains.random_joint(rng, nx, ny, nz)
        r_general = chains.nonmarkov_identity_residual(joint, chains.random_conditional(rng, nz, nx))
        worst = max(worst, abs(r_markov), abs(r_general))
        rows.append([trial, nx, ny, nz, repr(r_markov), repr(r_general)])
    if args.out:
        _save_csv(args.out, ["trial", "x_size", "y_size", "z_size",
                              "markov_residual", "nonmarkov_residual"], rows, args.seed)
    verdict = "PASS" if worst <= 1e-10 else "FAIL"
    _say(args, f"{verdict} max_residual={worst:.3e} trials={args.trials}")
    return 0 if verdict == "PASS" else 2


def _run_train_minsum(args) -> int:
    sigmas = _csv_float(args.sigmas)
    if len(sigmas) != args.degree:
        raise ValueError(f"need {args.degree} sigmas, got {len(sigmas)}")
    quant = minsum.ZQuantizer(num_bins=args.bins)
    batch = minsum.simulate_batch(args.degree, sigmas, args.samples, args.seed, quant)
    table = minsum.new_table(quant)
    table.ingest_batch(batch)
    if args.out:
        with open(args.out, "w") as f:
            f.write(table.to_json())
            f.write("\n")
    report = minsum.evaluate_table(table, batch)
    _say(args, f"trained {table.count_total} samples into {quant.total_bins} bins; "
               f"training-batch {report.summary()}")
    return 0


def _run_eval_minsum(args) -> int:
    with open(args.table) as f:
        table = PostTable.from_json(f.read())
    spec = table.bin_spec
    if spec.get("kind") != "minsum":
        raise ValueError(f"table bin_spec kind {spec.get('kind')!r} is not 'minsum'")
    num_bins, max_magnitude = spec.get("num_bins"), spec.get("max_magnitude")
    if not (isinstance(num_bins, int) and isinstance(max_magnitude, (int, float))
            and 2 * num_bins == table.num_bins):
        raise ValueError("minsum bin_spec needs an integer 'num_bins', half the table's bins, "
                         "and a number 'max_magnitude'")
    quant = minsum.ZQuantizer(num_bins=num_bins, max_magnitude=max_magnitude)
    sigmas = _csv_float(args.sigmas)
    if len(sigmas) != args.degree:
        raise ValueError(f"need {args.degree} sigmas, got {len(sigmas)}")
    batch = minsum.simulate_batch(args.degree, sigmas, args.samples, args.seed, quant)
    report = minsum.evaluate_table(table, batch)
    if args.out:
        final = table.finalize()
        rows = [[b, int(table.counts[b])] + [repr(float(v)) for v in final[b]]
                for b in range(table.num_bins)]
        _save_csv(args.out, ["bin", "count", "q0", "q1"], rows, args.seed)
    _say(args, report.summary())
    return 0


def _load_alphas(path: str, n: int) -> np.ndarray:
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or doc.get("n") != n:
        found = doc.get("n") if isinstance(doc, dict) else None
        raise ValueError(f"alpha table is for n={found}, puzzle is n={n}")
    alphas = doc.get("alphas")
    if not (isinstance(alphas, list) and len(alphas) == n
            and all(isinstance(a, (int, float)) for a in alphas)):
        raise ValueError(f"alpha table needs an 'alphas' list of {n} numbers")
    return ParametricCorrector(alphas).alphas


def _run_solve(args) -> int:
    if args.puzzle:
        with open(args.puzzle) as f:
            puzzle = sudoku.parse_grid(f.read(), args.size)
    else:
        puzzle = sudoku.random_puzzle(args.size, make_rng(args.seed, 11))
    classic = puzzle.givens is not None
    channel = None if classic else sudoku.ChannelModel.from_snr_db(args.snr_db, q=args.size)
    alphas = _load_alphas(args.alpha_table, args.size) if args.alpha_table else None
    if args.node == "corrected" and alphas is None:
        raise ValueError("--node corrected requires --alpha-table")
    result = sudoku.bp_solve(puzzle, channel, node=args.node, alphas=alphas,
                             max_iters=args.iters, damping=args.damping, seed=args.seed)
    ser = None if math.isnan(result.symbol_error_rate) else result.symbol_error_rate
    if args.out:
        _save_json(args.out, {
            "version": __version__,
            "seed": args.seed,
            "size": args.size,
            "node": args.node,
            "snr_db": None if classic else args.snr_db,
            "solved": result.solved,
            "iterations": result.iterations,
            "symbol_error_rate": ser,
            "degenerate_rows": result.degenerate_rows,
        })
    _say(args, f"solved={result.solved} iterations={result.iterations} "
               f"symbol_error_rate={'n/a' if ser is None else f'{ser:.4f}'}")
    return 0


def _run_exit_chart(args) -> int:
    nodes = [tok.strip() for tok in args.node.split(",") if tok.strip()]
    snrs = _csv_float(args.snr_list) if args.snr_list else []
    grid = args.mi_grid
    alphas = _load_alphas(args.alpha_table, args.size) if args.alpha_table else None
    rows = []
    for node in nodes:
        if node == "corrected" and alphas is None:
            raise ValueError("corrected node requires --alpha-table")
        points = sudoku.exit_curve(node, grid, args.trials, args.seed, n=args.size,
                                   snr_db_list=snrs or None, alphas=alphas)
        for p in points:
            rows.append([p.node, "" if p.snr_db is None else repr(p.snr_db),
                         repr(p.ia_bits), repr(p.ie_bits), repr(p.stderr)])
    if args.out:
        _save_csv(args.out, ["node", "snr_db", "ia_bits", "ie_bits", "stderr"], rows, args.seed)
    _say(args, f"{len(rows)} exit points over nodes {','.join(nodes)} at {args.trials} trials")
    return 0


def _run_train_sudoku_alpha(args) -> int:
    mix = _csv_float(args.snr_list)
    result = sudoku.train_alpha(n=args.size, snr_db_list=mix, batch=args.batch,
                                seed=args.seed, budget=args.budget)
    if args.out:
        _save_json(args.out, {
            "version": 1,
            "n": args.size,
            "alphas": [float(a) for a in result.corrector.alphas],
        })
    _say(args, f"trained objective={result.objective_value:.6f} bits "
               f"(alpha=0.5 baseline {result.baseline_half:.6f}, "
               f"alpha=1 baseline {result.baseline_ones:.6f}; "
               f"{result.search.evaluations} evaluations)")
    return 0


def _run_bench(args) -> int:
    rng = make_rng(args.seed, 12)
    rows = []
    lines = []
    for n in range(2, args.max_n + 1):
        m = rng.random((n, n))
        kernels = [("ryser", permanent_ryser)]
        if n <= 10:
            kernels.append(("bruteforce", permanent_bruteforce))
        kernels.append(("sparse", permanent_sparse))
        timing = []
        for name, fn in kernels:
            t0 = time.perf_counter()
            value = fn(m)
            dt = time.perf_counter() - t0
            rows.append([n, name, repr(value)])
            timing.append(f"{name} {dt * 1e3:.3f} ms")
        uniform = permanent_uniform_rows(m[:, 0], n)
        rows.append([n, "uniform_rows", repr(uniform)])
        lines.append(f"n={n}: " + ", ".join(timing))
    if args.out:
        _save_csv(args.out, ["n", "kernel", "value"], rows, args.seed)
    for line in lines:
        _say(args, line)
    return 0


# -- parser --------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later call."""
    parser = _Parser(prog="rolemodel", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="64-bit run seed")
        p.add_argument("--out", type=str, default=None, help="machine-readable output path")
        p.add_argument("--quiet", action="store_true", help="suppress the stdout summary")

    p = sub.add_parser("verify-theorem", help="randomized check of the divergence identities")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--max-alphabet", type=int, default=5)
    common(p)
    p.set_defaults(run=_run_verify_theorem)

    p = sub.add_parser("train-minsum", help="train the check-node post-processing table")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--sigmas", type=str, default="1.0,1.0,1.0")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--bins", type=int, default=64)
    common(p)
    p.set_defaults(run=_run_train_minsum)

    p = sub.add_parser("eval-minsum", help="evaluate a trained table on a fresh batch")
    p.add_argument("--table", type=str, required=True)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--sigmas", type=str, default="1.0,1.0,1.0")
    p.add_argument("--samples", type=int, default=100000)
    common(p)
    p.set_defaults(run=_run_eval_minsum)

    p = sub.add_parser("solve", help="run the BP sudoku solver once")
    p.add_argument("--size", type=int, default=9, choices=(4, 9))
    p.add_argument("--snr-db", type=float, default=8.0)
    p.add_argument("--node", type=str, default="exact",
                   choices=("exact", "approx", "corrected"))
    p.add_argument("--alpha-table", type=str, default=None)
    p.add_argument("--iters", type=int, default=30)
    p.add_argument("--damping", type=float, default=0.9)
    p.add_argument("--puzzle", type=str, default=None,
                   help="grid file (row-major digits, 0 = unknown)")
    common(p)
    p.set_defaults(run=_run_solve)

    p = sub.add_parser("exit-chart", help="extrinsic information transfer sweep")
    p.add_argument("--node", type=str, default="exact,approx",
                   help="comma list of exact|approx|corrected|variable")
    p.add_argument("--size", type=int, default=9, choices=(4, 9))
    p.add_argument("--snr-list", type=str, default="",
                   help="channel snrs (dB); used by the variable node")
    p.add_argument("--mi-grid", type=_grid, default="0:3.17:0.25")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--alpha-table", type=str, default=None)
    common(p)
    p.set_defaults(run=_run_exit_chart)

    p = sub.add_parser("train-sudoku-alpha", help="train corrected-node weights")
    p.add_argument("--size", type=int, default=9, choices=(4, 9))
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--snr-list", type=str, default="6,8,10")
    p.add_argument("--budget", type=int, default=4000)
    common(p)
    p.set_defaults(run=_run_train_sudoku_alpha)

    p = sub.add_parser("bench", help="time the permanent kernels across n")
    p.add_argument("--max-n", type=int, default=8)
    common(p)
    p.set_defaults(run=_run_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # argparse (also --help/--version)
        return exc.code if isinstance(exc.code, int) else 1
    except RoleModelError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:  # flag values and input files
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
