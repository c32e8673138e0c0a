"""Command-line surface.

One binary, one subcommand per experiment. Machine-readable results go to
--out (CSV for tabular sweeps, JSON for trained artifacts); a short human
summary goes to stdout. Runs with identical flags and seed produce
byte-identical output files. Exit status: 0 success; 1 for a bad flag
value, an unreadable input file or a request too large for memory,
reported as one ``error:`` line on stderr; 2 for a numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys

import numpy as np

from . import __version__, chains, minsum, sudoku
from .errors import RoleModelError
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


def _comma_list(item, what: str):
    """The argparse type of a list flag: ``item`` of each comma-separated text ("" is [])."""

    def parse(text: str) -> list:
        items = text.split(",") if text else []
        try:
            if all(tok.strip() for tok in items):  # an empty or blank item is no item
                return [item(tok) for tok in items]
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of {what}")

    return parse


#: Most points a --mi-grid may hold; an a-priori grid spans at most log2(n) bits.
_MAX_GRID_POINTS = 10_000


def _count(low: int):
    """The argparse type of a count flag: an integer in [low, 2^63), numpy's int64 range."""

    def count(text: str) -> int:
        value = int(text)
        if not low <= value < 2**63:
            raise argparse.ArgumentTypeError(f"{value} is outside [{low}, 2^63)")
        return value

    return count


def _grid(text: str) -> list[float]:
    """start:stop:step, stop inclusive when it lands on the lattice."""
    try:
        start, stop, step = (float(tok) for tok in text.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}, expected start:stop:step") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise argparse.ArgumentTypeError(f"bad grid {text!r}, start, stop and step must be finite")
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError("grid needs step > 0 and stop >= start")
    if (stop + 1e-9 - start) / step >= _MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"grid {text!r} has more than {_MAX_GRID_POINTS} points")
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
        f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load(path: str, parse, *args):
    """``parse(text, *args)`` of the file at ``path``; a ValueError, bad UTF-8 too, names it."""
    try:
        with open(path, encoding="utf-8") as f:
            return parse(f.read(), *args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number: true and false load as Python ints, but are not numbers."""
    return _is_int(value) or isinstance(value, float)


def _finite_row(values, q: int, name: str) -> np.ndarray:
    """``values`` as a length-q float row; ValueError unless every entry is a finite number.

    Each entry must pass :func:`_is_number`, so neither a bool nor a numeric
    string counts, though numpy would convert both.
    """
    try:
        if all(_is_number(v) for v in values):
            row = np.asarray(values, dtype=float)
            if row.shape == (q,) and np.all(np.isfinite(row)):
                return row
    except (TypeError, OverflowError):  # not a sequence; an int past the float range
        pass
    raise ValueError(f"{name} must be {q} finite numbers")


def _versioned(text: str, version: int, what: str) -> dict:
    """The JSON object in ``text``; ValueError unless its ``version`` is the integer ``version``."""
    doc = json.loads(text)
    found = doc.get("version") if isinstance(doc, dict) else None
    if not _is_int(found) or found != version:
        raise ValueError(f"unsupported {what} version {found!r}")
    return doc


def _addressable(flag: str, count: int, nbytes: int) -> None:
    """ValueError naming ``flag`` when the ``nbytes`` of its first array are past numpy's range."""
    if nbytes > np.iinfo(np.intp).max:
        raise ValueError(f"{flag} {count} needs {nbytes} bytes, more than numpy can index")


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


# -- subcommands ---------------------------------------------------------


def _run_verify_theorem(args) -> int:
    if args.max_alphabet < 2 or args.max_alphabet**3 > chains.MAX_CELLS:
        raise ValueError(f"--max-alphabet must be at least 2, and its cube at most "
                         f"the {chains.MAX_CELLS}-cell enumeration cap")
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


#: The ``version`` of the min-sum tables that train-minsum writes and eval-minsum reads.
TABLE_FORMAT_VERSION = 2


def _table_doc(table: PostTable) -> dict:
    """The JSON document of a trained min-sum table: each bin's count and posterior sum."""
    return {
        "version": TABLE_FORMAT_VERSION,
        "bins": [{"sum": row, "count": count}
                 for row, count in zip(table.sums.tolist(), table.counts.tolist())],
    }


def _save_table(path: str, doc: dict) -> None:
    """Write a :func:`_table_doc` document with its keys sorted, one bin per line.

    Each line goes through the C encoder; ``_save_json``'s indented layout
    runs the pure-Python one, most of a large table's run.
    """
    encode = json.JSONEncoder(sort_keys=True).encode
    bins = ",\n".join(map(encode, doc["bins"]))
    with open(path, "w") as f:
        f.write(f'{{"bins": [\n{bins}\n], "version": {encode(doc["version"])}}}\n')


def _table_from_json(text: str) -> tuple[PostTable, np.ndarray, minsum.ZQuantizer]:
    """The table that :func:`_save_table` wrote, its finalized rows and its quantizer.

    ValueError on a bad schema, or where a finalized row holds a zero, which
    no trained row does: each tanh-rule posterior entry is at least 2^-54.
    """
    doc = _versioned(text, TABLE_FORMAT_VERSION, "table")
    bins = doc.get("bins")
    if not (isinstance(bins, list) and bins and len(bins) % 2 == 0
            and all(isinstance(e, dict) and _is_int(e.get("count"))
                    and 0 <= e["count"] < 2**63 for e in bins)):
        raise ValueError("table needs a non-empty, even-length 'bins' list of objects "
                         "with a non-negative integer 'count'")
    quant = minsum.ZQuantizer(num_bins=len(bins) // 2)
    table = minsum.new_table(quant)
    table.sums[:] = [_finite_row(e.get("sum"), 2, f"sum of bin {b}") for b, e in enumerate(bins)]
    table.counts[:] = [e["count"] for e in bins]
    # each posterior entry is at most 1, so a trained sum never passes its count
    if (np.any(table.sums < 0) or np.any(table.sums > table.counts[:, None])
            or np.any((table.counts > 0) & (table.sums.sum(axis=1) <= 0))):
        raise ValueError("table bin sums must lie in [0, count], and be positive where the count is")
    with np.errstate(invalid="ignore"):  # a sum that underflows by its count finalizes to NaN
        final = table.finalize()
    zero = np.flatnonzero(~np.all(final > 0, axis=1))
    if zero.size:
        raise ValueError(f"bin {zero[0]} finalizes to a zero entry, which no trained table has")
    return table, final, quant


def _run_train_minsum(args) -> int:
    _addressable("--bins", args.bins, 2 * args.bins * 2 * 8)  # the (2b, 2) float64 sums
    quant = minsum.ZQuantizer(num_bins=args.bins)
    # the table is allocated before the first draw, and the blocks are added up as they are
    # drawn, so --samples sizes no array
    table = minsum.new_table(quant)
    for block in minsum.simulate_blocks(args.degree, args.sigmas, args.samples, args.seed, quant):
        table.ingest_batch(block)
    if args.out:
        _save_table(args.out, _table_doc(table))
    _say(args, f"trained {args.samples} samples into {quant.total_bins} bins")
    return 0


def _run_eval_minsum(args) -> int:
    table, final, quant = _load(args.table, _table_from_json)
    report = minsum.evaluate_table(final, minsum.simulate_blocks(args.degree, args.sigmas,
                                                                args.samples, args.seed, quant))
    if args.out:
        rows = [[b, int(table.counts[b])] + [repr(float(v)) for v in final[b]]
                for b in range(table.num_bins)]
        _save_csv(args.out, ["bin", "count", "q0", "q1"], rows, args.seed)
    _say(args, report.summary())
    return 0


#: The ``version`` of the alpha tables that train-sudoku-alpha writes and the CLI reads.
ALPHA_FORMAT_VERSION = 1


def _alphas_from_json(text: str, n: int) -> np.ndarray:
    doc = _versioned(text, ALPHA_FORMAT_VERSION, "alpha table")
    if not _is_int(doc.get("n")) or doc["n"] != n:
        raise ValueError(f"alpha table is for n={doc.get('n')}, puzzle is n={n}")
    return ParametricCorrector(_finite_row(doc.get("alphas"), n, "alphas")).alphas


def _run_solve(args) -> int:
    if args.puzzle is not None:
        puzzle = _load(args.puzzle, sudoku.parse_grid, args.size)
    else:
        puzzle = sudoku.random_puzzle(args.size, make_rng(args.seed, 11))
    classic = puzzle.givens is not None
    channel = None if classic else sudoku.ChannelModel.from_snr_db(args.snr_db, q=args.size)
    alphas = (_load(args.alpha_table, _alphas_from_json, args.size)
              if args.alpha_table is not None else None)
    result = sudoku.bp_solve(puzzle, channel, sudoku.node_function(args.node, alphas=alphas),
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
    # the default grid spans the a-priori range of the size, [0, log2(n)]
    grid = args.mi_grid if args.mi_grid is not None else _grid(f"0:{math.log2(args.size)}:0.25")
    # each point draws (blocks, trials, n, n) float64 noise, 3 blocks with variable
    noise_bytes = (3 if "variable" in args.node else 1) * args.trials * args.size**2 * 8
    _addressable("--trials", args.trials, noise_bytes)
    alphas = (_load(args.alpha_table, _alphas_from_json, args.size)
              if args.alpha_table is not None else None)
    points = sudoku.exit_curve(args.node, grid, args.trials, args.seed, n=args.size,
                               snr_db_list=args.snr_list, alphas=alphas)
    rows = [[p.node, "" if p.snr_db is None else repr(p.snr_db),
             repr(p.ia_bits), repr(p.ie_bits), repr(p.stderr)] for p in points]
    if args.out:
        _save_csv(args.out, ["node", "snr_db", "ia_bits", "ie_bits", "stderr"], rows, args.seed)
    _say(args, f"{len(rows)} exit points over nodes {','.join(args.node)} at {args.trials} trials, "
               f"fallback_rows={sum(p.fallback_rows for p in points)}")
    return 0


def _run_train_sudoku_alpha(args) -> int:
    result = sudoku.train_alpha(n=args.size, snr_db_list=args.snr_list, batch=args.batch,
                                seed=args.seed, budget=args.budget)
    if args.out:
        _save_json(args.out, {
            "version": ALPHA_FORMAT_VERSION,
            "n": args.size,
            "alphas": [float(a) for a in result.corrector.alphas],
        })
    _say(args, f"trained objective={result.objective_value:.6f} bits "
               f"(alpha=0.5 baseline {result.baseline_half:.6f}, "
               f"alpha=1 baseline {result.baseline_ones:.6f}; "
               f"{result.search.evaluations} evaluations)")
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
    p.add_argument("--trials", type=_count(1), default=50)
    p.add_argument("--max-alphabet", type=int, default=5)
    common(p)
    p.set_defaults(run=_run_verify_theorem)

    p = sub.add_parser("train-minsum", help="train the check-node post-processing table")
    p.add_argument("--degree", type=_count(1), default=3)
    p.add_argument("--sigmas", type=_comma_list(float, "numbers"), default="1.0,1.0,1.0")
    p.add_argument("--samples", type=_count(1), default=100000)
    p.add_argument("--bins", type=_count(1), default=64)
    common(p)
    p.set_defaults(run=_run_train_minsum)

    p = sub.add_parser("eval-minsum", help="score a trained table on a batch (its training "
                                           "seed and samples give the in-sample score)")
    p.add_argument("--table", type=str, required=True)
    p.add_argument("--degree", type=_count(1), default=3)
    p.add_argument("--sigmas", type=_comma_list(float, "numbers"), default="1.0,1.0,1.0")
    p.add_argument("--samples", type=_count(1), default=100000)
    common(p)
    p.set_defaults(run=_run_eval_minsum)

    p = sub.add_parser("solve", help="run the BP sudoku solver once")
    p.add_argument("--size", type=int, default=9, choices=sorted(sudoku.BOX_SIDE))
    p.add_argument("--snr-db", type=float, default=8.0)
    p.add_argument("--node", type=str, default="exact", choices=sudoku.NODE_KINDS)
    p.add_argument("--alpha-table", type=str, default=None)
    p.add_argument("--iters", type=_count(0), default=30)
    p.add_argument("--damping", type=float, default=0.9)
    p.add_argument("--puzzle", type=str, default=None,
                   help="grid file (row-major digits, 0 = unknown)")
    common(p)
    p.set_defaults(run=_run_solve)

    p = sub.add_parser("exit-chart", help="extrinsic information transfer sweep")
    p.add_argument("--node", type=_comma_list(str.strip, "node kinds"), default="exact,approx",
                   help="comma list of exact|approx|corrected|variable")
    p.add_argument("--size", type=int, default=9, choices=sorted(sudoku.BOX_SIDE))
    p.add_argument("--snr-list", type=_comma_list(float, "numbers"), default="",
                   help="channel snrs (dB); used by the variable node")
    p.add_argument("--mi-grid", type=_grid, default=None,
                   help="a-priori MI grid start:stop:step in bits (default 0:log2(size):0.25)")
    p.add_argument("--trials", type=_count(1), default=200)
    p.add_argument("--alpha-table", type=str, default=None)
    common(p)
    p.set_defaults(run=_run_exit_chart)

    p = sub.add_parser("train-sudoku-alpha", help="train corrected-node weights")
    p.add_argument("--size", type=int, default=9, choices=sorted(sudoku.BOX_SIDE))
    p.add_argument("--batch", type=_count(1), default=64)
    p.add_argument("--snr-list", type=_comma_list(float, "numbers"), default="6,8,10")
    p.add_argument("--budget", type=_count(1), default=4000)
    common(p)
    p.set_defaults(run=_run_train_sudoku_alpha)

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
    except (ValueError, OverflowError, OSError) as exc:  # flag values and input files
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:  # a count of samples or bins too large to hold
        detail = f": {exc}" if str(exc) else ""
        sys.stderr.write(f"error: out of memory{detail}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
