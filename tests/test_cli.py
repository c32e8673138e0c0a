import argparse
import contextlib
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolemodel import cli, minsum, sudoku
from rolemodel.cli import build_parser, main
from rolemodel.rng import make_rng

from test_acceptance import determinism_runs


def run(argv):
    return main(argv)


class TestDispatch:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert run(["eval-minsum"]) == 1  # --table is required
        assert "error" in capsys.readouterr().err

    def test_bad_threads(self):
        # no --threads flag: execution is serial
        assert run(["verify-theorem", "--trials", "2", "--threads", "2"]) == 1

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # a-priori MI target above log2(4) is unreachable at size 4
        code = run(["exit-chart", "--size", "4", "--node", "exact",
                    "--mi-grid", "3:3:1", "--trials", "2",
                    "--out", str(tmp_path / "x.csv"), "--quiet"])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_a_target_a_millionth_of_a_bit_above_zero_calibrates(self, tmp_path):
        assert run(["exit-chart", "--size", "9", "--mi-grid", "0.000001:0.000001:1",
                    "--trials", "8", "--out", str(tmp_path / "x.csv"), "--quiet"]) == 0

    def test_version(self, capsys):
        assert run(["--version"]) == 0

    def test_command_tables_name_every_subcommand(self):
        # acceptance test 9 and the flag grammar below each run every subcommand
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert set(determinism_runs("table.json")) == set(sub.choices)
        assert set(GRAMMAR) == set(sub.choices)


#: The bytes ff fe 7b: a UTF-16 byte-order mark and "{", which is no UTF-8 text.
NOT_UTF8 = b"\xff\xfe{"
#: JSON inputs that the argv lists below name as "@<file name>".
INPUT_FILES = {
    "alphas.json": {"version": 1, "n": 9, "alphas": [0.5] * 9},  # not a min-sum table
    "n4.json": {"n": 4},  # the right n, but no alphas
    "v99.json": {"version": 99, "n": 4, "alphas": [0.5] * 4},  # a version this CLI cannot read
    "unversioned.json": {"n": 4, "alphas": [0.5] * 4},
    # an odd bin count, which no pair of sign branches has
    "nospec.json": {"version": 2, "bins": [{"sum": [0.0, 0.0], "count": 0}] * 3},
    # a min-sum table of the format before the current one
    "v1table.json": {"version": 1, "q": 2, "fallback": [0.5, 0.5],
                     "bin_spec": {"kind": "minsum", "num_bins": 1, "max_magnitude": 25.0},
                     "bins": [{"sum": [0.0, 0.0], "count": 0}] * 2},
    # JSON true and false load as Python ints, but are not numbers
    "boolalphas.json": {"version": 1, "n": 4, "alphas": [True, False, True, 1]},
    "boolversion.json": {"version": True, "n": 4, "alphas": [0.5] * 4},
    # the integer fields of an alpha table, typed as floats
    "floatversion.json": {"version": 1.0, "n": 4, "alphas": [0.5] * 4},
    "floatn.json": {"version": 1, "n": 4.0, "alphas": [0.5] * 4},
    "boolsum.json": {"version": 2,
                     "bins": [{"sum": [True, True], "count": 1}, {"sum": [0.0, 0.0], "count": 0}]},
    # numeric strings, which numpy would parse as numbers
    "strsum.json": {"version": 2,
                    "bins": [{"sum": ["0.5", "0.5"], "count": 1}, {"sum": [0.0, 0.0], "count": 0}]},
    "booltable.json": {"version": True, "bins": [{"sum": [0.0, 0.0], "count": 0}] * 2},
    # a valid table but for its three-entry sums: min-sum tables are binary
    "ternary.json": {"version": 2, "bins": [{"sum": [0.0, 0.0, 0.0], "count": 0}] * 2},
    # sums past their count, whose row sum overflows
    "hugesum.json": {"version": 2, "bins": [{"count": 1, "sum": [1e308, 1e308]},
                                            {"count": 0, "sum": [0, 0]}]},
    # rows that pass the sum checks but finalize to a zero entry, which no
    # trained row has: a zero sum entry, one that underflows by its count,
    # and a whole sum that does, whose row would be 0 / 0
    "zerorow.json": {"version": 2, "bins": [{"count": 0, "sum": [0.0, 0.0]},
                                            {"count": 1, "sum": [1.0, 0.0]}]},
    "underflow.json": {"version": 2, "bins": [{"count": 2**62, "sum": [5e-324, 1.0]},
                                              {"count": 0, "sum": [0.0, 0.0]}]},
    "nanrow.json": {"version": 2, "bins": [{"count": 2, "sum": [5e-324, 0.0]},
                                           {"count": 0, "sum": [0.0, 0.0]}]},
}


class TestErrorContract:
    """Bad flag values and unreadable inputs: status 1, one ``error:`` line, no NaN."""

    @pytest.mark.parametrize("argv", [
        ["train-minsum", "--samples", "0"],
        ["train-minsum", "--bins", "0"],
        ["eval-minsum", "--table", "/nonexistent/table.json"],
        ["solve", "--damping", "0"],
        ["exit-chart", "--node", "bogus", "--mi-grid", "0:0:1"],
        ["exit-chart", "--node", "variable", "--mi-grid", "0:0:1"],
        ["exit-chart", "--node", "exact", "--mi-grid", "0:0:1", "--trials", "0"],
        ["verify-theorem", "--trials", "0"],
        ["verify-theorem", "--max-alphabet", "1"],
        ["train-sudoku-alpha", "--batch", "0"],
        ["train-sudoku-alpha", "--snr-list", ""],
        ["train-minsum", "--sigmas", "nan,1,1", "--samples", "10"],
        ["train-minsum", "--sigmas", "inf,1,1", "--samples", "10"],
        ["exit-chart", "--node", "variable", "--snr-list", "nan", "--mi-grid", "0:1:0.5",
         "--trials", "2"],
        ["eval-minsum", "--table", "@alphas.json", "--samples", "10"],
        ["eval-minsum", "--table", "@nospec.json", "--samples", "10"],
        ["eval-minsum", "--table", "@ternary.json", "--samples", "10"],
        ["eval-minsum", "--table", "@v1table.json", "--samples", "10"],
        ["solve", "--size", "4", "--node", "corrected", "--alpha-table", "@n4.json"],
        # the corrected node without its alpha table
        ["solve", "--size", "4", "--node", "corrected"],
        ["exit-chart", "--size", "4", "--node", "corrected", "--mi-grid", "0:1:1", "--trials", "2"],
        # alpha tables of another format version, or of none
        ["solve", "--size", "4", "--node", "corrected", "--alpha-table", "@v99.json"],
        ["solve", "--size", "4", "--node", "corrected", "--alpha-table", "@unversioned.json"],
        ["exit-chart", "--size", "4", "--node", "corrected", "--mi-grid", "0:1:1", "--trials", "2",
         "--alpha-table", "@v99.json"],
        ["solve", "--size", "4", "--snr-db=-1e308"],
        # sigmas whose square overflows or underflows
        ["solve", "--size", "4", "--snr-db=-6000"],
        ["solve", "--size", "4", "--snr-db", "6000"],
        ["solve", "--size", "4", "--snr-db", "-1e5"],
        ["train-minsum", "--sigmas", "1e-300,1,1", "--samples", "10"],
        ["train-minsum", "--sigmas", "1e300,1,1", "--samples", "10"],
        # unbounded grids would never stop growing
        ["exit-chart", "--mi-grid=-inf:0:1"],
        ["exit-chart", "--mi-grid", "0:inf:1"],
        ["exit-chart", "--mi-grid", "0:1e308:1"],
        ["exit-chart", "--mi-grid", "0:0:1e-300"],
        # a subcommand that is gone, with its old flag and without
        ["bench", "--max-n", "17"],
        ["bench", "--max-n", "1"],
        ["bench"],
        # JSON booleans where a number is read
        ["solve", "--size", "4", "--node", "corrected", "--alpha-table", "@boolalphas.json"],
        ["solve", "--size", "4", "--node", "corrected", "--alpha-table", "@boolversion.json"],
        ["solve", "--size", "4", "--node", "corrected", "--alpha-table", "@floatversion.json"],
        ["solve", "--size", "4", "--node", "corrected", "--alpha-table", "@floatn.json"],
        ["eval-minsum", "--table", "@boolsum.json", "--samples", "10"],
        ["eval-minsum", "--table", "@booltable.json", "--samples", "10"],
        ["eval-minsum", "--table", "@strsum.json", "--samples", "10"],
        ["eval-minsum", "--table", "@hugesum.json", "--samples", "10"],
        ["eval-minsum", "--table", "@zerorow.json", "--samples", "10"],
        ["eval-minsum", "--table", "@underflow.json", "--samples", "10"],
        ["eval-minsum", "--table", "@nanrow.json", "--samples", "10"],
        # counts past what the command can do, and lists that name nothing
        ["verify-theorem", "--max-alphabet", "101"],
        ["exit-chart", "--node", "", "--mi-grid", "0:0:1"],
        ["exit-chart", "--node", ",", "--mi-grid", "0:0:1"],
        # a bad snr that the harvest's first runs would never reach
        ["train-sudoku-alpha", "--snr-list", "6,8,nan"],
        # a bad snr that constraint-node curves never use
        ["exit-chart", "--size", "4", "--node", "exact", "--snr-list", "nan", "--mi-grid",
         "0:1:1", "--trials", "2"],
        # an empty path names no readable file; it does not mean "no file"
        ["solve", "--size", "4", "--alpha-table", ""],
        ["solve", "--size", "4", "--puzzle", ""],
        ["exit-chart", "--size", "4", "--node", "exact", "--mi-grid", "0:1:1", "--trials", "2",
         "--alpha-table", ""],
        # counts below their least value (--iters 0 is a run of channel decisions)
        ["solve", "--size", "4", "--iters", "-1"],
        ["train-sudoku-alpha", "--size", "4", "--batch", "2", "--snr-list", "8", "--budget", "0"],
        ["train-sudoku-alpha", "--size", "4", "--batch", "2", "--snr-list", "8", "--budget", "-5"],
        # seeds outside [0, 2^64), which would alias seeds inside it
        ["solve", "--size", "4", "--seed", "-1"],
        ["solve", "--size", "4", "--seed", "18446744073709551616"],
        ["verify-theorem", "--trials", "2", "--seed", "-1"],
        # counts past numpy's integer range
        ["train-minsum", "--bins", "9223372036854775808", "--samples", "10"],
        ["exit-chart", "--size", "4", "--trials", "100000000000000000000", "--mi-grid", "1:1:1"],
        ["train-minsum", "--degree", "100000000000000000000", "--sigmas", "1", "--samples", "10"],
        # a branch count below one
        ["train-minsum", "--degree", "0", "--sigmas", "1", "--samples", "10"],
    ], ids=" ".join)
    @pytest.mark.filterwarnings("error")  # a numpy warning is not an error line
    def test_bad_input_is_one_error_line(self, argv, tmp_path, capsys):
        for name, doc in INPUT_FILES.items():
            (tmp_path / name).write_text(json.dumps(doc))
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        # a value the parser rejects gets argparse's form, after its usage line;
        # an unknown subcommand gets the top-level parser's form
        prefixes = ("error: ", f"rolemodel {argv[0]}: error: ", "rolemodel: error: ")
        assert len([line for line in err.splitlines() if line.startswith(prefixes)]) == 1
        assert not out.exists() or "nan" not in out.read_text()

    @pytest.mark.parametrize("argv, snr", [
        (["solve", "--size", "4", "--snr-db=-1e308"], "-1e+308"),
        (["exit-chart", "--snr-list", "nan"], "nan"),
        (["train-sudoku-alpha", "--snr-list", "6,8,nan"], "nan"),
    ])
    def test_an_snr_without_a_channel_is_named(self, argv, snr, capsys):
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: snr {snr} dB gives no valid channel")

    @pytest.mark.parametrize("argv, owner, allocating", [
        (["train-minsum", "--samples", "100000000000"], minsum, "simulate_blocks"),
        (["train-minsum", "--bins", "100000000000"], cli, "PostTable"),
        (["train-minsum", "--quiet", "--bins", "100000000000"], cli, "PostTable"),
    ])
    def test_a_request_too_large_for_memory_is_one_error_line(self, argv, owner, allocating,
                                                               tmp_path, monkeypatch, capsys):
        # whether a real multi-TiB request fails at once depends on the host's
        # overcommit setting, so the allocating call raises as numpy's would:
        # simulate_blocks allocates each block's arrays, and PostTable a training run's
        # table, quiet or not.
        # The table is allocated before the first draw, so no request draws anything.
        def allocate(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.91 TiB for an array")

        draws = []
        monkeypatch.setattr(owner, allocating, allocate)
        monkeypatch.setattr(minsum, "make_rng", lambda *a: draws.append(a))
        out = tmp_path / "table.json"
        assert run(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 2.91 TiB for an array\n"
        assert not out.exists()
        assert draws == []

    @pytest.mark.parametrize("argv, text, message", [
        (["eval-minsum", "--samples", "10", "--table"], "{bad",
         "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (["solve", "--size", "4", "--node", "corrected", "--alpha-table"], "{bad",
         "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (["solve", "--size", "4", "--puzzle"], "123", "expected 4x4 grid, got 3 symbols"),
        (["eval-minsum", "--samples", "10", "--table"], json.dumps(INPUT_FILES["nospec.json"]),
         "table needs a non-empty, even-length 'bins' list of objects "
         "with a non-negative integer 'count'"),
        (["eval-minsum", "--samples", "10", "--table"], json.dumps(INPUT_FILES["v1table.json"]),
         "unsupported table version 1"),
        (["eval-minsum", "--samples", "10", "--table"], json.dumps(INPUT_FILES["hugesum.json"]),
         "table bin sums must lie in [0, count], and be positive where the count is"),
        *[(["eval-minsum", "--samples", "10", "--table"], json.dumps(INPUT_FILES[name]),
           f"bin {b} finalizes to a zero entry, which no trained table has")
          for name, b in (("zerorow.json", 1), ("underflow.json", 0), ("nanrow.json", 0))],
        *[(argv, NOT_UTF8, "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")
          for argv in (["eval-minsum", "--samples", "10", "--table"],
                       ["solve", "--size", "4", "--node", "corrected", "--alpha-table"],
                       ["solve", "--size", "4", "--puzzle"])],
    ], ids=["eval-minsum --samples 10 --table", "solve --size 4 --node corrected --alpha-table",
            "solve --size 4 --puzzle", "eval-minsum --table nospec.json",
            "eval-minsum --table v1table.json", "eval-minsum --table hugesum.json",
            "eval-minsum --table zerorow.json", "eval-minsum --table underflow.json",
            "eval-minsum --table nanrow.json",
            "eval-minsum --table not-utf-8",
            "solve --alpha-table not-utf-8", "solve --puzzle not-utf-8"])
    def test_a_malformed_input_file_is_named(self, argv, text, message, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert run(argv + [str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize("last", [["0.5", 0.0], [True, 0.0], [0.5], None, [10**400, 0.0],
                                      [float("inf"), 0.0]],
                             ids=["string", "bool", "one entry", "null", "past float", "inf"])
    def test_a_bad_sum_in_the_last_bin_of_a_large_table_is_named(self, last, tmp_path, capsys):
        # the error names the bad bin however far into the table it sits
        bins = [{"sum": [0.5, 0.5], "count": 1}] * (2**12 - 1) + [{"sum": last, "count": 1}]
        bad = tmp_path / "table.json"
        bad.write_text(json.dumps({"version": 2, "bins": bins}))
        assert run(["eval-minsum", "--samples", "10", "--table", str(bad)]) == 1
        assert capsys.readouterr().err == (f"error: {bad}: sum of bin {2**12 - 1} "
                                           f"must be 2 finite numbers\n")

    @pytest.mark.parametrize("argv", [
        ["train-minsum", "--samples", "10", "--sigmas", "1,,1,1"],
        ["train-minsum", "--samples", "10", "--sigmas", "1, 1 ,1,"],
        ["exit-chart", "--size", "4", "--node", "exact", "--mi-grid", "0:1:1", "--trials", "2",
         "--snr-list", "8,,10"],
        ["train-sudoku-alpha", "--size", "4", "--batch", "2", "--budget", "20",
         "--snr-list", "8,,10"],
        ["exit-chart", "--size", "4", "--mi-grid", "1:1:1", "--trials", "2",
         "--node", "exact,,approx"],
        ["exit-chart", "--size", "4", "--mi-grid", "1:1:1", "--trials", "2", "--node", "exact,"],
    ], ids=" ".join)
    def test_an_empty_list_item_names_its_flag(self, argv, capsys):
        # an empty item is not dropped: "1,,1,1" is no list of three sigmas
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f"rolemodel {argv[0]}: error: argument {argv[-2]}: {argv[-1]!r} is not a " in err

    @pytest.mark.parametrize("argv", [
        ["train-minsum", "--bins", str(2**63 - 1), "--samples", "10"],
        ["exit-chart", "--size", "4", "--node", "exact", "--trials", str(2**63 - 1),
         "--mi-grid", "1:1:1"],
    ], ids=" ".join)
    def test_a_count_no_array_can_hold_names_its_flag(self, argv, capsys):
        # in [1, 2^63), but the flag's first array would need 2^63 bytes or more;
        # --samples sizes no array, since a min-sum run streams its samples
        flag = argv[argv.index(str(2**63 - 1)) - 1]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} {2**63 - 1} needs ")

    def test_harvest_shortfall_says_what_it_gathered(self, capsys):
        # at 300 dB, BP decides every cell from the channel alone and never calls a node
        argv = ["train-sudoku-alpha", "--size", "4", "--batch", "4", "--snr-list", "300"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == ("error: harvest gathered 0 of the 4 matrices needed in 64 BP runs, "
                       "its cap: BP solved too early at these snrs, or --batch is too large\n")

    def test_an_unfillable_batch_fails_before_the_first_bp_run(self, monkeypatch, capsys):
        # 64 runs of 5 iterations hold 3n = 12 matrices an iteration: 3840 at n = 4
        calls = []
        solve = sudoku.bp_solve

        def recording(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(sudoku, "bp_solve", recording)
        assert run(["train-sudoku-alpha", "--size", "4", "--snr-list", "8", "--batch", "3841"]) == 1
        assert "at most 3840, all that 64 BP runs" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ["verify-theorem", "--trials"],
        ["exit-chart", "--trials"],
        ["train-minsum", "--samples"],
        ["train-minsum", "--bins"],
        ["train-minsum", "--degree"],
        ["eval-minsum", "--table", "t.json", "--samples"],
        ["eval-minsum", "--table", "t.json", "--degree"],
        ["solve", "--iters"],
        ["train-sudoku-alpha", "--batch"],
        ["train-sudoku-alpha", "--budget"],
    ], ids=" ".join)
    def test_a_count_past_int64_names_its_flag(self, argv, capsys):
        # parsed, not run: a parser that let 2^63 through would start a run
        # of 2^63 trials, samples or iterations
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + [str(2**63)])
        assert exc.value.code == 1
        assert f"rolemodel {argv[0]}: error: argument {argv[-1]}: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train-minsum"], ["eval-minsum", "--table", "@table.json"],
    ], ids=" ".join)
    def test_a_degree_past_the_sigmas_fails_on_their_count(self, argv, flag_dir, capsys):
        # simulate_blocks rejects the mismatch before it allocates or draws anything
        argv = [str(flag_dir / a[1:]) if a.startswith("@") else a for a in argv]
        assert run(argv + ["--degree", str(2**62), "--sigmas", "1", "--samples", "10"]) == 1
        assert capsys.readouterr().err == f"error: need {2**62} sigmas, got 1\n"

    def test_zero_iterations_leave_the_channel_decisions(self, tmp_path):
        out = tmp_path / "solve.json"
        assert run(["solve", "--size", "4", "--iters", "0", "--out", str(out), "--quiet"]) == 0
        doc = json.loads(out.read_text())
        assert doc["iterations"] == 0 and 0.0 <= doc["symbol_error_rate"] <= 1.0

    @pytest.mark.parametrize("nodes", ["exact,bogus", "exact,corrected"])
    def test_node_list_is_checked_before_any_curve(self, nodes, monkeypatch, capsys):
        # sudoku checks the kinds before the first point calibrates or draws a trial
        work = []
        monkeypatch.setattr(sudoku, "calibrate_sigma", lambda *a: work.append("calibrate"))
        monkeypatch.setattr(sudoku, "make_rng", lambda *a: work.append("draw"))
        assert run(["exit-chart", "--node", nodes, "--mi-grid", "1:1:1"]) == 1
        assert work == []


#: Per subcommand, a small run that succeeds in milliseconds, and the flags
#: the property test draws for it. The drawn flag and value are appended
#: after the base argv, and argparse keeps a flag's last value.
GRAMMAR = {
    "verify-theorem": (["--trials", "2", "--max-alphabet", "3"],
                       ["--trials", "--max-alphabet", "--seed"]),
    "train-minsum": (["--samples", "50", "--bins", "4"],
                     ["--degree", "--sigmas", "--samples", "--bins", "--seed"]),
    "eval-minsum": (["--table", "@table.json", "--samples", "50"],
                    ["--table", "--degree", "--sigmas", "--samples", "--seed"]),
    "solve": (["--size", "4", "--iters", "3"],
              ["--size", "--snr-db", "--node", "--alpha-table", "--iters", "--damping",
               "--puzzle", "--seed"]),
    "exit-chart": (["--size", "4", "--node", "exact", "--mi-grid", "0:1:1", "--trials", "2"],
                   ["--node", "--size", "--snr-list", "--mi-grid", "--trials",
                    "--alpha-table", "--seed"]),
    "train-sudoku-alpha": (["--size", "4", "--batch", "2", "--snr-list", "8", "--budget", "20"],
                           ["--size", "--batch", "--snr-list", "--budget", "--seed"]),
}
#: Commands whose --out is a CSV file with a header line.
CSV_OUT = {"verify-theorem", "eval-minsum", "exit-chart"}
#: Bad values by the kind of value a flag takes: nan, +-inf, 0, -1, empty,
#: malformed lists, three-element lists with one bad element (the base runs
#: have three branches), and files of the wrong kind (an n = 9 alpha table,
#: an n = 4 one without alphas, a bare list, the min-sum table off its flag,
#: a min-sum table of format version 1, one with a zero entry, and bytes
#: that are not UTF-8).
SCALAR = ["nan", "inf", "-inf", "0", "-1", ""]
BAD_VALUES = {
    "number": SCALAR,
    "list": SCALAR + [",", "1,,x", "1:2"] + [f"{v},1,1" for v in SCALAR if v],
    "grid": SCALAR + ["1:2", "nan:1:1", "0:1:0"],
    "file": ["", "nan", "@alphas9.json", "@n4.json", "@list.json", "@table.json",
             "@v1table.json", "@zerorow.json", "@latin.json"],
}
HUGE_VALUES = {"number": ["1e308", "9" * 30], "list": ["1e308", "1e308,1,1"],
               "grid": ["0:1e308:1"], "file": []}
FLAG_KINDS = {"--sigmas": "list", "--snr-list": "list", "--node": "list", "--mi-grid": "grid",
              "--table": "file", "--alpha-table": "file", "--puzzle": "file"}
FLAG_FILES = {"alphas9.json": {"version": 1, "n": 9, "alphas": [0.5] * 9},
              "n4.json": {"n": 4}, "list.json": [1, 2, 3],
              "v1table.json": INPUT_FILES["v1table.json"],
              "zerorow.json": INPUT_FILES["zerorow.json"], "latin.json": NOT_UTF8}
NON_FINITE = re.compile(r"\b(nan|-?inf(inity)?)\b", re.IGNORECASE)


@st.composite
def bad_argv(draw):
    """One subcommand's small run with one flag set to a bad value.

    One bad value per run, so that no other flag's check can mask its
    outcome; the choices form a tree of about 300 leaves, which the test's
    example budget exhausts.
    """
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    base, flags = GRAMMAR[command]
    flag = draw(st.sampled_from(flags))
    kind = FLAG_KINDS.get(flag, "number")
    return [command, *base, flag, draw(st.sampled_from(BAD_VALUES[kind] + HUGE_VALUES[kind]))]


@pytest.fixture(scope="module")
def flag_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("flags")
    for name, doc in FLAG_FILES.items():
        (root / name).write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    assert main(["train-minsum", "--samples", "50", "--bins", "4", "--quiet",
                 "--out", str(root / "table.json")]) == 0
    return root


class TestFlagGrammar:
    """Any one bad flag value ends in status 0, 1 or 2 under the exit-status contract."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(bad_argv())
    def test_every_outcome_keeps_the_contract(self, flag_dir, argv):
        argv = [str(flag_dir / a[1:]) if a.startswith("@") else a for a in argv]
        out = flag_dir / "out"
        out.unlink(missing_ok=True)
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")  # a numpy warning is neither a result nor an error line
            status = main(argv + ["--out", str(out)])
        err = stderr.getvalue()
        assert status in (0, 1, 2)
        assert "Traceback" not in err
        lines = err.splitlines()
        if status == 1:
            prefixes = ("error: ", f"rolemodel {argv[0]}: error: ")
            assert len([line for line in lines if line.startswith(prefixes)]) == 1
        if status == 2:
            assert len([line for line in lines if line.startswith("numerical failure: ")]) == 1
        if status == 0:
            # a successful run writes its result, and a CSV result has a data row
            rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
            assert argv[0] not in CSV_OUT or len(rows) > 1
        assert not out.exists() or not NON_FINITE.search(out.read_text())


class TestNegativeValues:
    def test_exponent_form_is_a_value(self, tmp_path):
        out = tmp_path / "exit.csv"
        assert run(["exit-chart", "--size", "4", "--node", "variable", "--snr-list", "-1e1",
                    "--mi-grid", "0:1:1", "--trials", "2", "--out", str(out), "--quiet"]) == 0
        body = [l for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
        assert [l.split(",")[1] for l in body] == ["-10.0", "-10.0"]


class TestSharedParser:
    """Every ``main`` call in a process parses with the one cached parser."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_leak_no_state(self, tmp_path, capsys):
        def calls(out):
            return [
                (["solve", "--no-such-flag"], 1),
                (["--version"], 0),
                (["solve", "--size", "4", "--snr-db", "5", "--node", "approx", "--seed", "3",
                  "--out", str(out / "solve.json")], 0),
                (["exit-chart", "--size", "4", "--mi-grid", "0:2:1", "--trials", "3",
                  "--seed", "3", "--out", str(out / "exit.csv")], 0),
            ]

        outputs = []
        for name, order in (("forward", 1), ("reverse", -1)):
            out = tmp_path / name
            out.mkdir()
            for argv, status in calls(out)[::order]:
                assert run(argv) == status
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        capsys.readouterr()
        assert sorted(outputs[0]) == ["exit.csv", "solve.json"]
        assert outputs[0] == outputs[1]


class TestVerifyTheorem:
    def test_pass_line_and_csv(self, tmp_path, capsys):
        out = tmp_path / "residuals.csv"
        assert run(["verify-theorem", "--trials", "8", "--seed", "3",
                    "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("PASS")
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,x_size,y_size,z_size,markov_residual,nonmarkov_residual"
        assert len(lines) == 10  # header + 8 trials + metadata comment
        assert lines[-1].startswith("# version=")


class TestMinsumCommands:
    def test_train_then_eval(self, tmp_path, capsys):
        table = tmp_path / "table.json"
        assert run(["train-minsum", "--samples", "4000", "--bins", "16",
                    "--seed", "2", "--out", str(table), "--quiet"]) == 0
        doc = json.loads(table.read_text())
        assert set(doc) == {"version", "bins"}
        assert doc["version"] == 2
        assert len(doc["bins"]) == 32
        assert sum(b["count"] for b in doc["bins"]) == 4000

        ev = tmp_path / "eval.csv"
        assert run(["eval-minsum", "--table", str(table), "--samples", "4000",
                    "--seed", "3", "--out", str(ev)]) == 0
        assert "empirical_ed" in capsys.readouterr().out
        lines = ev.read_text().splitlines()
        assert lines[0] == "bin,count,q0,q1"

    def test_vanishing_noise_trains(self, tmp_path):
        # magnitudes past the int64 range clamp into the top bins
        out = tmp_path / "table.json"
        assert run(["train-minsum", "--sigmas", "1e-10,1e-10,1e-10", "--samples", "2000",
                    "--out", str(out), "--quiet"]) == 0
        doc = json.loads(out.read_text())
        counts = [entry["count"] for entry in doc["bins"]]
        assert counts[63] + counts[127] == 2000

    def test_sigma_count_validated(self, tmp_path):
        assert run(["train-minsum", "--degree", "4", "--sigmas", "1,1,1",
                    "--samples", "10", "--out", str(tmp_path / "t.json")]) == 1


class TestSolveCommand:
    def test_random_puzzle_solve(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert run(["solve", "--size", "4", "--snr-db", "8", "--seed", "5",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["solved"] is True
        assert doc["node"] == "exact"
        assert "solved=True" in capsys.readouterr().out

    def test_puzzle_file_classic_mode(self, tmp_path):
        grid = sudoku.random_puzzle(4, make_rng(900, 0))
        chars = [str(v) for v in grid.solution + 1]
        chars[3] = "0"
        puzzle_file = tmp_path / "puzzle.txt"
        puzzle_file.write_text("".join(chars))
        out = tmp_path / "result.json"
        assert run(["solve", "--size", "4", "--puzzle", str(puzzle_file),
                    "--out", str(out), "--quiet"]) == 0
        doc = json.loads(out.read_text())
        assert doc["snr_db"] is None  # classic mode has no channel
        assert doc["symbol_error_rate"] is None

    def test_corrected_requires_alphas(self):
        assert run(["solve", "--node", "corrected"]) == 1

    def test_corrected_with_alpha_table(self, tmp_path):
        alphas = tmp_path / "alphas.json"
        alphas.write_text(json.dumps({"version": 1, "n": 4, "alphas": [0.3] * 4}))
        out = tmp_path / "result.json"
        assert run(["solve", "--size", "4", "--node", "corrected", "--snr-db", "9",
                    "--alpha-table", str(alphas), "--seed", "1",
                    "--out", str(out), "--quiet"]) == 0
        assert json.loads(out.read_text())["node"] == "corrected"

    def test_alpha_table_size_mismatch(self, tmp_path):
        alphas = tmp_path / "alphas.json"
        alphas.write_text(json.dumps({"version": 1, "n": 9, "alphas": [0.3] * 9}))
        assert run(["solve", "--size", "4", "--node", "corrected",
                    "--alpha-table", str(alphas)]) == 1


class TestExitChart:
    def test_summary_line_reports_fallback_rows(self, tmp_path, capsys):
        # alpha = 1 on uniform a-priori rows: every row of the 5 trials falls back
        alphas = tmp_path / "alphas.json"
        alphas.write_text(json.dumps({"version": 1, "n": 4, "alphas": [1.0] * 4}))
        assert run(["exit-chart", "--size", "4", "--node", "exact,corrected", "--mi-grid", "0:0:1",
                    "--trials", "5", "--alpha-table", str(alphas)]) == 0
        assert capsys.readouterr().out == ("2 exit points over nodes exact,corrected at 5 trials, "
                                           "fallback_rows=20\n")

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "exit.csv"
        assert run(["exit-chart", "--size", "4", "--node", "exact,approx",
                    "--mi-grid", "0:2:1", "--trials", "5", "--seed", "4",
                    "--out", str(out), "--quiet"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "node,snr_db,ia_bits,ie_bits,stderr"
        body = [l for l in lines[1:] if not l.startswith("#")]
        assert len(body) == 6  # 2 nodes x 3 grid points
        assert body[0].split(",")[1] == ""  # constraint curves carry no channel snr

    def test_default_grid_is_parsed(self, monkeypatch):
        grids = []
        monkeypatch.setattr(sudoku, "exit_curve", lambda node, grid, *a, **k: grids.append(grid) or [])
        assert run(["exit-chart", "--node", "exact", "--quiet"]) == 0
        assert grids == [[0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0]]

    def test_default_grid_spans_the_size(self, tmp_path):
        # the default grid is 0:log2(n):0.25, so at n = 4 it stops at 2 bits
        out = tmp_path / "exit.csv"
        assert run(["exit-chart", "--size", "4", "--node", "exact", "--trials", "4",
                    "--out", str(out), "--quiet"]) == 0
        body = [l for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
        assert [float(l.split(",")[2]) for l in body] == [0.25 * k for k in range(9)]

    def test_trials_that_agree_to_rounding_have_no_stderr(self, tmp_path):
        # at I_A = log2(4) = 2 the a-priori rows are one-hot, and every trial
        # gives the floor-limited value up to its last bits
        out = tmp_path / "exit.csv"
        assert run(["exit-chart", "--size", "4", "--node", "variable", "--snr-list", "3",
                    "--trials", "200", "--seed", "0", "--out", str(out), "--quiet"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:-1]]
        stderr = {float(row[2]): float(row[4]) for row in rows}
        assert stderr.pop(2.0) == 0.0
        assert len(stderr) == 8 and all(v > 0.0 for v in stderr.values())

    def test_grid_parsing(self, tmp_path):
        assert run(["exit-chart", "--size", "4", "--mi-grid", "nonsense",
                    "--trials", "2", "--out", str(tmp_path / "x.csv")]) == 1


class TestTrainSudokuAlpha:
    def test_writes_alpha_table(self, tmp_path, capsys):
        out = tmp_path / "alphas.json"
        assert run(["train-sudoku-alpha", "--size", "9", "--batch", "8",
                    "--snr-list", "8", "--budget", "400", "--seed", "6",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 9
        assert len(doc["alphas"]) == 9
        assert all(0.0 <= a <= 1.0 for a in doc["alphas"])
        assert "trained objective" in capsys.readouterr().out


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        # smoke scale; the acceptance suite covers every subcommand
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["exit-chart", "--size", "4", "--mi-grid", "0:2:1",
                        "--trials", "4", "--seed", "11", "--out", str(out),
                        "--quiet"]) == 0
        assert a.read_bytes() == b.read_bytes()
