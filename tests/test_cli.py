import json

import numpy as np
import pytest

from rolemodel import sudoku
from rolemodel.cli import build_parser, main
from rolemodel.rng import make_rng


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

    def test_version(self, capsys):
        assert run(["--version"]) == 0


#: JSON inputs that the argv lists below name as "@<file name>".
INPUT_FILES = {
    "alphas.json": {"version": 1, "n": 9, "alphas": [0.5] * 9},  # not a min-sum table
    "n4.json": {"n": 4},  # the right n, but no alphas
    "nospec.json": {"version": 1, "q": 2, "bin_spec": {"kind": "minsum"},  # no num_bins
                    "fallback": [0.5, 0.5], "bins": [{"sum": [0.0, 0.0], "count": 0}] * 2},
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
        ["solve", "--size", "4", "--node", "corrected", "--alpha-table", "@n4.json"],
        ["solve", "--size", "4", "--snr-db=-1e308"],
        # sigmas whose square overflows or underflows
        ["solve", "--size", "4", "--snr-db=-6000"],
        ["solve", "--size", "4", "--snr-db", "6000"],
        ["solve", "--size", "4", "--snr-db", "-1e5"],
        ["train-minsum", "--sigmas", "1e-300,1,1", "--samples", "10"],
        ["train-minsum", "--sigmas", "1e300,1,1", "--samples", "10"],
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
        assert [line for line in err.splitlines() if line.startswith("error: ")]
        assert not out.exists() or "nan" not in out.read_text()


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
        assert doc["version"] == 1
        assert doc["q"] == 2
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

    def test_default_grid_is_parsed(self):
        assert build_parser().parse_args(["exit-chart"]).mi_grid == [
            0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0]

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


class TestBench:
    def test_values_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--max-n", "4", "--seed", "8", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,kernel,value"
        # kernel values at each n agree with one another
        by_n = {}
        for line in lines[1:]:
            if line.startswith("#"):
                continue
            n, kernel, value = line.split(",")
            if kernel in ("ryser", "bruteforce", "sparse"):
                by_n.setdefault(n, []).append(float(value))
        for vals in by_n.values():
            assert np.allclose(vals, vals[0], rtol=1e-10)


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        # smoke scale; the acceptance suite covers every subcommand
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["exit-chart", "--size", "4", "--mi-grid", "0:2:1",
                        "--trials", "4", "--seed", "11", "--out", str(out),
                        "--quiet"]) == 0
        assert a.read_bytes() == b.read_bytes()
