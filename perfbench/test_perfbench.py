"""Tests of the benchmark's own arithmetic: self time, calibration and the reference permanent.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

import itertools
import json
import math
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from calibration import Calibrator, Timing  # noqa: E402
from spans import Span  # noqa: E402


def test_self_time_of_nested_spans():
    tree = [
        Span("root", 0.0, 10.0),
        Span("child", 1.0, 4.0, parent=0),
        Span("grandchild", 2.0, 3.0, parent=1),
        Span("second child", 5.0, 6.0, parent=0),
    ]
    assert spans.self_times(tree) == [6.0, 2.0, 1.0, 1.0]
    assert sum(spans.self_times(tree)) == 10.0


def test_self_time_of_span_without_children():
    assert spans.self_times([Span("leaf", 2.5, 4.0)]) == [1.5]


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert spans.covered(0.0, 10.0, [(8.0, 12.0), (-1.0, 2.0), (1.0, 3.0)]) == 5.0
    assert spans.covered(0.0, 10.0, []) == 0.0


def test_tracer_records_parents_counts_and_self_times():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 7.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda x: x + 1, counter=lambda r: {"seen": r})
    outer = tracer.wrap("outer", lambda: inner(1) + inner(2))
    assert outer() == 5
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", None), ("inner", 0), ("inner", 0)]
    assert [s.counts for s in tracer.spans] == [None, {"seen": 2}, {"seen": 3}]
    assert spans.self_times(tracer.spans) == [3.0, 2.0, 2.0]


def test_installed_tracer_sees_kernels_through_the_calling_module_and_restores_them():
    from rolemodel import permanent, sudoku

    original = sudoku.minor_permanents
    tracer = spans.Tracer()
    with tracer.installed():
        sudoku.constraint_exact(np.full((4, 4), 0.25))
        permanent.minor_permanents(np.full((4, 4), 0.25))  # not through sudoku: unseen
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("sudoku.constraint_exact", None), ("permanent.minor_permanents", 0)]
    assert sudoku.minor_permanents is original


def test_layer_metrics_add_up_to_the_pass_wall_time():
    tree = [
        Span("cli.main", 1.0, 9.0),
        Span("sudoku.calibrate_sigma", 2.0, 5.0, parent=0),
        Span("probs.soft_mi", 3.0, 4.0, parent=1),
        Span("probs.soft_mi", 6.0, 6.5, parent=0),
        Span("sudoku.alpha_objective", 7.0, 8.0, parent=0),
        Span("sudoku.alpha_objective.eval", 8.25, 8.5, parent=0),
    ]
    m = spans.layer_metrics(tree, wall_s=10.0)
    assert m["probs.soft_mi.calls"] == 2
    assert m["sudoku.calibrate_sigma.bisection_steps"] == 1
    assert m["sudoku.alpha_objective.build_s"] == 1.0
    assert m["sudoku.alpha_objective.evals"] == 1
    assert m["sudoku.alpha_objective.eval_s"] == 0.25
    assert m["permanent.minor_permanents.calls"] == 0
    selfs = sum(v for k, v in m.items() if k.endswith(("self_s", "eval_s")))
    assert selfs == pytest.approx(8.0)
    assert m["trace.unattributed_s"] == pytest.approx(2.0)
    assert selfs + m["trace.unattributed_s"] == pytest.approx(m["trace.run_s"])


def test_calibrated_time_is_cpu_time_times_scale():
    assert Timing(cpu_s=2.0, wall_s=3.0, scale=0.25).calibrated == 0.5


def test_probes_run_inside_a_job_and_their_time_is_left_out():
    calibrator = Calibrator("compute")

    def job():
        end = time.thread_time() + 0.2
        while time.thread_time() < end:
            pass
        return "done"

    value, timing = calibrator.measure(job)
    assert value == "done"
    probes = calibrator._samples
    assert len(probes) >= Calibrator.MIN_PROBES
    # the busy loop ran for 0.2 s of CPU time on top of the probes it held
    assert timing.cpu_s == pytest.approx(0.2, abs=0.02)
    assert timing.wall_s >= timing.cpu_s - 0.02
    kernel_s = sorted(c for _, c, _ in probes)[len(probes) // 2]
    assert timing.scale == pytest.approx(Calibrator.REFERENCE_S["compute"] / kernel_s,
                                         rel=0.5)


def test_a_short_job_gets_its_probes_after_it_and_the_timer_is_stopped():
    calibrator = Calibrator("memory")
    previous = signal.getsignal(signal.SIGALRM)
    value, timing = calibrator.measure(lambda: 7)
    assert value == 7 and timing.cpu_s >= 0.0 and timing.scale > 0.0
    assert len(calibrator._samples) == Calibrator.MIN_PROBES
    with pytest.raises(ZeroDivisionError):
        calibrator.measure(lambda: 1 / 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_interquartile_mean_drops_the_outer_quarters():
    assert workloads.interquartile_mean([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]) == 3.5
    assert workloads.interquartile_mean([1.0, 2.0, 9.0]) == 4.0


def _laplace(a: np.ndarray) -> float:
    """Permanent by expansion along the first row, for comparison only."""
    if a.shape[0] == 1:
        return float(a[0, 0])
    return sum(a[0, j] * _laplace(np.delete(a[1:], j, axis=1)) for j in range(a.shape[0]))


def test_reference_permanent_known_values():
    for n in range(1, 7):
        assert reference.permanent(np.ones((n, n))) == math.factorial(n)
    assert reference.permanent(np.diag([2.0, 3.0, 5.0])) == 30.0
    assert reference.permanent([[1.0, 2.0], [3.0, 4.0]]) == 10.0
    assert reference.permanent(np.zeros((0, 0))) == 1.0
    a = np.arange(1.0, 10.0).reshape(3, 3)
    expected = sum(a[0, p[0]] * a[1, p[1]] * a[2, p[2]]
                   for p in itertools.permutations(range(3)))
    assert reference.permanent(a) == expected == 450.0


def test_reference_permanent_matches_laplace_and_symmetries():
    rng = np.random.default_rng(3)
    a = rng.random((6, 6))
    value = reference.permanent(a)
    assert value == pytest.approx(_laplace(a), rel=1e-13)
    assert reference.permanent(a.T) == pytest.approx(value, rel=1e-13)
    assert reference.permanent(a[rng.permutation(6)][:, rng.permutation(6)]) == \
        pytest.approx(value, rel=1e-13)


def test_reference_minors_and_constraint_rows():
    assert np.array_equal(reference.minor_permanents(np.ones((4, 4))), np.full((4, 4), 6.0))
    rng = np.random.default_rng(5)
    m = rng.random((5, 5))
    minors = reference.minor_permanents(m)
    assert minors[1, 3] == pytest.approx(_laplace(np.delete(np.delete(m, 1, 0), 3, 1)), rel=1e-13)
    # expansion along row i: perm(m) = sum_j m[i, j] * minor(i, j)
    for i in range(5):
        assert float(m[i] @ minors[i]) == pytest.approx(reference.permanent(m), rel=1e-13)
    assert np.allclose(reference.constraint_rows(m).sum(axis=1), 1.0)


def test_reference_rows_keep_relative_accuracy_near_a_permutation():
    # 4x4 with unit diagonal and e elsewhere; the (0, 0) minor has unit
    # diagonal, every other minor of row 0 has one e on its diagonal
    e = 1e-12
    m = np.full((4, 4), e) + (1.0 - e) * np.eye(4)
    off, on = e + 2 * e**2 + 3 * e**3, 1 + 3 * e**2 + 2 * e**3
    minors = reference.minor_permanents(m)
    assert minors[0, 0] == pytest.approx(on, rel=1e-15)
    assert minors[0, 1:] == pytest.approx([off] * 3, rel=1e-15)
    assert reference.constraint_rows(m)[0, 1] == pytest.approx(off / (on + 3 * off), rel=1e-14)


def test_benchmark_file_lists_the_metrics_the_benchmark_reports():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == ["sudoku-bp", "sudoku-train", "minsum"]
