"""Benchmark for rolemodel: three closed-loop CLI workloads with checked outputs.

Run from the repository root (the default seed is 0):

    python3 perfbench/run.py --workload sudoku-bp --seed 0 --seconds 32 --trace 0

Workloads: ``sudoku-bp``, ``sudoku-train`` and ``minsum`` (see README.md).
With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and it
holds the per-layer metrics instead. The lines before it name every figure
with its unit. Results, the environment and (traced) spans are written to
``perfbench/results/``. The exit status is 1 if a job or an output check
failed, and 2 if the program cannot be imported from ``src/``.
"""

from __future__ import annotations

import os

# One thread, so that every figure comes from the single caller's core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from calibration import Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5

#: End-to-end metrics, reported by every workload: unit and direction.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "job_a_s": ("s", "lower"),
    "job_b_s": ("s", "lower"),
}


@dataclass
class Pass:
    traced: bool
    wall_s: float
    results: list
    tracer: spans.Tracer | None = None


def import_program() -> None:
    """Import ``rolemodel`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("rolemodel.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"rolemodel was found at {cli.__file__}, outside {ROOT / 'src'}")


def calibrated_seconds(calibrator: Calibrator, fn):
    """Run ``fn()``; return its value and its time in calibrated seconds."""
    value, timing = calibrator.measure(fn)
    return value, timing.calibrated


def import_seconds(calibrator: Calibrator) -> float:
    """Time a fresh import of every ``rolemodel`` module, in calibrated seconds."""
    for name in [m for m in sys.modules if m == "rolemodel" or m.startswith("rolemodel.")]:
        del sys.modules[name]
    return calibrated_seconds(calibrator, lambda: importlib.import_module("rolemodel.cli"))[1]


def environment() -> dict:
    import numpy

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "llc": "unknown",
        "llc_bytes": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError, ValueError):
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        level, size = max((int((d / "level").read_text()), (d / "size").read_text().strip())
                          for d in caches.glob("index*"))
        env["llc"] = f"L{level} {size}"
        scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
        env["llc_bytes"] = int(size.rstrip("KM")) * scale
    return env


def measure(runner, jobs, calibrator: Calibrator, seconds: int, trace: bool) -> list[Pass]:
    """Run passes over the job list for about ``seconds``.

    The first pass always runs whole. After it, a job starts only if its
    run in the pass before would still end within ``seconds``, so the last
    pass may stop part-way and the run uses its time for samples. With
    tracing, passes stay whole, and untraced and traced passes alternate
    (at least one of each), so both see the same inputs and the same
    machine load: a new pass starts only if one more pass as long as the
    last one still ends within ``seconds``.
    """
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while True:
        tracer = spans.Tracer() if trace and len(passes) % 2 == 1 else None
        results = []
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            for i, job in enumerate(jobs):
                last = passes[-1].results[i].timing.wall_s if passes else 0.0
                if passes and not trace and time.perf_counter() + last > deadline:
                    break
                results.append(runner.job(job, calibrator))
            wall = time.perf_counter() - t0
        if results:
            passes.append(Pass(tracer is not None, wall, results, tracer))
        if len(results) < len(jobs):
            return passes
        if trace and time.perf_counter() + wall > deadline and len(passes) >= 2:
            return passes


def check_determinism(runner, passes: list[Pass], calibrator: Calibrator) -> None:
    """Every job's --out bytes match its first run; one job reruns if needed."""
    first = passes[0].results
    later = [(i, r) for p in passes[1:] for i, r in enumerate(p.results)]
    if not later:
        later = [(0, runner.job(first[0].job, calibrator))]
    differ = sorted({first[i].job.out.name for i, r in later if r.out != first[i].out})
    runner.check("identical --out bytes on repeated jobs", not differ, f"for {differ}")


def traced_metrics(passes: list[Pass]) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    per_pass = [spans.layer_metrics(p.tracer.spans, p.wall_s) for p in traced]
    metrics = {name: statistics.fmean(m[name] for m in per_pass) for name in spans.PER_LAYER}
    # calibrated, so that a change in the host's speed between the two
    # kinds of pass does not show up as tracing cost
    metrics["trace.overhead_s"] = statistics.fmean(
        sum(r.calibrated for r in p.results) for p in traced) - statistics.fmean(
        sum(r.calibrated for r in p.results) for p in passes if not p.traced)
    return metrics


def run(args, work: Path) -> int:
    # Set-up, several times over: a fresh import of the program (numpy is
    # already loaded), then input generation and warm-up jobs. Warm-up jobs
    # are small (the min-sum ones fit in the last-level cache), and their
    # inputs are the same for every seed.
    setup_kernel = Calibrator("compute")
    imports = [import_seconds(setup_kernel) for _ in range(SETUP_REPEATS)]
    import workloads  # after the last fresh import, so that it calls those modules

    workload = workloads.WORKLOADS[args.workload](work)
    runner = workloads.Runner()
    setup = []
    for _ in range(SETUP_REPEATS):
        rnd = random.Random(args.seed)
        jobs, generate_s = calibrated_seconds(setup_kernel, lambda: workload.jobs(rnd))
        warmup = [runner.job(job, setup_kernel) for job in workload.warmup(random.Random(0))]
        for result in warmup:
            if result.code != 0:
                runner.fail_job(result, f"warm-up exit status {result.code}")
        setup.append(generate_s + sum(r.calibrated for r in warmup))

    calibrator = Calibrator(workload.kernel)
    passes = measure(runner, jobs, calibrator, args.seconds, bool(args.trace))

    # output checks, outside the timed window
    for p in passes:
        for result in p.results:
            problem = workload.problem(result)
            if problem:
                runner.fail_job(result, problem)
    untraced = [p for p in passes if not p.traced]
    job_a_s, job_b_s = workload.job_times(untraced)
    report = workload.report(passes, workloads.job_medians(untraced), runner, rnd)
    check_determinism(runner, passes, calibrator)

    figures = {
        "setup_s": (statistics.median(imports) + statistics.median(setup), "s"),
        "run_s": (statistics.median(p.wall_s for p in untraced  # raw, whole passes
                                    if len(p.results) == len(jobs)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "job_a_s": (job_a_s, "s"),
        "job_b_s": (job_b_s, "s"),
        "calibration_scale": (statistics.median(r.timing.scale for p in untraced for r in p.results),
                              "ratio"),
        **report,
        "failed_frac": (runner.failed / runner.attempted, "ratio"),
    }
    if args.trace:
        values = traced_metrics(passes)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in spans.PER_LAYER.items()}
    else:
        metrics = {name: {"value": figures[name][0], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}

    env = environment()
    if isinstance(workload, workloads.Minsum):
        for d, size in workload.computed_bytes().items():
            share = f" = {size / env['llc_bytes']:.2f} x LLC" if env["llc_bytes"] else ""
            env[f"minsum_d{d}_computed_array_bytes"] = f"{size} ({size / 2**20:.0f} MiB{share})"

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes={len(untraced)}+{len(passes) - len(untraced)} traced")
    print(f"# job_a_s: {workload.kinds[0]}; job_b_s: {workload.kinds[1]}")
    for key, value in env.items():
        print(f"# env {key}: {value}")
    for name, (value, unit) in figures.items():
        print(f"{name} {value:.6g} {unit}")
    if args.trace:
        for name, entry in metrics.items():
            print(f"{name} {entry['value']:.6g} {entry['unit']}")
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)

    write_results(args, workload, env, figures, metrics, passes, runner.failures,
                  {"import_s": imports, "warmup_s": setup})
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}, default=float))
    return 1 if runner.failures else 0


def write_results(args, workload, env, figures, metrics, passes, failures, setup) -> None:
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": env,
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "metrics": metrics,
        "setup": setup,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s,
                    "jobs": [{"argv": r.job.argv, "cpu_s": r.timing.cpu_s,
                              "wall_s": r.timing.wall_s, "scale": r.timing.scale,
                              "code": r.code, **workload.describe(r)}
                             for r in p.results]} for p in passes],
        "failures": failures,
    }
    (results / f"{stem}.json").write_text(json.dumps(doc, indent=1, default=float) + "\n")
    if args.trace:
        with open(results / f"{stem}.spans.jsonl", "w") as f:
            for k, p in enumerate(passes):
                for i, span in enumerate(p.tracer.spans if p.tracer else []):
                    f.write(json.dumps({"pass": k, **span.as_dict(i)}) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sudoku-bp", "sudoku-train", "minsum"))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=int, default=32,
                        help="length of the timed phase; passes over the job list run for about this long")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1: alternate untraced and traced passes, report per-layer metrics")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import rolemodel from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
