"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np

from rolemodel import chains, minsum, sudoku
from rolemodel.cli import main as cli_main
from rolemodel.permanent import minor_permanents, minor_permanents_split
from rolemodel.rng import make_rng
from rolemodel.train import ParametricCorrector, PostTable, SampleBatch

from minsum_batches import QUANT, trained_table
from oracles import constraint_marginals, joint_expected_divergence, projected_gradient_table
from oracles import minor_permanents as brute_minors
from surrogate import sample_batch, surrogate_chain


def report(num, name, ok, detail, elapsed, budget):
    line = (
        f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} - {detail} "
        f"({elapsed:.1f}s / budget {budget:.0f}s)"
    )
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_1_markov_identity():
    t0 = time.time()
    rng = make_rng(2024, 1)
    worst = 0.0
    for _ in range(50):
        nx, ny, nz = (int(rng.integers(2, 6)) for _ in range(3))
        model = chains.random_chain(rng, nx, ny, nz)
        q = chains.random_conditional(rng, nz, nx)
        worst = max(worst, abs(chains.markov_identity_residual(model, q)))
    report(1, "divergence identity", worst <= 1e-10,
           f"max |residual| = {worst:.2e} over 50 chains", time.time() - t0, 5)


def test_2_averaging_matches_convex_solver():
    t0 = time.time()
    rng = make_rng(2024, 2)
    posteriors = rng.dirichlet(np.ones(2), size=12)
    bins = np.array([0, 1, 2] * 4)
    table = PostTable(num_bins=3, alphabet_size=2)
    table.ingest_batch(SampleBatch(posteriors, bins))
    solver = projected_gradient_table(posteriors, bins, 3, iters=100_000)
    gap = float(np.max(np.abs(solver - table.finalize())))
    report(2, "averaging = convex optimum", gap <= 1e-6,
           f"max per-entry gap vs projected gradient = {gap:.2e}", time.time() - t0, 30)


def test_3_nonmarkov_identity_and_witness():
    t0 = time.time()
    rng = make_rng(2024, 3)
    worst = 0.0
    for _ in range(20):
        nx, ny, nz = (int(rng.integers(2, 5)) for _ in range(3))
        joint = chains.random_joint(rng, nx, ny, nz)
        q = chains.random_conditional(rng, nz, nx)
        worst = max(worst, abs(chains.nonmarkov_identity_residual(joint, q)))
    rngw = make_rng(73)
    witness = chains.random_joint(rngw, 3, 3, 3)
    q = chains.random_conditional(rngw, 3, 3)
    split = abs(chains.nonmarkov_lhs(witness, q) - joint_expected_divergence(witness.pxyz, q))
    ok = worst <= 1e-10 and split > 0.01
    report(3, "general identity + caveat witness", ok,
           f"max |residual| = {worst:.2e}; witness |lhs - ED| = {split:.4f} bits",
           time.time() - t0, 5)


def test_4_permanent_kernels():
    t0 = time.time()
    rng = make_rng(2024, 4)
    worst = 0.0
    for n in range(2, 9):
        for _ in range(100):
            a = rng.random((n, n))
            ref = brute_minors(a)
            worst = max(worst, float(np.max(np.abs(minor_permanents(a) - ref)
                                            / np.maximum(np.abs(ref), 1e-300))))
    # every minor of the 9x9 all-ones matrix is 8!
    exact_40320 = bool(np.all(minor_permanents(np.ones((9, 9))) == 40320.0))

    # sparse supports can lack a perfect matching (true minor exactly 0), so
    # the 1e-10 relative tolerance carries an absolute floor
    def excess(a, b):
        return float(np.max(np.abs(a - b) / (1e-10 * np.maximum(np.abs(a), np.abs(b)) + 1e-12)))

    worst_special = 0.0
    for _ in range(50):
        t = rng.random(7)
        explicit = np.repeat(t[:, None], 7, axis=1)
        _, pt = minor_permanents_split(np.zeros((7, 7)), t)
        worst_special = max(worst_special, excess(pt[:, None], brute_minors(explicit)))
        sparse = np.zeros((8, 8))
        for r in range(8):
            sparse[r, rng.choice(8, 3, replace=False)] = rng.random(3)
        ph, _ = minor_permanents_split(sparse, np.zeros(8))
        worst_special = max(worst_special, excess(ph, brute_minors(sparse)))
    ok = worst <= 1e-10 and exact_40320 and worst_special <= 1.0
    report(4, "permanent kernels", ok,
           f"kernel-vs-brute minor rel err = {worst:.2e}; 9x9 all-ones minors exact = "
           f"{exact_40320}; closed-form/sparse tolerance ratio = {worst_special:.2e}",
           time.time() - t0, 60)


def test_5_exact_constraint_node():
    t0 = time.time()
    rng = make_rng(2024, 5)
    worst = 0.0
    for _ in range(100):
        m = rng.dirichlet(np.ones(4), size=4)
        worst = max(worst, float(np.max(np.abs(sudoku.constraint_exact(m) - constraint_marginals(m)))))
    report(5, "exact node vs enumeration", worst <= 1e-12,
           f"max entry gap over 100 matrices = {worst:.2e}", time.time() - t0, 5)


def test_6_minsum_training():
    t0 = time.time()
    model, z_of_y = surrogate_chain([1.0, 1.0, 1.0])
    table = PostTable(model.ch2.shape[1], 2)
    table.ingest_batch(sample_batch(model, z_of_y, 1_000_000, seed=2024)[0])
    gap = chains.expected_divergence(model, table.finalize()) - chains.divergence_floor(model)

    wins = 0
    for s in range(10):
        trained = trained_table(3, [1.0] * 3, 30_000, 7000 + s)
        held = minsum.simulate_blocks(3, [1.0] * 3, 30_000, 8000 + s, QUANT)
        rep = minsum.evaluate_table(trained.finalize(), held)
        wins += rep.empirical_ed < rep.baseline_ed
    ok = 0.0 <= gap <= 0.01 and wins >= 9
    report(6, "min-sum training", ok,
           f"exact ED gap to floor = {gap:.2e} bits at N=1e6; "
           f"held-out wins vs naive baseline = {wins}/10", time.time() - t0, 300)


def test_7_exit_ordering():
    t0 = time.time()
    n, trials, seed = 4, 200, 2024
    grid = [0.25 * k for k in range(9)]  # 0 .. 2.0
    half = 0.5 * math.log2(n)
    ordering_ok = True
    gaps_top, gaps_bottom = [], []
    worst_margin = math.inf
    for p, ia in enumerate(grid):
        (ve, va), _ = sudoku.exit_point_trials(("exact", "approx"), ia, trials, seed, n=n, point=p)
        diff = ve - va  # paired: both nodes are called on the same drawn trials
        se = float(diff.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        ie_e, ie_a = max(ve.mean(), 0.0), max(va.mean(), 0.0)
        margin = (ie_e - ie_a) + 2.0 * se
        worst_margin = min(worst_margin, margin)
        if margin < 0:
            ordering_ok = False
        (gaps_top if ia > half else gaps_bottom).append(ie_e - ie_a)
    top, bottom = float(np.mean(gaps_top)), float(np.mean(gaps_bottom))
    ok = ordering_ok and top < bottom
    report(7, "exit-chart ordering", ok,
           f"worst pointwise margin = {worst_margin:+.4f}; "
           f"mean gap top half {top:.4f} < bottom half {bottom:.4f} bits",
           time.time() - t0, 600)


def test_8_alpha_training():
    t0 = time.time()
    res = sudoku.train_alpha(n=9, batch=48, seed=2024, budget=3000)
    frozen_ok = (res.objective_value <= res.baseline_half
                 and res.objective_value <= res.baseline_ones)

    trained_eds, half_eds = [], []
    half = ParametricCorrector(np.full(9, 0.5))
    for s in range(10):
        mats = sudoku.harvest_constraint_inputs(9, [6.0, 8.0, 10.0], 24, seed=9000 + s)
        objective = sudoku.alpha_objective(mats)
        trained_eds.append(objective(res.corrector))
        half_eds.append(objective(half))
    med_trained = float(np.median(trained_eds))
    med_half = float(np.median(half_eds))
    ok = frozen_ok and med_trained <= med_half
    report(8, "alpha training", ok,
           f"frozen: trained {res.objective_value:.4f} <= half {res.baseline_half:.4f} "
           f"and ones {res.baseline_ones:.4f}; held-out medians {med_trained:.4f} <= {med_half:.4f}",
           time.time() - t0, 600)


def determinism_runs(table: str) -> dict[str, list[str]]:
    """Per subcommand, the small run that test 9 makes twice; ``table`` is a min-sum table."""
    return {
        "verify-theorem": ["verify-theorem", "--trials", "10"],
        "train-minsum": ["train-minsum", "--samples", "3000"],
        "eval-minsum": ["eval-minsum", "--table", table, "--samples", "3000"],
        "solve": ["solve", "--size", "4", "--snr-db", "4"],
        "exit-chart": ["exit-chart", "--size", "4", "--mi-grid", "0:2:0.5", "--trials", "8"],
        "train-sudoku-alpha": ["train-sudoku-alpha", "--batch", "8", "--snr-list", "8",
                               "--budget", "300"],
    }


def test_9_cli_determinism(tmp_path):
    t0 = time.time()
    table = tmp_path / "table.json"
    assert cli_main(["train-minsum", "--samples", "3000", "--seed", "1",
                     "--out", str(table), "--quiet"]) == 0
    stable = []
    for name, argv in determinism_runs(str(table)).items():
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}.{run}"
            code = cli_main(argv + ["--seed", "42", "--out", str(out), "--quiet"])
            assert code == 0, (name, code)
            outs.append(out.read_bytes())
        stable.append(outs[0] == outs[1])
    ok = all(stable)
    report(9, "cli determinism", ok,
           f"{sum(stable)}/{len(stable)} subcommands byte-identical across paired runs",
           time.time() - t0, 120)
