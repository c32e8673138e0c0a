import math

import numpy as np
import pytest

from rolemodel import sudoku
from rolemodel.errors import BisectionFailure, DegenerateRow
from rolemodel.permanent import head_tail_split, minor_permanents_split
from rolemodel.probs import DEFAULT_FLOOR, floor_rows, soft_mi
from rolemodel.rng import make_rng
from rolemodel.train import ParametricCorrector

from oracles import constraint_marginals


class TestGraphAndPuzzle:
    @pytest.mark.parametrize("n", [4, 9])
    def test_factor_graph_degrees(self, n):
        g = sudoku.FactorGraph.build(n)
        assert g.constraints.shape == (3 * n, n)
        assert g.cell_constraints.shape == (n * n, 3)
        # every constraint covers n distinct cells, every cell sits in 3 constraints
        counts = np.bincount(g.constraints.ravel(), minlength=n * n)
        assert np.all(counts == 3)

    def test_factor_graph_is_built_once_and_read_only(self):
        g = sudoku.FactorGraph.build(9)
        assert sudoku.FactorGraph.build(9) is g
        for a in (g.constraints, g.cell_constraints, g.cell_slots):
            with pytest.raises(ValueError):
                a[0, 0] = 0

    @pytest.mark.parametrize("n", [4, 9])
    def test_random_puzzles_are_valid(self, n):
        for t in range(10):
            p = sudoku.random_puzzle(n, make_rng(600, t))
            grid = p.solution.reshape(n, n)
            for members in sudoku.constraint_cells(n):
                assert sorted(p.solution[members]) == list(range(n))
            assert grid.min() == 0 and grid.max() == n - 1

    def test_grid_io_round_trip(self):
        p = sudoku.random_puzzle(9, make_rng(601, 0))
        text = "\n".join("".join(str(v) for v in row) for row in p.solution.reshape(9, 9) + 1)
        assert np.array_equal(sudoku.parse_grid(text).solution, p.solution)

    def test_classic_grid_parsing(self):
        p = sudoku.parse_grid("1234\n3412\n0021\n0003", 4)
        assert p.givens is not None
        assert p.givens.sum() == 11
        assert not p.truth_known

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            sudoku.parse_grid("1134" + "3412" + "2143" + "4321", 4)

    def test_conflicting_givens_rejected(self):
        with pytest.raises(ValueError):
            sudoku.parse_grid("1100" + "0000" + "0000" + "0000", 4)


class TestChannel:
    def test_snr_round_trip(self):
        ch = sudoku.ChannelModel.from_snr_db(7.0)
        assert ch.snr_db == pytest.approx(7.0, abs=1e-12)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0, -1.0, 1e-300, 1e300])
    def test_sigma_must_be_finite_and_positive(self, sigma):
        with pytest.raises(ValueError):
            sudoku.ChannelModel(sigma=sigma, q=9)

    def test_snr_past_the_float_range_is_rejected(self):
        with pytest.raises(ValueError):
            sudoku.ChannelModel.from_snr_db(-1e308, q=9)

    def test_posterior_rows_normalized(self):
        ch = sudoku.ChannelModel.from_snr_db(3.0, q=9)
        rng = make_rng(602)
        post = ch.posterior(ch.observe(rng.integers(0, 9, 50), rng))
        assert np.all(post >= 0)
        assert np.allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_posterior_sharpens_with_snr(self):
        rng = make_rng(603)
        truths = rng.integers(0, 9, 2000)
        noise = rng.standard_normal((2000, 9))
        last = -1.0
        for snr in (0.0, 6.0, 12.0):
            ch = sudoku.ChannelModel.from_snr_db(snr, q=9)
            y = ch.sigma * noise.copy()
            y[np.arange(2000), truths] += 1.0
            mi = soft_mi(truths, np.maximum(ch.posterior(y), 1e-300))
            assert mi > last
            last = mi


class TestConstraintExact:
    def test_uniform_in_uniform_out(self):
        assert np.allclose(sudoku.constraint_exact(np.full((4, 4), 0.25)), 0.25, atol=1e-14)

    def test_forced_cells(self):
        onehots = np.eye(4)[[2, 0, 3, 1]]
        assert np.allclose(sudoku.constraint_exact(onehots), onehots, atol=1e-14)

    def test_vs_exhaustive_marginalization(self):
        rng = make_rng(604)
        for _ in range(100):
            m = rng.dirichlet(np.ones(4), size=4)
            assert np.max(np.abs(sudoku.constraint_exact(m) - constraint_marginals(m))) <= 1e-12

    def test_symbol_relabeling_equivariance(self):
        rng = make_rng(605)
        m = rng.dirichlet(np.ones(4), size=4)
        perm = np.array([2, 0, 3, 1])
        assert np.allclose(
            sudoku.constraint_exact(m)[:, perm],
            sudoku.constraint_exact(m[:, perm]),
            atol=1e-12,
        )

    def test_rows_are_distributions(self):
        rng = make_rng(606)
        out = sudoku.constraint_exact(rng.dirichlet(np.ones(9), size=9))
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_degenerate_row_raises(self):
        conflicting = np.zeros((4, 4))
        conflicting[:, 0] = 1.0  # four certain variables claiming one symbol
        with pytest.raises(DegenerateRow):
            sudoku.constraint_exact(conflicting)

    def test_degenerate_row_in_a_batch_names_matrix_and_row(self):
        batch = np.full((3, 4, 4), 0.25)
        batch[1, :2] = np.eye(4)[0]  # two certain variables claim symbol 0
        with pytest.raises(DegenerateRow, match="matrix 1, row 2") as info:
            sudoku.constraint_exact(batch)
        assert (info.value.index, info.value.row) == (1, 2)


class TestConstraintApprox:
    def test_uniform_input_stays_uniform(self):
        out = sudoku.constraint_approx(np.full((9, 9), 1 / 9), 0.5)
        assert np.allclose(out, 1 / 9, atol=1e-12)

    def test_alpha_zero_is_tail_only_uniform(self):
        # tail minors do not depend on the dropped column
        m = make_rng(607).dirichlet(np.ones(9), size=9)
        assert np.allclose(sudoku.constraint_approx(m, 0.0), 1 / 9, atol=1e-12)

    def test_head_only_degenerates_to_uniform_fallback(self):
        diag = {}
        out = sudoku.constraint_approx(np.full((9, 9), 1 / 9), 1.0, diag=diag)
        assert np.allclose(out, 1 / 9, atol=1e-12)
        assert diag["degenerate_rows"] == 9

    def test_positive_divergence_from_exact(self):
        rng = make_rng(608)
        gaps = []
        for _ in range(10):
            m = rng.dirichlet(np.ones(9), size=9)
            exact = sudoku.constraint_exact(m)
            approx = np.maximum(sudoku.constraint_approx(m, 0.5), 1e-12)
            approx /= approx.sum(axis=1, keepdims=True)
            d = np.sum(exact * np.log2(exact / approx), axis=1).mean()
            gaps.append(d)
        assert min(gaps) > 0.0

    def test_rows_are_distributions(self):
        rng = make_rng(609)
        out = sudoku.constraint_approx(rng.dirichlet(np.ones(9), size=9), 0.5)
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


class TestBpSolve:
    def test_noiseless_solves_immediately(self):
        p = sudoku.random_puzzle(9, make_rng(610, 0))
        res = sudoku.bp_solve(p, sudoku.ChannelModel.from_snr_db(60.0, q=9), seed=1)
        assert res.solved and res.iterations <= 2
        assert res.symbol_error_rate == 0.0

    def test_paired_seed_solve_rates(self):
        ch = sudoku.ChannelModel.from_snr_db(2.0, q=4)
        solved_exact = solved_approx = 0
        for t in range(200):
            p = sudoku.random_puzzle(4, make_rng(100, t))
            solved_exact += sudoku.bp_solve(p, ch, node="exact", seed=200, stream=t, max_iters=25).solved
            solved_approx += sudoku.bp_solve(p, ch, node="approx", seed=200, stream=t, max_iters=25).solved
        assert solved_exact >= solved_approx

    def test_damping_reaches_same_fixed_point(self):
        ch = sudoku.ChannelModel.from_snr_db(5.0, q=4)
        checked = 0
        for t in range(12):
            p = sudoku.random_puzzle(4, make_rng(23, t))
            r1 = sudoku.bp_solve(p, ch, node="exact", seed=24, stream=t, damping=1.0, max_iters=40)
            r2 = sudoku.bp_solve(p, ch, node="exact", seed=24, stream=t, damping=0.5, max_iters=40)
            if r1.solved and r2.solved:
                checked += 1
                assert np.array_equal(r1.decisions, r2.decisions)
        assert checked >= 5

    def test_classic_mode(self):
        grid = sudoku.random_puzzle(4, make_rng(26, 0))
        chars = [str(v) for v in grid.solution + 1]
        for idx in (0, 5, 10):
            chars[idx] = "0"
        classic = sudoku.parse_grid("".join(chars), 4)
        res = sudoku.bp_solve(classic, None, node="exact", seed=27, max_iters=20)
        assert res.solved
        assert np.array_equal(res.decisions, grid.solution)
        assert math.isnan(res.symbol_error_rate)

    def test_deterministic_per_seed(self):
        p = sudoku.random_puzzle(9, make_rng(611, 0))
        ch = sudoku.ChannelModel.from_snr_db(7.0, q=9)
        r1 = sudoku.bp_solve(p, ch, seed=612, max_iters=8)
        r2 = sudoku.bp_solve(p, ch, seed=612, max_iters=8)
        assert np.array_equal(r1.beliefs, r2.beliefs)

    def test_collect_iters(self):
        p = sudoku.random_puzzle(4, make_rng(613, 0))
        ch = sudoku.ChannelModel.from_snr_db(1.0, q=4)
        res = sudoku.bp_solve(p, ch, seed=614, max_iters=5, collect_iters=(1, 3))
        iters = {it for it, _, _ in res.collected}
        assert iters <= {1, 3}
        assert all(m.shape == (4, 4) for _, _, m in res.collected)


class TestExit:
    def test_perfect_inputs_saturate_exact_node(self):
        pts = sudoku.exit_curve("exact", [math.log2(9)], trials=8, seed=615, n=9)
        assert pts[0].ie_bits == pytest.approx(math.log2(9), abs=1e-6)

    def test_zero_information_in_zero_out(self):
        for node in ("exact", "approx"):
            pts = sudoku.exit_curve(node, [0.0], trials=8, seed=616, n=9)
            assert pts[0].ie_bits == pytest.approx(0.0, abs=1e-9)

    def test_exact_dominates_approx_mid_grid(self):
        grid = [0.5, 1.0, 1.5]
        pe = sudoku.exit_curve("exact", grid, trials=60, seed=617, n=4)
        pa = sudoku.exit_curve("approx", grid, trials=60, seed=617, n=4)
        for e, a in zip(pe, pa):
            assert e.ie_bits >= a.ie_bits - 2.0 * (e.stderr + a.stderr)

    def test_exact_transfer_monotone(self):
        grid = [0.25, 0.75, 1.25, 1.75]
        pts = sudoku.exit_curve("exact", grid, trials=60, seed=618, n=4)
        for a, b in zip(pts, pts[1:]):
            assert b.ie_bits >= a.ie_bits - 2.0 * (a.stderr + b.stderr)

    def test_calibration_hits_target(self):
        target = 1.5
        sigma = sudoku.calibrate_sigma(target, 9, seed=619)
        rng = make_rng(620)
        truths = rng.integers(0, 9, 30000)
        ch = sudoku.ChannelModel(sigma=sigma, q=9)
        mi = soft_mi(truths, np.maximum(ch.posterior(ch.observe(truths, rng)), 1e-300))
        assert abs(mi - target) <= 0.03  # fresh-draw check, looser than the bisection tol

    def test_second_node_curve_reuses_calibration(self):
        sudoku.calibrate_sigma.cache_clear()
        grid = [0.5, 1.0]
        sudoku.exit_curve("exact", grid, trials=2, seed=626, n=4)
        first = sudoku.calibrate_sigma.cache_info()
        sudoku.exit_curve("approx", grid, trials=2, seed=626, n=4)
        second = sudoku.calibrate_sigma.cache_info()
        assert first.misses == len(grid)
        assert (second.misses, second.hits) == (first.misses, first.hits + len(grid))
        assert sudoku.calibrate_sigma(1.0, 4, 626) == sudoku.calibrate_sigma.__wrapped__(1.0, 4, 626)

    def test_batched_trials_match_one_node_call_per_trial(self):
        n, seed, point = 4, 627, 3
        sigma = sudoku.calibrate_sigma(1.0, n, seed)
        for node in ("exact", "approx"):
            values = sudoku.exit_point_trials(node, 1.0, 6, seed, n=n, point=point)
            apply_node = sudoku.node_function(node)
            for t, value in enumerate(values):
                rng = make_rng(seed, 7, point, t)
                truths = rng.permutation(n)
                ch = sudoku.ChannelModel(sigma=sigma, q=n)
                out = floor_rows(apply_node(ch.posterior(ch.observe(truths, rng))), DEFAULT_FLOOR)
                assert value == math.log2(n) - float(np.mean(-np.log2(out[np.arange(n), truths])))

    def test_unreachable_target_fails(self):
        with pytest.raises(BisectionFailure):
            sudoku.calibrate_sigma(5.0, 9, seed=621)

    def test_no_trials_rejected(self):
        with pytest.raises(ValueError, match="at least one trial"):
            sudoku.exit_point_trials("exact", 0.5, 0, seed=628, n=4)

    def test_variable_node_needs_snr(self):
        with pytest.raises(ValueError):
            sudoku.exit_curve("variable", [0.5], trials=4, seed=622, n=4)
        pts = sudoku.exit_curve("variable", [0.5, 1.0], trials=10, seed=623, n=4,
                                snr_db_list=[3.0])
        assert len(pts) == 2
        assert all(p.snr_db == 3.0 for p in pts)


class TestAlphaTraining:
    def test_objective_continuity_probe(self):
        mats = sudoku.harvest_constraint_inputs(9, [6.0, 8.0], 12, seed=21)
        objective = sudoku.alpha_objective(mats)
        rng = make_rng(22)
        for _ in range(5):
            a = rng.uniform(0.05, 0.95, size=9)
            base = objective(ParametricCorrector(a))
            for i in range(0, 9, 3):
                bumped = a.copy()
                bumped[i] += 1e-6
                assert abs(objective(ParametricCorrector(bumped)) - base) <= 1e-3

    def test_stacked_objective_matches_looped_reference(self):
        mats = sudoku.harvest_constraint_inputs(9, [6.0, 8.0], 12, seed=29)
        mats.append(np.full((9, 9), 1 / 9))  # head-only rows vanish: uniform fallback
        objective = sudoku.alpha_objective(mats)
        rng = make_rng(30)
        for a in [np.zeros(9), np.ones(9)] + [rng.uniform(0.0, 1.0, 9) for _ in range(4)]:
            total = 0.0
            for m in mats:
                exact = sudoku.constraint_exact(m)
                ph, pt = minor_permanents_split(head_tail_split(m, 3))
                combined = a[:, None] * ph + (1.0 - a)[:, None] * pt
                sums = combined.sum(axis=1, keepdims=True)
                combined = np.where(sums > 0, combined / np.where(sums > 0, sums, 1.0), 1 / 9)
                q = floor_rows(combined, DEFAULT_FLOOR)
                terms = np.where(exact > 0, exact * (np.log2(np.where(exact > 0, exact, 1.0))
                                                     - np.log2(q)), 0.0)
                total += terms.sum(axis=1).mean()
            reference = total / len(mats)
            assert objective(ParametricCorrector(a)) == pytest.approx(reference, rel=1e-14)

    def test_trained_dominates_fixed_baselines(self):
        res = sudoku.train_alpha(n=9, batch=24, seed=624, budget=1500)
        assert res.objective_value <= res.baseline_half
        assert res.objective_value <= res.baseline_ones

    def test_flat_batch_is_degenerate(self):
        # uniform matrices make the objective constant in alpha (up to
        # rounding ripple): training gains nothing over the initialization
        flat = [np.full((9, 9), 1 / 9) for _ in range(4)]
        objective = sudoku.alpha_objective(flat)
        from rolemodel.train import train_parametric

        res = train_parametric(objective, slots=9, budget=1200)
        init_value = objective(ParametricCorrector(np.full(9, 0.5)))
        assert abs(res.objective_value - init_value) <= 1e-12
        values = [f for _, f in res.trace]
        assert max(values) - min(values) <= 1e-12

    def test_harvest_rejects_empty_requests(self):
        with pytest.raises(ValueError, match="at least one matrix"):
            sudoku.harvest_constraint_inputs(4, [3.0], 0, seed=625)
        with pytest.raises(ValueError, match="at least one snr"):
            sudoku.harvest_constraint_inputs(4, [], 6, seed=625)

    def test_harvest_is_reproducible(self):
        a = sudoku.harvest_constraint_inputs(4, [3.0], 6, seed=625)
        b = sudoku.harvest_constraint_inputs(4, [3.0], 6, seed=625)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
