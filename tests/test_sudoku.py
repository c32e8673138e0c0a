import hashlib
import math

import numpy as np
import pytest

from rolemodel import sudoku
from rolemodel.errors import BisectionFailure, DegenerateRow
from rolemodel.permanent import head_tail_split, minor_permanents_split
from rolemodel.probs import DEFAULT_FLOOR, MESSAGE_FLOOR, floor_rows, soft_mi
from rolemodel.rng import make_rng
from rolemodel.train import ParametricCorrector, train_parametric

from oracles import constraint_marginals
from recording import RecordingNode


class TestGraphAndPuzzle:
    @pytest.mark.parametrize("n", [4, 9])
    def test_constraint_cells_degrees(self, n):
        cons = sudoku.constraint_cells(n)
        assert cons.shape == (3 * n, n)
        # every constraint covers n distinct cells, every cell sits in one
        # constraint of each kind (c // n: 0 row, 1 column, 2 box)
        for k in range(3):
            block = cons[k * n:(k + 1) * n]
            assert np.array_equal(np.sort(block.ravel()), np.arange(n * n))
        assert np.array_equal(cons[:n], np.arange(n * n).reshape(n, n))
        assert np.array_equal(cons[n:2 * n], np.arange(n * n).reshape(n, n).T)

    @pytest.mark.parametrize("plan", [
        lambda n: sudoku.constraint_cells(n),
        lambda n: sudoku._node_order(n)[0],
        lambda n: sudoku._node_order(n)[1],
        lambda n: sudoku._base_grid(n),
    ], ids=["constraint_cells", "node_order_slots", "node_order_back", "base_grid"])
    @pytest.mark.parametrize("n", [4, 9])
    def test_constraint_cells_are_built_once_and_read_only(self, plan, n):
        # every per-size plan of the sudoku path: a second call returns the same object
        cons = plan(n)
        assert plan(n) is cons
        assert not cons.flags.writeable
        with pytest.raises(ValueError):
            cons.flat[0] = 0

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
        assert np.array_equal(sudoku.parse_grid(text, 9).solution, p.solution)

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

    def test_partial_grid_symbols_are_range_checked(self):
        grid = np.full(16, -1)
        grid[0] = 4  # a known symbol past n - 1
        with pytest.raises(ValueError, match="out of range"):
            sudoku.Puzzle(n=4, solution=grid, givens=grid >= 0)

    def test_givens_must_mark_known_cells(self):
        grid = sudoku.random_puzzle(4, make_rng(604)).solution.copy()
        grid[0] = -1
        with pytest.raises(ValueError, match="known symbol"):
            sudoku.Puzzle(n=4, solution=grid, givens=np.ones(16, dtype=bool))

    def test_givens_mask_must_cover_the_grid(self):
        grid = sudoku.random_puzzle(4, make_rng(605)).solution.copy()
        grid[0] = -1
        with pytest.raises(ValueError, match="flat n\\^2 mask"):
            sudoku.Puzzle(n=4, solution=grid, givens=np.ones(3, dtype=bool))

    def test_unsupported_size_names_the_supported_sizes(self):
        with pytest.raises(ValueError, match=r"supported sizes are \[4, 9\]"):
            sudoku.random_puzzle(5, make_rng(0))


class TestChannel:
    def test_snr_round_trip(self):
        assert sudoku.ChannelModel.from_snr_db(7.0).sigma == 10 ** (-7 / 20)

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
        out, _ = sudoku.constraint_approx(np.full((9, 9), 1 / 9), 0.5)
        assert np.allclose(out, 1 / 9, atol=1e-12)

    def test_alpha_zero_is_tail_only_uniform(self):
        # tail minors do not depend on the dropped column
        m = make_rng(607).dirichlet(np.ones(9), size=9)
        assert np.allclose(sudoku.constraint_approx(m, 0.0)[0], 1 / 9, atol=1e-12)

    def test_head_only_degenerates_to_uniform_fallback(self):
        out, fallback_rows = sudoku.constraint_approx(np.full((9, 9), 1 / 9), 1.0)
        assert np.allclose(out, 1 / 9, atol=1e-12)
        assert fallback_rows == 9

    def test_positive_divergence_from_exact(self):
        rng = make_rng(608)
        gaps = []
        for _ in range(10):
            m = rng.dirichlet(np.ones(9), size=9)
            exact = sudoku.constraint_exact(m)
            approx = np.maximum(sudoku.constraint_approx(m, 0.5)[0], 1e-12)
            approx /= approx.sum(axis=1, keepdims=True)
            d = np.sum(exact * np.log2(exact / approx), axis=1).mean()
            gaps.append(d)
        assert min(gaps) > 0.0

    def test_rows_are_distributions(self):
        rng = make_rng(609)
        out, _ = sudoku.constraint_approx(rng.dirichlet(np.ones(9), size=9), 0.5)
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


class TestBpSolve:
    def test_noiseless_solves_immediately(self):
        p = sudoku.random_puzzle(9, make_rng(610, 0))
        res = sudoku.bp_solve(p, sudoku.ChannelModel.from_snr_db(60.0, q=9),
                              sudoku.node_function("exact"), seed=1)
        assert res.solved and res.iterations <= 2
        assert res.symbol_error_rate == 0.0

    def test_paired_seed_solve_rates(self):
        ch = sudoku.ChannelModel.from_snr_db(2.0, q=4)
        exact, approx = sudoku.node_function("exact"), sudoku.node_function("approx")
        solved_exact = solved_approx = 0
        for t in range(200):
            p = sudoku.random_puzzle(4, make_rng(100, t))
            solved_exact += sudoku.bp_solve(p, ch, exact, seed=200, stream=t, max_iters=25).solved
            solved_approx += sudoku.bp_solve(p, ch, approx, seed=200, stream=t, max_iters=25).solved
        assert solved_exact >= solved_approx

    def test_damping_reaches_same_fixed_point(self):
        ch = sudoku.ChannelModel.from_snr_db(5.0, q=4)
        exact = sudoku.node_function("exact")
        checked = 0
        for t in range(12):
            p = sudoku.random_puzzle(4, make_rng(23, t))
            r1 = sudoku.bp_solve(p, ch, exact, seed=24, stream=t, damping=1.0, max_iters=40)
            r2 = sudoku.bp_solve(p, ch, exact, seed=24, stream=t, damping=0.5, max_iters=40)
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
        res = sudoku.bp_solve(classic, None, sudoku.node_function("exact"), seed=27, max_iters=20)
        assert res.solved
        assert np.array_equal(res.decisions, grid.solution)
        assert math.isnan(res.symbol_error_rate)

    def test_deterministic_per_seed(self):
        p = sudoku.random_puzzle(9, make_rng(611, 0))
        ch = sudoku.ChannelModel.from_snr_db(7.0, q=9)
        r1 = sudoku.bp_solve(p, ch, sudoku.node_function("exact"), seed=612, max_iters=8)
        r2 = sudoku.bp_solve(p, ch, sudoku.node_function("exact"), seed=612, max_iters=8)
        assert np.array_equal(r1.beliefs, r2.beliefs)

    @pytest.mark.parametrize("snr_db, max_iters, iterations, solved", [
        (1.0, 5, 5, False),
        (1.0, 1, 1, False),  # stops at max_iters after one iteration
        (10.0, 5, 1, True),  # stops on solved at its first iteration
    ], ids=["five", "max_iters_1", "solved_at_1"])
    @pytest.mark.parametrize("damping", [0.9, 1.0])
    @pytest.mark.parametrize("kind", ["exact", "approx"])
    @pytest.mark.parametrize("n", [4, 9])
    def test_node_inputs(self, n, kind, damping, snr_db, max_iters, iterations, solved):
        # the node-call contract: one call per iteration, on a fresh (3n, n, q)
        # stack of pmf rows, each row from one cell; BP writes to neither
        # that stack nor the returned rows afterwards, so a node may keep both.
        # The last two solves skip the variable update after their one iteration.
        p = sudoku.random_puzzle(n, make_rng(613, 0))
        ch = sudoku.ChannelModel.from_snr_db(snr_db, q=n)
        node = RecordingNode(sudoku.node_function(kind))
        res = sudoku.bp_solve(p, ch, node, seed=614, max_iters=max_iters, damping=damping)
        assert res.iterations == iterations and len(node.inputs) == iterations
        assert res.solved == solved
        assert all(inputs.shape == (3 * n, n, n) for inputs in node.inputs)
        assert np.allclose(np.stack(node.inputs).sum(axis=-1), 1.0, atol=1e-12)
        # the returned rows are the node's own for each stack, before the
        # message floor, and recording leaves the run unchanged
        plain = sudoku.bp_solve(p, ch, sudoku.node_function(kind), seed=614,
                                max_iters=max_iters, damping=damping)
        assert res.beliefs.tobytes() == plain.beliefs.tobytes()
        for inputs, outputs in zip(node.inputs, node.outputs, strict=True):
            assert outputs.tobytes() == sudoku.node_function(kind)(inputs)[0].tobytes()
        # after the solve, every kept array still holds its bits at the call
        for inputs, outputs, (stack, rows) in zip(node.inputs, node.outputs, node.snapshots,
                                                  strict=True):
            assert inputs.tobytes() == stack.tobytes() and outputs.tobytes() == rows.tobytes()
        # and each call got a stack of its own
        for i, a in enumerate(node.inputs):
            assert not any(np.shares_memory(a, b) for b in node.inputs[i + 1:])


class TestBpBitsArePinned:
    """sha256 of every ``BpResult`` field a run produces: the beliefs bytes,
    iterations, solved flag, degenerate rows and every constraint's node
    input at iterations 1 and 3, as a recording node kept them, over nine
    runs per case (damping 0.5, 0.9 and 1.0 at 1, 4 and 8 dB).
    The n = 9 digests were recorded when every level of the minor kernel
    first summed over axis 0.
    A change to the message layout or the order of the arithmetic in
    ``bp_solve`` that moves any bit fails here."""

    DIGESTS = {
        (4, "exact"): "a07f233d98d0e69aa4a14e050a823987bcc4ef6bb36824b5564c3c70227d4ba9",
        (4, "approx"): "e961b30c88c9a4c013e1eb5fafe0ca7d377e16824d26068f5c57a7fc0e7401d2",
        (4, "corrected"): "7bc5d84ca406a45f3cb9b48992b50c6f42e89eb49d522ef144e3a64928a56880",
        (9, "exact"): "56a1ac5584830a44cad7ae3b6fa09a15db909b3b1f7e496b9e7b1ae91d3e519d",
        (9, "approx"): "f3c1b341c3f65c5c2dff663a979fea0b4f7b06e966ee3c0d6a3d9114c220aff2",
        (9, "corrected"): "eb05135676250e47d154e79ea9915684084e976148c7179f632a61080abb9c52",
        "classic": "664762543e80d1f0877be6805ead292987d0672170b4ba0d5c895477b2d51f8a",
    }

    @staticmethod
    def digest(runs) -> str:
        h = hashlib.sha256()
        for res, node in runs:
            h.update(res.beliefs.tobytes())
            h.update(np.array([res.iterations, res.solved, res.degenerate_rows]).tobytes())
            for it, inputs in enumerate(node.inputs, start=1):
                if it in (1, 3):
                    for c, m in enumerate(inputs):
                        h.update(np.array([it, c]).tobytes())
                        h.update(m.tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("n", [4, 9])
    @pytest.mark.parametrize("node", sudoku.NODE_KINDS)
    def test_channel_runs(self, n, node):
        puzzle = sudoku.random_puzzle(n, make_rng(700, n))
        runs = []
        for damping in (0.5, 0.9, 1.0):
            for snr in (1.0, 4.0, 8.0):
                recording = RecordingNode(sudoku.node_function(node, alphas=np.ones(n)))
                runs.append((sudoku.bp_solve(
                    puzzle, sudoku.ChannelModel.from_snr_db(snr, q=n), recording,
                    max_iters=12, damping=damping, seed=701, stream=len(runs)), recording))
        assert self.digest(runs) == self.DIGESTS[n, node]

    def test_classic_run(self):
        grid = sudoku.random_puzzle(9, make_rng(702)).solution.copy()
        grid[1::2] = -1
        puzzle = sudoku.Puzzle(n=9, solution=grid, givens=grid >= 0)
        recording = RecordingNode(sudoku.node_function("exact"))
        res = sudoku.bp_solve(puzzle, None, recording, max_iters=12)
        assert self.digest([(res, recording)]) == self.DIGESTS["classic"]


class TestExitBitsArePinned:
    """sha256 of the ``(snr_db, ia_bits, ie_bits, stderr)`` reprs of every
    EXIT point, per node kind, over a grid that takes the uniform,
    calibrated and one-hot a-priori branches: exact, approx, corrected
    (mixed alphas) and variable (two snrs). The constraint-node digests
    were recorded when each point first drew all its trials from one
    stream, (seed, 7, point); the variable digests when the variable node
    first read the constraint nodes' truths and a-priori rows from that
    draw; the n = 9 exact digest when every level of the minor kernel
    first summed over axis 0; the n = 4 digests when trials that agree to
    within 4 ulps first reported a stderr of 0.0. A change to the trial
    streams or the order of the arithmetic that moves any bit fails here."""

    DIGESTS = {
        (4, "exact"): "b0757e82db7d494fce3ad599a33e93a7f84396f040a444f08d41a7fed0e2212c",
        (4, "approx"): "45e0928dad13d01dbbb1bd22ba82ca73c458f1f8dc43512e5b969abe310673b1",
        (4, "corrected"): "5084956f2c4939565716329b53c60f6d190ba7ab8ededd9a47abe239c5810943",
        (4, "variable"): "d43eb963864871637abd18c0e795498a90c6f3528a1b123b006022206355ad5c",
        (9, "exact"): "f0f90316ad050e5a096e197fd56b1d7a7eae284253406bc29521de647d050eea",
        (9, "approx"): "331f1330b8ed88623e58303bf867e1af7887e0d49fabf69a585039662654a9d3",
        (9, "corrected"): "f71a1fbbe2f5c364dc6631e6ec7a526590abcc992cc4ef80dc43350c61d44e51",
        (9, "variable"): "de9dd8ff52a22c2a992f857c26c98dae955c4e196ed28cd8ecb867e76757fa78",
    }
    KINDS = ("exact", "approx", "corrected", "variable")

    @pytest.mark.parametrize("n", [4, 9])
    def test_curves(self, n):
        grid = [0.0, 0.5, 1.0, 1.5, math.log2(n)]
        points = sudoku.exit_curve(self.KINDS, grid, 12, 900 + n, n=n, snr_db_list=[2.0, 6.0],
                                   alphas=np.linspace(0.2, 1.0, n))
        for kind in self.KINDS:
            picked = [(p.snr_db, p.ia_bits, p.ie_bits, p.stderr) for p in points if p.node == kind]
            assert hashlib.sha256(repr(picked).encode()).hexdigest() == self.DIGESTS[n, kind]

    #: sha256 of every point's ``(node, snr_db, ia_bits, ie_bits, stderr,
    #: fallback_rows)`` repr in output order, recorded with the variable digests above
    #: ("repeated-kinds" again with the n = 4 digests)
    CURVE_DIGESTS = {
        "variable-three-snrs": "608cc36da92f6206b94fb3839137f05ad487166eba15a74db575df2f893a8a4a",
        "repeated-kinds": "21f5baf430d5042266081efb50d37bde0d26720642b89b9957b5717c8481edaf",
    }

    @pytest.mark.parametrize("name, nodes, n, snrs", [
        ("variable-three-snrs", ("variable",), 9, [0.0, 3.0, 9.0]),
        ("repeated-kinds", ("exact", "approx", "exact", "variable"), 4, [2.0, 6.0]),
    ])
    def test_curve_sets(self, name, nodes, n, snrs):
        grid = [0.0, 0.5, 1.0, 1.5, math.log2(n)]
        points = sudoku.exit_curve(nodes, grid, 12, 900 + n, n=n, snr_db_list=snrs)
        fields = [(p.node, p.snr_db, p.ia_bits, p.ie_bits, p.stderr, p.fallback_rows)
                  for p in points]
        assert hashlib.sha256(repr(fields).encode()).hexdigest() == self.CURVE_DIGESTS[name]


@pytest.fixture
def rng_labels(monkeypatch):
    """The first stream label of every ``make_rng`` call that ``sudoku`` makes, in call order."""
    labels = []

    def counting_rng(*key):
        labels.append(key[1] if len(key) > 1 else None)
        return make_rng(*key)

    monkeypatch.setattr(sudoku, "make_rng", counting_rng)
    return labels


class TestExit:
    def test_perfect_inputs_saturate_exact_node(self):
        pts = sudoku.exit_curve(("exact",), [math.log2(9)], trials=8, seed=615, n=9)
        assert pts[0].ie_bits == pytest.approx(math.log2(9), abs=1e-6)

    def test_zero_information_in_zero_out(self):
        for node in ("exact", "approx"):
            pts = sudoku.exit_curve((node,), [0.0], trials=8, seed=616, n=9)
            assert pts[0].ie_bits == pytest.approx(0.0, abs=1e-9)

    def test_exact_dominates_approx_mid_grid(self):
        grid = [0.5, 1.0, 1.5]
        pts = sudoku.exit_curve(("exact", "approx"), grid, trials=60, seed=617, n=4)
        pe, pa = pts[:len(grid)], pts[len(grid):]
        assert [p.node for p in pe + pa] == ["exact"] * len(grid) + ["approx"] * len(grid)
        for e, a in zip(pe, pa):
            assert e.ie_bits >= a.ie_bits - 2.0 * (e.stderr + a.stderr)

    def test_exact_transfer_monotone(self):
        grid = [0.25, 0.75, 1.25, 1.75]
        pts = sudoku.exit_curve(("exact",), grid, trials=60, seed=618, n=4)
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
        # the node kinds of one curve calibrate once per grid point, and a
        # second curve at the same grid and seed reads every sigma from the cache
        sudoku.calibrate_sigma.cache_clear()
        grid = [0.5, 1.0]
        sudoku.exit_curve(("exact", "approx", "corrected"), grid, trials=2, seed=626, n=4,
                          alphas=np.full(4, 0.7))
        first = sudoku.calibrate_sigma.cache_info()
        sudoku.exit_curve(("approx",), grid, trials=2, seed=626, n=4)
        second = sudoku.calibrate_sigma.cache_info()
        assert (first.misses, first.hits) == (len(grid), 0)
        assert (second.misses, second.hits) == (first.misses, first.hits + len(grid))
        assert sudoku.calibrate_sigma(1.0, 4, 626) == sudoku.calibrate_sigma.__wrapped__(1.0, 4, 626)

    def test_one_draw_per_point_for_every_constraint_node(self, rng_labels):
        n, trials, seed = 4, 5, 629
        grid = [0.0, 1.0, 2.0]
        alphas = np.full(n, 0.7)
        kinds = ("exact", "approx", "corrected", "variable")
        snrs = [3.0]
        shared = sudoku.exit_curve(kinds, grid, trials, seed, n=n, alphas=alphas, snr_db_list=snrs)
        assert rng_labels.count(7) == len(grid)
        for kind in kinds:
            alone = sudoku.exit_curve((kind,), grid, trials, seed, n=n, alphas=alphas,
                                      snr_db_list=snrs)
            assert [p for p in shared if p.node == kind] == alone
            for point, ia in enumerate(grid):
                values, _ = sudoku.exit_point_trials(kinds, ia, trials, seed, n=n, point=point,
                                                     alphas=alphas, snr_db_list=snrs)
                one, _ = sudoku.exit_point_trials((kind,), ia, trials, seed, n=n, point=point,
                                                  alphas=alphas, snr_db_list=snrs)
                assert np.array_equal(values[kinds.index(kind)], one[0])

    def test_fallback_rows_are_reported_per_node(self):
        # at I_A = 0 every a-priori row is uniform, so the head minors vanish
        # and alpha = 1 leaves every row of every trial at zero
        pts = sudoku.exit_curve(("corrected", "exact"), [0.0], 40, 3, n=9, alphas=np.ones(9))
        assert [(p.node, p.fallback_rows) for p in pts] == [("corrected", 360), ("exact", 0)]

    def test_bare_string_is_rejected(self):
        with pytest.raises(ValueError, match="sequence of node kinds"):
            sudoku.exit_curve("exact", [0.5], trials=2, seed=630, n=4)

    def test_batched_trials_match_one_node_call_per_trial(self):
        # the point's arrays come from one stream, (seed, 7, point); each node
        # is then called on one trial's matrix at a time
        n, seed, point, trials = 4, 627, 3, 6
        sigma = sudoku.calibrate_sigma(1.0, n, seed)
        apriori = sudoku.ChannelModel(sigma=sigma, q=n)
        kinds = ("exact", "approx")
        values, fallbacks = sudoku.exit_point_trials(kinds, 1.0, trials, seed, n=n, point=point)
        assert values.shape == (len(kinds), trials) and fallbacks == [0, 0]
        rng = make_rng(seed, 7, point)
        perms = rng.permuted(np.tile(np.arange(n), (trials, 1)), axis=1)
        noise = rng.standard_normal((1, trials, n, n))
        for node, node_values in zip(kinds, values):
            apply_node = sudoku.node_function(node)
            for t, value in enumerate(node_values):
                rows, fallback_rows = apply_node(apriori.posterior(apriori.receive(perms[t],
                                                                                   noise[0, t])))
                assert fallback_rows == 0
                out = floor_rows(rows, DEFAULT_FLOOR)
                assert value == math.log2(n) - float(np.mean(-np.log2(out[np.arange(n), perms[t]])))
        # the variable node, on the same truths: the constraint nodes' a-priori
        # message (block 0) times a second one (block 1), times a channel
        # observation (block 2); the first block of a longer draw is the same
        (values,), (fallback_rows,) = sudoku.exit_point_trials(("variable",), 1.0, trials, seed,
                                                               n=n, point=point, snr_db_list=[3.0])
        assert fallback_rows == 0
        channel = sudoku.ChannelModel.from_snr_db(3.0, q=n)
        rng = make_rng(seed, 7, point)
        assert np.array_equal(rng.permuted(np.tile(np.arange(n), (trials, 1)), axis=1), perms)
        noise = rng.standard_normal((3, trials, n, n))
        for t, value in enumerate(values):
            a1 = apriori.posterior(apriori.receive(perms[t], noise[0, t]))
            a2 = apriori.posterior(apriori.receive(perms[t], noise[1, t]))
            msg = channel.posterior(channel.receive(perms[t], noise[2, t])) * (a1 * a2)
            out = floor_rows(floor_rows(msg, MESSAGE_FLOOR), DEFAULT_FLOOR)
            assert value == math.log2(n) - float(np.mean(-np.log2(out[np.arange(n), perms[t]])))

    def test_one_draw_per_point_for_every_variable_snr(self, rng_labels):
        # the snrs of a variable curve share each point's trials and calibration
        n, trials, seed = 9, 6, 631
        grid = [0.0, 0.5, 1.0, math.log2(n)]
        snrs = [0.0, 3.0, 9.0]
        sudoku.calibrate_sigma.cache_clear()
        shared = sudoku.exit_curve(("variable",), grid, trials, seed, n=n, snr_db_list=snrs)
        info = sudoku.calibrate_sigma.cache_info()
        assert rng_labels.count(7) == len(grid)
        calibrated = 2  # the uniform and one-hot ends need no sigma
        assert (info.misses, info.hits) == (calibrated, 0)
        assert [p.snr_db for p in shared] == [snr for snr in snrs for _ in grid]
        for snr in snrs:
            alone = sudoku.exit_curve(("variable",), grid, trials, seed, n=n, snr_db_list=[snr])
            assert [p for p in shared if p.snr_db == snr] == alone
        for point, ia in enumerate(grid):
            values, fallbacks = sudoku.exit_point_trials(("variable",), ia, trials, seed, n=n,
                                                         point=point, snr_db_list=snrs)
            assert values.shape == (len(snrs), trials) and fallbacks == [0] * len(snrs)
            for row, snr in zip(values, snrs):
                (one,), _ = sudoku.exit_point_trials(("variable",), ia, trials, seed, n=n,
                                                     point=point, snr_db_list=[snr])
                assert np.array_equal(row, one)

    @pytest.mark.parametrize("nodes, kwargs", [
        ((), {}),
        (("bogus",), {}),
        (("exact", "bogus"), {}),
        (("corrected",), {}),
        (("variable",), {}),
        (("variable",), {"snr_db_list": []}),
        (("exact",), {"snr_db_list": [float("nan")]}),
    ], ids=["empty", "bogus", "exact-bogus", "corrected-no-alphas", "variable-no-snrs",
            "variable-empty-snrs", "bad-snr"])
    def test_node_rules_are_checked_before_any_work(self, nodes, kwargs, rng_labels):
        sudoku.calibrate_sigma.cache_clear()
        with pytest.raises(ValueError):
            sudoku.exit_curve(nodes, [0.5, 1.0], trials=2, seed=632, n=4, **kwargs)
        with pytest.raises(ValueError):
            sudoku.exit_point_trials(nodes, 0.5, 2, 632, n=4, **kwargs)
        assert sudoku.calibrate_sigma.cache_info().misses == 0
        assert rng_labels == []

    def test_whole_grid_is_checked_before_the_first_point(self, rng_labels):
        # a target past log2(4) = 2 at the end of the grid fails before the
        # first point calibrates or draws a trial
        sudoku.calibrate_sigma.cache_clear()
        with pytest.raises(BisectionFailure, match="a-priori target 2.5 outside"):
            sudoku.exit_curve(("exact",), [1.0, 1.5, 2.0, 2.5], trials=2, seed=633, n=4)
        assert sudoku.calibrate_sigma.cache_info().misses == 0
        assert rng_labels == []

    @pytest.mark.parametrize("n", [4, 9])
    def test_every_target_in_range_calibrates(self, n):
        # the MI of the calibration draw at the returned sigma is within the
        # bisection's 0.005 bits of each target, down to 1e-8 bits and up to
        # 1e-8 bits below log2(n)
        targets = [*np.logspace(-8, -1, 15), *(math.log2(n) - 10.0**-k for k in range(2, 9))]
        rng = make_rng(0, 6)
        truths = rng.integers(0, n, size=16384)
        noise = rng.standard_normal((16384, n))
        for target in targets:
            ch = sudoku.ChannelModel(sigma=sudoku.calibrate_sigma(float(target), n, 0), q=n)
            mi = soft_mi(truths, floor_rows(ch.posterior(ch.receive(truths, noise)), DEFAULT_FLOOR))
            assert abs(mi - target) <= 0.005, target

    def test_unreachable_target_fails(self):
        with pytest.raises(BisectionFailure):
            sudoku.calibrate_sigma(5.0, 9, seed=621)

    def test_no_trials_rejected(self):
        with pytest.raises(ValueError, match="at least one trial"):
            sudoku.exit_point_trials(("exact",), 0.5, 0, seed=628, n=4)

    def test_variable_node_needs_snr(self):
        with pytest.raises(ValueError):
            sudoku.exit_curve(("variable",), [0.5], trials=4, seed=622, n=4)
        pts = sudoku.exit_curve(("variable",), [0.5, 1.0], trials=10, seed=623, n=4,
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
                ph, pt = minor_permanents_split(*head_tail_split(m, 3))
                combined = a[:, None] * ph + (1.0 - a)[:, None] * pt[:, None]
                sums = combined.sum(axis=1, keepdims=True)
                combined = np.where(sums > 0, combined / np.where(sums > 0, sums, 1.0), 1 / 9)
                q = floor_rows(combined, DEFAULT_FLOOR)
                terms = np.where(exact > 0, exact * (np.log2(np.where(exact > 0, exact, 1.0))
                                                     - np.log2(q)), 0.0)
                total += terms.sum(axis=1).mean()
            reference = total / len(mats)
            assert objective(ParametricCorrector(a)) == pytest.approx(reference, rel=1e-14)

    @pytest.mark.parametrize("kwargs, digest, value", [
        # n = 4 on a low snr, where the trained slots differ
        (dict(n=4, snr_db_list=[3.0], batch=16, seed=0),
         "1d502143928baecfc4aacc2e4cd4391ef3971c75e61bb319ec08a1c23e0c8ff5",
         "0.06091552102026111"),
        (dict(n=9, seed=0),
         "271e89b042cbaabfbdf91038c344c462a938e32fb8c8c0a075bbd5eda2dc33f5",
         "0.5931833693942179"),
    ], ids=["n4", "n9"])
    def test_trained_alphas_are_pinned(self, kwargs, digest, value):
        res = sudoku.train_alpha(**kwargs)
        assert hashlib.sha256(res.corrector.alphas.tobytes()).hexdigest() == digest
        assert repr(res.objective_value) == value

    def test_trained_dominates_fixed_baselines(self):
        res = sudoku.train_alpha(n=9, batch=24, seed=624, budget=1500)
        assert res.objective_value <= res.baseline_half
        assert res.objective_value <= res.baseline_ones

    def test_flat_batch_is_degenerate(self):
        # uniform matrices make the objective constant in alpha (up to
        # rounding ripple): training gains nothing over the initialization
        flat = [np.full((9, 9), 1 / 9) for _ in range(4)]
        rows = sudoku._alpha_divergences(flat, sudoku.constraint_exact(np.asarray(flat)))
        objective = sudoku.alpha_objective(flat)
        trace = []

        def recorded(a):
            f = rows(a).mean(axis=0)
            trace.append(f)
            return f

        res = train_parametric(recorded, slots=9, budget=1200)
        assert len(trace) == res.evaluations
        init_value = objective(ParametricCorrector(np.full(9, 0.5)))
        assert abs(objective(res.corrector) - init_value) <= 1e-12
        assert np.ptp(trace) <= 1e-12

    def test_rows_depend_on_their_own_alpha_only(self):
        # the invariant the per-slot search relies on
        mats = sudoku.harvest_constraint_inputs(9, [6.0, 8.0], 12, seed=31)
        mats.append(np.full((9, 9), 1 / 9))  # head-only rows vanish: uniform fallback
        rows = sudoku._alpha_divergences(mats, sudoku.constraint_exact(np.asarray(mats)))
        rng = make_rng(32)
        for a in [np.ones(9)] + [rng.uniform(0.0, 1.0, 9) for _ in range(3)]:
            base = rows(a)
            for j in range(9):
                moved = a.copy()
                moved[j] = rng.uniform(0.0, 1.0)
                diff = rows(moved) != base
                assert not np.delete(diff, j, axis=1).any()

    def test_training_calls_the_exact_node_only_inside_bp(self, monkeypatch):
        # the harvest's BP runs computed every exact row the objective scores against
        calls = {"in bp": 0, "outside bp": 0}
        depth = []
        bp_solve, constraint_exact = sudoku.bp_solve, sudoku.constraint_exact

        def counted_bp(*args, **kwargs):
            depth.append(1)
            try:
                return bp_solve(*args, **kwargs)
            finally:
                depth.pop()

        def counted_exact(m):
            calls["in bp" if depth else "outside bp"] += 1
            return constraint_exact(m)

        monkeypatch.setattr(sudoku, "bp_solve", counted_bp)
        monkeypatch.setattr(sudoku, "constraint_exact", counted_exact)
        sudoku.train_alpha(n=4, snr_db_list=[3.0], batch=16, seed=0)
        assert calls["in bp"] > 0 and calls["outside bp"] == 0

    @pytest.mark.parametrize("n, snrs, count", [(4, [3.0], 16), (9, [6.0, 8.0, 10.0], 64)])
    def test_harvest_rows_are_the_exact_node_of_its_matrices(self, n, snrs, count):
        matrices, rows = sudoku._harvest(n, snrs, count, seed=0)
        assert rows.tobytes() == sudoku.constraint_exact(np.asarray(matrices)).tobytes()
        inputs = sudoku.harvest_constraint_inputs(n, snrs, count, seed=0)
        assert all(np.array_equal(a, b) for a, b in zip(matrices, inputs, strict=True))

    def test_harvest_rejects_empty_requests(self):
        with pytest.raises(ValueError, match="at least one matrix"):
            sudoku.harvest_constraint_inputs(4, [3.0], 0, seed=625)
        with pytest.raises(ValueError, match="at least one snr"):
            sudoku.harvest_constraint_inputs(4, [], 6, seed=625)

    def test_harvest_is_reproducible(self):
        a = sudoku.harvest_constraint_inputs(4, [3.0], 6, seed=625)
        b = sudoku.harvest_constraint_inputs(4, [3.0], 6, seed=625)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
