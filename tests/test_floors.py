"""The floor policy of ``rolemodel.probs``, tested where each floor applies.

Each test fails when its floor is removed at the site it names (replaced
by a plain renormalization).
"""

import math

import numpy as np

from rolemodel import minsum, sudoku
from rolemodel.errors import RoleModelError
from rolemodel.permanent import head_tail_split, minor_permanents_split
from rolemodel.probs import DEFAULT_FLOOR, GIVEN_FLOOR, MESSAGE_FLOOR, floor_rows
from rolemodel.rng import make_rng
from rolemodel.train import ParametricCorrector, PostTable

from minsum_batches import blocks_of, whole_batch
from oracles import minsum_baseline_objective
from recording import RecordingNode

CLASSIC_9 = "530070000600195000098000060800060003400803001700020006060000280000419005000080079"

# rounding slack on a floored-then-renormalized entry
SLACK = 1 - 1e-9


class TestGivenFloor:
    def test_given_cells_carry_every_symbol(self):
        # site: observation_messages
        puzzle = sudoku.parse_grid(CLASSIC_9, 9)
        post = sudoku.observation_messages(puzzle, None, make_rng(0))
        given = post[puzzle.givens]
        assert given.min() >= GIVEN_FLOOR / (1 + 8 * GIVEN_FLOOR) * SLACK
        assert np.array_equal(given.argmax(axis=1), puzzle.solution[puzzle.givens])
        assert np.all(post[~puzzle.givens] == 1 / 9)


class TestMessageFloor:
    def test_channel_messages_are_floored_before_the_first_node_call(self):
        # site: the initial variable-to-constraint messages in bp_solve.
        # At 16 dB, stream 1731 leaves one cell wrong and some channel
        # posterior entries below MESSAGE_FLOOR.
        puzzle = sudoku.random_puzzle(9, make_rng(0, 11))
        channel = sudoku.ChannelModel.from_snr_db(16.0)
        post = sudoku.observation_messages(puzzle, channel, make_rng(0, 5, 1731))
        assert post.min() < MESSAGE_FLOOR
        node = RecordingNode(sudoku.node_function("exact"))
        res = sudoku.bp_solve(puzzle, channel, node, seed=0, stream=1731)
        assert res.iterations >= 1
        assert node.inputs[0].min() >= MESSAGE_FLOOR * SLACK

    def test_constraint_messages_are_floored(self):
        # site: the node output in bp_solve. Undamped, each belief is the
        # channel posterior times three floored node messages over a
        # normalizer of at most 1; the approximate node's own outputs fall
        # below the floor at low snr.
        for n, snr in ((4, -2.0), (4, 0.0), (9, 2.0), (9, 4.0)):
            channel = sudoku.ChannelModel.from_snr_db(snr, q=n)
            for s in range(6):
                puzzle = sudoku.random_puzzle(n, make_rng(s, 11))
                post = sudoku.observation_messages(puzzle, channel, make_rng(s, 5, 0))
                res = sudoku.bp_solve(puzzle, channel, sudoku.node_function("approx"), seed=s,
                                      damping=1.0, max_iters=15)
                assert np.all(res.beliefs >= post * MESSAGE_FLOOR**3 * SLACK)

    def test_variable_messages_are_floored(self):
        # site: the extrinsic variable update in bp_solve. Classic mode
        # sharpens the products past MESSAGE_FLOOR by the fourth iteration, and
        # undamped exact BP at 2 dB would otherwise hand the node a row
        # that excludes every configuration.
        node = RecordingNode(sudoku.node_function("exact"))
        res = sudoku.bp_solve(sudoku.parse_grid(CLASSIC_9, 9), None, node)
        assert res.solved and res.iterations >= 4
        assert min(inputs.min() for inputs in node.inputs) >= MESSAGE_FLOOR * SLACK
        channel = sudoku.ChannelModel.from_snr_db(2.0)
        for s in range(3):
            try:
                sudoku.bp_solve(sudoku.random_puzzle(9, make_rng(s, 11)), channel,
                                sudoku.node_function("exact"), seed=s, damping=1.0)
            except RoleModelError as exc:
                raise AssertionError(f"seed {s}: {exc}") from exc


class TestDefaultFloor:
    def test_alpha_objective_scores_head_only_rows(self):
        # site: the corrected rows in alpha_objective. At alpha = 1 the
        # sparse head leaves exact zeros where the exact node has mass.
        mats = sudoku.harvest_constraint_inputs(9, [6.0, 8.0], 12, seed=21)
        ph, _ = minor_permanents_split(*head_tail_split(np.asarray(mats), sudoku.HEAD_SIZE))
        exact = sudoku.constraint_exact(np.asarray(mats))
        assert np.any((ph == 0) & (exact > 0))
        value = sudoku.alpha_objective(mats)(ParametricCorrector(np.ones(9)))
        assert math.isfinite(value) and value > 0

    def test_exit_scores_floored_mass_at_the_truth(self):
        # site: the node output in exit_point_trials. At I_A = 2 bits the
        # approximate node puts less than 1e-12 on the truth in some trials;
        # seed 4 is the first seed from 3 upward where it does.
        n, seed, trials = 9, 4, 20
        (values,), _ = sudoku.exit_point_trials(("approx",), 2.0, trials, seed, n=n)
        channel = sudoku.ChannelModel(sigma=sudoku.calibrate_sigma(2.0, n, seed), q=n)
        rng = make_rng(seed, 7, 0)
        perms = rng.permuted(np.tile(np.arange(n), (trials, 1)), axis=1)
        noise = rng.standard_normal((trials, n, n))
        lowest = 1.0
        for t, value in enumerate(values):
            truths = perms[t]
            out, _ = sudoku.constraint_approx(channel.posterior(channel.receive(truths, noise[t])),
                                              0.5)
            at_truth = floor_rows(out, DEFAULT_FLOOR)[np.arange(n), truths]
            lowest = min(lowest, out[np.arange(n), truths].min())
            assert value == math.log2(n) - float(np.mean(-np.log2(at_truth)))
        assert lowest < DEFAULT_FLOOR

    def test_minsum_baseline_scores_saturated_llrs(self):
        # site: the baseline rows in evaluate_table. At sigma 0.05 min-sum
        # LLRs pass 745, where the pmf of an LLR has an exact zero.
        batch = whole_batch(3, [0.05] * 3, 2000, 3)
        assert np.abs(batch.minsum_llrs).max() > 745
        table = PostTable(minsum.ZQuantizer().total_bins, 2)
        table.ingest_batch(batch.posteriors, batch.bins)
        report = minsum.evaluate_table(table.finalize(), blocks_of(batch))
        reference = minsum_baseline_objective(batch.posteriors, batch.minsum_llrs, DEFAULT_FLOOR)
        assert abs(report.baseline_ed - reference) <= 1e-12
