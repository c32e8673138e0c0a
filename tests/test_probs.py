import math

import numpy as np
import pytest

from rolemodel.errors import DimensionMismatch, ZeroMassAtTruth
from rolemodel.probs import (DEFAULT_FLOOR, divergence_rows, entropy_rows, floor_rows,
                             log2_masked, soft_mi)
from rolemodel.rng import make_rng

from oracles import divergence_row, llrs_to_dists

LOG2_9 = math.log2(9)


class TestDivergence:
    def test_identical(self):
        assert divergence_rows([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_forced_one_bit(self):
        assert divergence_rows([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)

    def test_frozen_high_precision_value(self):
        # independent 50-digit summation oracle
        assert divergence_rows([0.9, 0.1], [0.5, 0.5]) == pytest.approx(
            0.53100440641071877875, rel=1e-14
        )

    def test_nonnegative_and_zero_iff_equal(self):
        rng = make_rng(101)
        for _ in range(200):
            q = int(rng.integers(2, 6))
            p1 = rng.dirichlet(np.ones(q))
            p2 = rng.dirichlet(np.ones(q))
            d = divergence_rows(p1, p2)
            assert d >= -1e-12
            assert divergence_rows(p1, p1) <= 1e-12
            if np.max(np.abs(p1 - p2)) > 1e-3:
                assert d > 1e-12


class TestRowKernels:
    def test_zero_mass_terms_drop_out(self):
        p = np.array([[0.0, 1.0], [0.5, 0.5], [0.0, 0.0]])
        q = np.array([[0.0, 1.0], [0.5, 0.5], [0.0, 1.0]])
        assert np.array_equal(divergence_rows(p, q), [0.0, 0.0, 0.0])
        assert np.array_equal(entropy_rows(p), [0.0, 1.0, 0.0])

    def test_zero_in_q_under_mass_in_p_is_infinite(self):
        with np.errstate(divide="ignore"):
            assert divergence_rows([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_precomputed_log_p_gives_the_same_bits(self):
        # alpha_objective passes log2_masked(p) once for many positive q,
        # unmasked, and one work buffer for every q; p > 0 is the general mask
        rng = make_rng(102)
        p = rng.dirichlet(np.ones(9), size=(6, 9))
        p[p < 0.05] = 0.0
        assert (p == 0).any()
        for log_p in ((log2_masked(p), p > 0), (log2_masked(p), True)):
            work = np.zeros_like(p)
            for _ in range(20):
                q = floor_rows(rng.dirichlet(np.ones(9), size=(6, 9)), DEFAULT_FLOOR)
                want = divergence_rows(p, q).tobytes()
                assert divergence_rows(p, q, _log_p=log_p).tobytes() == want
                assert divergence_rows(p, q, _log_p=log_p, _work=work).tobytes() == want

    def test_rows_broadcast(self):
        p = np.array([[0.9, 0.1], [0.2, 0.8]])
        q = np.array([[0.5, 0.5], [0.3, 0.7], [0.6, 0.4]])
        got = divergence_rows(p[:, None, :], q[None, :, :])
        assert got.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert got[i, j] == pytest.approx(divergence_row(p[i], q[j]), rel=1e-14)


class TestEntropy:
    def test_deterministic(self):
        assert entropy_rows([1.0, 0.0]) == 0.0

    def test_uniform_max(self):
        assert entropy_rows(np.full(9, 1 / 9)) == pytest.approx(LOG2_9, abs=1e-12)

    def test_frozen_high_precision_value(self):
        assert entropy_rows([0.7, 0.2, 0.1]) == pytest.approx(1.1567796494470394727, rel=1e-14)

    def test_bounded_by_log_q(self):
        rng = make_rng(102)
        for _ in range(200):
            q = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(q))
            h = entropy_rows(p)
            assert h <= math.log2(q) + 1e-12
            if np.max(np.abs(p - 1.0 / q)) > 1e-3:
                assert h < math.log2(q) - 1e-12


class TestLlr:
    def test_zero_is_symmetric(self):
        assert np.allclose(llrs_to_dists([0.0])[0], [0.5, 0.5])

    def test_closed_form_at_two(self):
        p = llrs_to_dists([2.0])[0]
        e2 = math.exp(2.0)
        assert p[0] == pytest.approx(e2 / (1 + e2), rel=1e-15)
        assert p[1] == pytest.approx(1 / (1 + e2), rel=1e-15)

    def test_round_trip(self):
        # ln(p0 / p1) of each row recovers its LLR
        rng = make_rng(103)
        ls = np.concatenate([rng.uniform(-30, 30, 200), [-30.0, 30.0, 0.0]])
        rows = llrs_to_dists(ls)
        assert np.max(np.abs(np.log(rows[:, 0]) - np.log(rows[:, 1]) - ls)) <= 1e-12

    def test_vectorized_matches_scalar(self):
        # each row against the scalar closed form (e^l / (1 + e^l), 1 / (1 + e^l))
        ls = np.array([-7.5, -1.0, 0.0, 0.3, 12.0])
        rows = llrs_to_dists(ls)
        for l, row in zip(ls, rows):
            e = math.exp(l)
            assert np.allclose(row, [e / (1 + e), 1 / (1 + e)], atol=1e-15)


class TestSoftMi:
    def test_one_hot_messages(self):
        msgs = np.eye(9)[[3, 1, 4]]
        assert soft_mi([3, 1, 4], msgs) == pytest.approx(LOG2_9, abs=1e-12)

    def test_uniform_messages(self):
        msgs = np.full((5, 9), 1 / 9)
        assert soft_mi([0, 3, 8, 2, 2], msgs) == 0.0

    def test_frozen_mixed_batch(self):
        truths = [0, 2, 1, 0]
        msgs = [[0.7, 0.2, 0.1], [0.2, 0.3, 0.5], [0.25, 0.5, 0.25], [0.4, 0.4, 0.2]]
        assert soft_mi(truths, msgs) == pytest.approx(0.62583718379187603438, rel=1e-14)

    def test_permutation_invariance(self):
        rng = make_rng(104)
        truths = rng.integers(0, 4, size=50)
        msgs = rng.dirichlet(np.ones(4), size=50)
        base = soft_mi(truths, msgs)
        perm = rng.permutation(50)
        assert soft_mi(truths[perm], msgs[perm]) == pytest.approx(base, abs=1e-12)

    def test_zero_mass_reports_index(self):
        msgs = np.array([[0.5, 0.5], [1.0, 0.0], [0.4, 0.6]])
        with pytest.raises(ZeroMassAtTruth) as err:
            soft_mi([0, 1, 1], msgs)
        assert err.value.index == 1

    def test_weights_count_repeated_rows(self):
        # 1e-12 relative to the unweighted call on each row repeated weight times
        rng = make_rng(105)
        truths = rng.integers(0, 4, size=60)
        msgs = rng.dirichlet(np.ones(4), size=60)
        msgs[np.arange(60), truths] += 1.0  # informative, so the MI is not clamped to 0
        msgs /= msgs.sum(axis=1, keepdims=True)
        weights = rng.integers(0, 6, size=60)
        weights[0] = 0
        repeated = soft_mi(np.repeat(truths, weights), np.repeat(msgs, weights, axis=0))
        assert repeated > 0.1
        assert soft_mi(truths, msgs, weights=weights) == pytest.approx(repeated, rel=1e-12)

    def test_zero_at_truth_with_positive_weight_raises(self):
        msgs = np.array([[0.5, 0.5], [1.0, 0.0], [0.4, 0.6], [1.0, 0.0]])
        with pytest.raises(ZeroMassAtTruth) as err:
            soft_mi([0, 1, 1, 1], msgs, weights=[1, 0, 2, 3])
        assert err.value.index == 3

    def test_zero_weight_rows_are_not_scored(self):
        msgs = np.array([[0.9, 0.1], [1.0, 0.0], [0.2, 0.8]])
        assert soft_mi([0, 1, 1], msgs, weights=[2, 0, 1]) == pytest.approx(
            soft_mi([0, 0, 1], msgs[[0, 0, 2]]), rel=1e-12)

    @pytest.mark.parametrize("weights", [[1, -1, 1], [1, math.nan, 1], [0, 0, 0],
                                         [1, math.inf, 1]])
    def test_weights_must_be_finite_non_negative_and_not_all_zero(self, weights):
        with pytest.raises(ValueError):
            soft_mi([0, 1, 1], np.full((3, 2), 0.5), weights=weights)

    def test_one_weight_per_row(self):
        with pytest.raises(DimensionMismatch):
            soft_mi([0, 1, 1], np.full((3, 2), 0.5), weights=[1, 1])


class TestDistribution:
    """Checks on one pmf row: floor_rows."""

    def test_floor_keeps_normalization(self):
        d = floor_rows(np.eye(4)[2], 1e-9)
        assert np.all(d > 0)
        assert d.sum() == pytest.approx(1.0, abs=1e-15)
