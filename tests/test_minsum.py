import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rolemodel import minsum
from rolemodel.errors import BinOutOfRange
from rolemodel.probs import DEFAULT_FLOOR
from rolemodel.rng import make_rng
from rolemodel.train import empirical_ed

from oracles import empirical_objective, minsum_baseline_objective

class TestTanhRule:
    def test_erasure_annihilates(self):
        assert minsum.tanh_rule_rows(np.array([[0.0, 5.0]]))[0] == 0.0

    def test_frozen_high_precision_value(self):
        # 2*atanh(tanh(1/2)^2), evaluated at 50 digits
        assert minsum.tanh_rule_rows(np.array([[1.0, 1.0]]))[0] == pytest.approx(
            0.43378083048302718703, rel=1e-14
        )

    def test_symmetric_under_permutation(self):
        rng = make_rng(401)
        for _ in range(50):
            llrs = rng.normal(0, 4, size=4)
            base, permuted = minsum.tanh_rule_rows(np.stack([llrs, llrs[rng.permutation(4)]]))
            assert permuted == pytest.approx(base, rel=1e-12)


class TestMinSum:
    """The min-sum statistic of a simulated batch against its reference posteriors."""

    @staticmethod
    def reference_llrs(batch):
        return np.log(batch.posteriors[:, 0]) - np.log(batch.posteriors[:, 1])

    def test_sign_matches_tanh_rule(self):
        batch = minsum.simulate_batch(3, [0.8, 1.0, 1.3], 2000, seed=403)
        t = self.reference_llrs(batch)
        live = t != 0.0
        assert np.array_equal(np.sign(batch.minsum_llrs[live]), np.sign(t[live]))

    def test_magnitude_upper_bounds_tanh_rule(self):
        for d in range(2, 6):
            batch = minsum.simulate_batch(d, np.linspace(0.5, 1.5, d), 2000, seed=404 + d)
            t = self.reference_llrs(batch)
            assert np.all(np.abs(t) <= np.abs(batch.minsum_llrs) + 1e-12)


class TestQuantizer:
    def test_layout_and_clamp(self):
        q = minsum.ZQuantizer(num_bins=8, max_magnitude=8.0)
        bins = q.bin_indices(np.array([0.5, 7.99, 25.0, 0.5, 100.0]),
                             np.array([1, 1, 1, -1, -1]))
        assert bins.tolist() == [0, 7, 7, 8, 15]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_magnitude_range_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError):
            minsum.ZQuantizer(max_magnitude=bad)

    def test_huge_magnitude_clamps_without_overflow(self):
        q = minsum.ZQuantizer(max_magnitude=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bins = q.bin_indices(np.array([1e300, 0.0]), np.array([1.0, -1.0]))
        assert bins.tolist() == [63, 64]

    def test_negative_magnitude_rejected(self):
        q = minsum.ZQuantizer()
        with pytest.raises(BinOutOfRange):
            q.bin_indices(np.array([-1.0]), np.array([1]))


class TestSimulateBatch:
    def test_deterministic_per_seed(self):
        a = minsum.simulate_batch(3, [1.0] * 3, 500, seed=5)
        b = minsum.simulate_batch(3, [1.0] * 3, 500, seed=5)
        c = minsum.simulate_batch(3, [1.0] * 3, 500, seed=6)
        assert np.array_equal(a.posteriors, b.posteriors)
        assert np.array_equal(a.bins, b.bins)
        assert not np.array_equal(a.posteriors, c.posteriors)

    def test_noiseless_limit(self):
        batch = minsum.simulate_batch(3, [1e-3] * 3, 300, seed=7)
        one_hot_gap = np.minimum(batch.posteriors[:, 0], batch.posteriors[:, 1])
        assert np.max(one_hot_gap) <= 1e-12  # posteriors are one-hot
        assert set(np.unique(batch.bins)) <= {63, 127}  # magnitudes clamp to top bins

    def test_magnitudes_past_int64_clamp_to_top_bins(self):
        # at sigma 1e-10 min-sum magnitudes reach ~1e20, past the int64 range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = minsum.simulate_batch(3, [1e-10] * 3, 5, seed=0)
        assert np.abs(batch.minsum_llrs).min() > 2.0**63 * 25.0 / 64
        assert set(batch.bins.tolist()) <= {63, 127}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0, 1e-300, 1e300])
    def test_sigma_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError):
            minsum.simulate_batch(3, [bad, 1.0, 1.0], 10, seed=0)

    def test_pure_noise_limit(self):
        batch = minsum.simulate_batch(3, [30.0] * 3, 300, seed=8)
        assert np.max(np.abs(batch.posteriors - 0.5)) <= 0.1

    def test_truths_follow_branch_xor(self):
        batch = minsum.simulate_batch(2, [1e-3, 1e-3], 2000, seed=9)
        # at vanishing noise the reference posterior decides the XOR bit exactly
        decided = (batch.posteriors[:, 1] > 0.5).astype(int)
        assert np.array_equal(decided, batch.truths)

    def test_memory_is_the_draws_and_the_batch(self):
        # blocked work adds at most 4 MiB to the (n, d) draws and the
        # 40 bytes per sample of the returned arrays
        d, n = 6, 200_000
        sigmas = [0.6, 0.8, 1.0, 1.2, 1.4, 1.6]
        minsum.simulate_batch(d, sigmas, 100, seed=3)
        tracemalloc.start()
        try:
            batch = minsum.simulate_batch(d, sigmas, n, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(batch) == n
        assert peak <= 2 * n * d * 8 + 40 * n + 4 * 2**20

    def test_seed_stability_of_training(self):
        # same-batch empirical ED agrees across seeds within 3 standard errors
        def ed_and_se(seed):
            batch = minsum.simulate_batch(3, [1.0] * 3, 100_000, seed=seed)
            table = minsum.new_table(minsum.ZQuantizer())
            table.ingest_batch(batch)
            q = table.finalize()
            rows = q[batch.bins]
            p = batch.posteriors
            per = np.where(p > 0, p * (np.log2(np.where(p > 0, p, 1.0)) - np.log2(rows)), 0.0).sum(axis=1)
            return per.mean(), per.std(ddof=1) / math.sqrt(per.size)

        ed1, se1 = ed_and_se(101)
        ed2, se2 = ed_and_se(202)
        assert abs(ed1 - ed2) <= 3.0 * math.hypot(se1, se2)


class TestEvaluateTable:
    def test_trained_beats_baseline_on_training_batch(self):
        batch = minsum.simulate_batch(3, [1.0] * 3, 50_000, seed=10)
        table = minsum.new_table(minsum.ZQuantizer())
        table.ingest_batch(batch)
        report = minsum.evaluate_table(table, batch)
        assert report.empirical_ed <= report.baseline_ed

    def test_unequal_variances(self):
        sigmas = [0.6, 1.0, 1.6]
        table = minsum.new_table(minsum.ZQuantizer())
        table.ingest_batch(minsum.simulate_batch(3, sigmas, 50_000, seed=11))
        held = minsum.simulate_batch(3, sigmas, 50_000, seed=12)
        report = minsum.evaluate_table(table, held)
        assert report.empirical_ed < report.baseline_ed

    def test_divergences_match_exact_per_sample_sums(self):
        # 1e-12 bits absolute, on the training batch and a held-out one,
        # each longer than two blocks
        sigmas = [0.6, 1.0, 1.6]
        n = 2 * minsum.BLOCK + 7
        table = minsum.new_table(minsum.ZQuantizer())
        table.ingest_batch(minsum.simulate_batch(3, sigmas, n, seed=18))
        for seed in (18, 19):
            batch = minsum.simulate_batch(3, sigmas, n, seed=seed)
            report = minsum.evaluate_table(table, batch)
            ed = empirical_objective(batch.posteriors, batch.bins, table.finalize())
            baseline = minsum_baseline_objective(batch.posteriors, batch.minsum_llrs, DEFAULT_FLOOR)
            assert abs(report.empirical_ed - ed) <= 1e-12
            assert abs(report.baseline_ed - baseline) <= 1e-12
            assert report.count == n

    def test_untrained_fallback_is_worse_on_held_out(self):
        quant = minsum.ZQuantizer()
        wins = 0
        for s in range(10):
            trained = minsum.new_table(quant)
            trained.ingest_batch(minsum.simulate_batch(3, [1.0] * 3, 20_000, seed=500 + s,
                                                       quantizer=quant))
            untrained = minsum.new_table(quant)
            held = minsum.simulate_batch(3, [1.0] * 3, 20_000, seed=600 + s, quantizer=quant)
            ed_trained = empirical_ed(held, trained.finalize())
            ed_untrained = empirical_ed(held, untrained.finalize())
            wins += ed_untrained >= ed_trained
        assert wins >= 6  # median over seeds favors the trained table

    def test_perfect_side_branch_reproduces_survivor(self):
        # d=2 with one branch noiseless: Z is sufficient, so each bin's
        # trained posterior matches the surviving branch's posterior at the
        # bin center, within quantization spread (slope <= 1/4 per LLR unit)
        quant = minsum.ZQuantizer()
        width = quant.max_magnitude / quant.num_bins
        batch = minsum.simulate_batch(2, [1.0, 1e-3], 200_000, seed=13, quantizer=quant)
        table = minsum.new_table(quant)
        table.ingest_batch(batch)
        q = table.finalize()
        checked = 0
        for b in range(quant.total_bins):
            if table.counts[b] >= 200:
                center = (b % quant.num_bins + 0.5) * width * (-1 if b >= quant.num_bins else 1)
                expect = 1.0 / (1.0 + math.exp(-center))  # P(bit 0) at the bin-center LLR
                assert abs(q[b, 0] - expect) <= width / 4 + 0.02
                checked += 1
        assert checked >= 20

    def test_confidence_monotone_in_magnitude(self):
        batch = minsum.simulate_batch(3, [1.0] * 3, 200_000, seed=14)
        table = minsum.new_table(minsum.ZQuantizer())
        table.ingest_batch(batch)
        q = table.finalize()
        conf = q.max(axis=1)
        for b in range(1, 64):  # +1 sign branch
            if table.counts[b - 1] >= 100 and table.counts[b] >= 100:
                assert conf[b] >= conf[b - 1] - 1e-9


class TestSurrogateChain:
    def test_channel_cells_are_proper(self):
        sc = minsum.surrogate_chain([1.0] * 3)
        assert sc.model.ny == 8**3
        assert sc.num_z == 8
        assert np.max(np.abs(sc.model.ch1.sum(axis=1) - 1.0)) <= 1e-12

    def test_floor_is_nonnegative_and_small(self):
        sc = minsum.surrogate_chain([1.0] * 3)
        floor = sc.divergence_floor()
        assert 0.0 <= floor < 0.5

    def test_trained_table_reaches_floor(self):
        sc = minsum.surrogate_chain([1.0] * 3)
        batch = sc.sample_batch(100_000, seed=15)
        table = sc.new_table()
        table.ingest_batch(batch)
        gap = sc.exact_ed(table.finalize()) - sc.divergence_floor()
        assert 0.0 <= gap <= 0.01

    def test_unequal_sigmas_supported(self):
        sc = minsum.surrogate_chain([0.7, 1.0, 1.4])
        batch = sc.sample_batch(50_000, seed=16)
        table = sc.new_table()
        table.ingest_batch(batch)
        gap = sc.exact_ed(table.finalize()) - sc.divergence_floor()
        assert 0.0 <= gap <= 0.01

