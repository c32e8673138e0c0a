import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rolemodel import chains, minsum
from rolemodel.cli import main
from rolemodel.errors import (AbsoluteContinuityViolation, BinOutOfRange, DimensionMismatch,
                              ZeroMassAtTruth)
from rolemodel.probs import DEFAULT_FLOOR, floor_rows, soft_mi
from rolemodel.rng import make_rng
from rolemodel.train import PostTable

from minsum_batches import QUANT, blocks_of, trained_table, whole_batch
from oracles import empirical_objective, minsum_baseline_objective
from surrogate import sample_batch, surrogate_chain

class TestTanhRule:
    def test_erasure_annihilates(self):
        assert minsum.tanh_rule_rows(np.array([[0.0, 5.0]]))[0] == 0.0

    def test_frozen_high_precision_value(self):
        # the product tanh(1/2)^2, as its LLR 2*atanh(tanh(1/2)^2) evaluated at 50 digits
        product = minsum.tanh_rule_rows(np.array([[1.0, 1.0]]))[0]
        assert 2.0 * math.atanh(product) == pytest.approx(0.43378083048302718703, rel=1e-14)

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
        batch = whole_batch(3, [0.8, 1.0, 1.3], 2000, 403)
        t = self.reference_llrs(batch)
        live = t != 0.0
        assert np.array_equal(np.sign(batch.minsum_llrs[live]), np.sign(t[live]))

    def test_magnitude_upper_bounds_tanh_rule(self):
        for d in range(2, 6):
            batch = whole_batch(d, np.linspace(0.5, 1.5, d), 2000, 404 + d)
            t = self.reference_llrs(batch)
            assert np.all(np.abs(t) <= np.abs(batch.minsum_llrs) + 1e-12)


class TestQuantizer:
    def test_layout_and_clamp(self):
        # bins of width MAX_MAGNITUDE / 8 = 3.125
        q = minsum.ZQuantizer(num_bins=8)
        bins = q.bin_indices(np.array([3.0, 24.99, 25.0, 3.2, 100.0]),
                             np.array([1, 1, 1, -1, -1]))
        assert bins.tolist() == [0, 7, 7, 9, 15]

    def test_huge_magnitude_clamps_without_overflow(self):
        # 1e308 over a bin width of 25 / 2^40 is past the float range
        q = minsum.ZQuantizer(num_bins=2**40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bins = q.bin_indices(np.array([1e308, 0.0]), np.array([1.0, -1.0]))
        assert bins.tolist() == [2**40 - 1, 2**40]

    def test_huge_bin_counts_clamp_in_integers(self):
        # 2^62 - 1 is no float64; a float clamp would give the next sign's first bin
        q = minsum.ZQuantizer(num_bins=2**62)
        assert q.bin_indices([100.0], [1.0]).tolist() == [2**62 - 1]
        assert q.bin_indices([100.0], [-1.0]).tolist() == [2**63 - 1]

    def test_bin_counts_past_2_62_are_rejected(self):
        # the top bin index, 2 * num_bins - 1, must be an int64
        assert minsum.ZQuantizer(num_bins=2**62).total_bins == 2**63
        for num_bins in (2**62 + 1, 2**63 - 1):
            with pytest.raises(ValueError, match=r"need at most 2\^62 bins per sign"):
                minsum.ZQuantizer(num_bins=num_bins)

    def test_negative_magnitude_rejected(self):
        q = minsum.ZQuantizer()
        with pytest.raises(BinOutOfRange):
            q.bin_indices(np.array([-1.0]), np.array([1]))


class TestSimulateBatch:
    def test_deterministic_per_seed(self):
        a, b, c = (whole_batch(3, [1.0] * 3, 500, seed) for seed in (5, 5, 6))
        assert np.array_equal(a.posteriors, b.posteriors)
        assert np.array_equal(a.bins, b.bins)
        assert not np.array_equal(a.posteriors, c.posteriors)

    def test_noiseless_limit(self):
        batch = whole_batch(3, [1e-3] * 3, 300, 7)
        one_hot_gap = np.minimum(batch.posteriors[:, 0], batch.posteriors[:, 1])
        assert np.max(one_hot_gap) <= 1e-12  # posteriors are one-hot
        assert set(np.unique(batch.bins)) <= {63, 127}  # magnitudes clamp to top bins

    def test_magnitudes_past_int64_clamp_to_top_bins(self):
        # at sigma 1e-10 min-sum magnitudes reach ~1e20, past the int64 range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = whole_batch(3, [1e-10] * 3, 5, 0)
        assert np.abs(batch.minsum_llrs).min() > 2.0**63 * 25.0 / 64
        assert set(batch.bins.tolist()) <= {63, 127}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0, 1e-300, 1e300])
    def test_sigma_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError):
            minsum.simulate_blocks(3, [bad, 1.0, 1.0], 10, 0, QUANT)

    def test_pure_noise_limit(self):
        batch = whole_batch(3, [30.0] * 3, 300, 8)
        assert np.max(np.abs(batch.posteriors - 0.5)) <= 0.1

    def test_truths_follow_branch_xor(self):
        # a trial draws the XOR of its branch bits as one parity bit: bit k % 64
        # of raw word k // 64 of make_rng(seed, 1, 1), least significant first
        n = 2000
        batch = whole_batch(2, [1e-3, 1e-3], n, 9)
        words = make_rng(9, 1, 1).bit_generator.random_raw(-(-n // 64)).tolist()
        assert batch.truths.tolist() == [(words[k // 64] >> (k % 64)) & 1 for k in range(n)]
        # at vanishing noise the reference posterior decides the XOR bit exactly
        decided = (batch.posteriors[:, 1] > 0.5).astype(int)
        assert np.array_equal(decided, batch.truths)

    def test_training_and_scoring_add_one_column_per_sample(self):
        # ingest_batch and evaluate_table hold no per-sample temporary beyond
        # the batch, only block buffers within 4 MiB; at this n one 8-byte
        # value per sample (4.8 MB) would break the bound
        d, n = 6, 600_000
        batch = whole_batch(d, [0.6, 0.8, 1.0, 1.2, 1.4, 1.6], n, 3)
        table = PostTable(QUANT.total_bins, 2)
        tracemalloc.start()
        try:
            table.ingest_batch(batch.posteriors, batch.bins)
            report = minsum.evaluate_table(table.finalize(), blocks_of(batch))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.count == n
        assert peak <= 4 * 2**20

    def test_commands_hold_only_block_buffers(self, tmp_path):
        # train-minsum and eval-minsum score each block as it is drawn: a run
        # holds at most 4 MiB, where one byte a sample would add 0.6 MB at
        # this n and a whole batch 40 bytes a sample (24 MB)
        d, n = 6, 600_000
        shape = ["--degree", str(d), "--sigmas", "0.6,0.8,1.0,1.2,1.4,1.6", "--quiet"]
        table = tmp_path / "table.json"
        assert main(["train-minsum", *shape, "--samples", "100", "--out", str(table)]) == 0
        runs = [["train-minsum", "--out", str(table)],
                ["eval-minsum", "--table", str(table), "--out", str(tmp_path / "eval.csv")]]
        for argv in runs:
            tracemalloc.start()
            try:
                assert main([*argv, *shape, "--samples", str(n)]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 4 * 2**20, argv[0]

    def test_seed_stability_of_training(self):
        # same-batch empirical ED agrees across seeds within 3 standard errors
        def ed_and_se(seed):
            batch = whole_batch(3, [1.0] * 3, 100_000, seed)
            table = PostTable(QUANT.total_bins, 2)
            table.ingest_batch(batch.posteriors, batch.bins)
            q = table.finalize()
            rows = q[batch.bins]
            p = batch.posteriors
            per = np.where(p > 0, p * (np.log2(np.where(p > 0, p, 1.0)) - np.log2(rows)), 0.0).sum(axis=1)
            return per.mean(), per.std(ddof=1) / math.sqrt(per.size)

        ed1, se1 = ed_and_se(101)
        ed2, se2 = ed_and_se(202)
        assert abs(ed1 - ed2) <= 3.0 * math.hypot(se1, se2)


class TestMinsumBitsArePinned:
    """sha256 of the ``train-minsum --out`` JSON and the ``eval-minsum --out``
    CSV, over more than two blocks of samples. A change to the draw order,
    the blocked arithmetic or the table's persistence that moves any bit of
    either file fails here. Training prints only its sample and bin counts;
    each ``eval-minsum`` summary, scored block by block as the samples are
    drawn, must be ``evaluate_table``'s on the whole batch of the same
    draws, the training seed's batch included."""

    SAMPLES = 2 * minsum.BLOCK + 7  # the last block takes 7 bits of a parity word
    SIGMAS = {3: "1.0,1.0,1.0", 6: "0.6,0.8,1.0,1.2,1.4,1.6"}
    DIGESTS = {
        (3, 0): ("9b031591ae9f0f05e7ffb461db1dfa2a66e028e1dedfd2ce7abe1249b6393820",
                 "e15fd265d1c0eba9be58bc90804063c4e465bb99233843eb4180d9b818e9a6de"),
        (3, 11): ("565990030e5b3d2378052c39a4a4a1e6b53b14593b2b707742da41abe36a78a2",
                  "f4b168e4bd61f62dc9c570b2158cd413191edc8f7f9531c4f9282ff445dd7f36"),
        (6, 0): ("b3fa3e06cb0a5abca52de5af37dc3acc70fa2cbf0a376ae9bbee9cc266116b98",
                 "fd04c9b817a7e78d6d18fbc12d0c01f28602c56bd6cc5061ad48dc7fc4459a98"),
        (6, 11): ("6982e2a93288921c044935fbe7570853090f9eed02410d83227e609110a33748",
                  "5f8909c817dfcd16299aad6647b518b65aeacda5e6a41d9fa4b6907403e9fe15"),
    }

    @pytest.mark.parametrize("d, seed", sorted(DIGESTS))
    def test_out_files(self, d, seed, tmp_path, capsys):
        table, evaluated = tmp_path / "table.json", tmp_path / "eval.csv"
        shape = ["--degree", str(d), "--sigmas", self.SIGMAS[d], "--samples", str(self.SAMPLES)]
        assert main(["train-minsum", *shape, "--seed", str(seed), "--out", str(table)]) == 0
        trained = capsys.readouterr().out
        assert main(["eval-minsum", "--table", str(table), *shape, "--seed", str(seed + 1),
                     "--out", str(evaluated)]) == 0
        scored = capsys.readouterr().out
        digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in (table, evaluated))
        assert digests == self.DIGESTS[d, seed]
        assert trained == f"trained {self.SAMPLES} samples into 128 bins\n"
        sigmas = [float(s) for s in self.SIGMAS[d].split(",")]
        batch = whole_batch(d, sigmas, self.SAMPLES, seed)
        fit = PostTable(QUANT.total_bins, 2)
        fit.ingest_batch(batch.posteriors, batch.bins)
        q = fit.finalize()
        held = whole_batch(d, sigmas, self.SAMPLES, seed + 1)
        assert scored == minsum.evaluate_table(q, blocks_of(held)).summary() + "\n"
        # the in-sample score: eval-minsum with the training seed and sample count
        assert main(["eval-minsum", "--table", str(table), *shape, "--seed", str(seed)]) == 0
        in_sample = minsum.evaluate_table(q, blocks_of(batch))
        assert capsys.readouterr().out == in_sample.summary() + "\n"

    @pytest.mark.parametrize("quiet", [[], ["--quiet"]])
    @pytest.mark.parametrize("d, seed", sorted(DIGESTS))
    def test_training_writes_the_table_unscored(self, d, seed, quiet, tmp_path, monkeypatch,
                                                capsys):
        # train-minsum only sums the table: no run, quiet or not, scores its batch
        def unreachable(*args, **kwargs):
            raise AssertionError("a train-minsum run scored its batch")

        for name in ("evaluate_table", "plogp_sum", "_baseline_cross"):
            monkeypatch.setattr(minsum, name, unreachable)
        table = tmp_path / "table.json"
        assert main(["train-minsum", "--degree", str(d), "--sigmas", self.SIGMAS[d],
                     "--samples", str(self.SAMPLES), "--seed", str(seed), "--out", str(table),
                     *quiet]) == 0
        summary = "" if quiet else f"trained {self.SAMPLES} samples into 128 bins\n"
        assert capsys.readouterr().out == summary
        assert hashlib.sha256(table.read_bytes()).hexdigest() == self.DIGESTS[d, seed][0]


class TestEvaluateTable:
    def test_trained_beats_baseline_on_training_batch(self):
        table = trained_table(3, [1.0] * 3, 50_000, 10)
        report = minsum.evaluate_table(table.finalize(),
                                       minsum.simulate_blocks(3, [1.0] * 3, 50_000, 10, QUANT))
        assert report.empirical_ed <= report.baseline_ed

    def test_unequal_variances(self):
        sigmas = [0.6, 1.0, 1.6]
        table = trained_table(3, sigmas, 50_000, 11)
        held = minsum.simulate_blocks(3, sigmas, 50_000, 12, QUANT)
        report = minsum.evaluate_table(table.finalize(), held)
        assert report.empirical_ed < report.baseline_ed

    def test_divergences_match_exact_per_sample_sums(self):
        # 1e-12 bits absolute, on the training batch and a held-out one,
        # each longer than two blocks
        sigmas = [0.6, 1.0, 1.6]
        n = 2 * minsum.BLOCK + 7
        table = trained_table(3, sigmas, n, 18)
        for seed in (18, 19):
            batch = whole_batch(3, sigmas, n, seed)
            report = minsum.evaluate_table(table.finalize(), blocks_of(batch))
            ed = empirical_objective(batch.posteriors, batch.bins, table.finalize())
            baseline = minsum_baseline_objective(batch.posteriors, batch.minsum_llrs, DEFAULT_FLOOR)
            assert abs(report.empirical_ed - ed) <= 1e-12
            assert abs(report.baseline_ed - baseline) <= 1e-12
            assert report.count == n

    def test_soft_mi_from_counts_is_the_per_sample_score(self):
        # 1e-12 relative to soft_mi over the gathered per-sample rows
        q = trained_table(3, [0.6, 1.0, 1.6], 50_000, 20).finalize()
        batch = whole_batch(3, [0.6, 1.0, 1.6], 50_000, 21)
        per_sample = soft_mi(batch.truths, q[batch.bins])
        assert per_sample > 0.0
        assert minsum.evaluate_table(q, blocks_of(batch)).soft_mi == pytest.approx(per_sample,
                                                                                  rel=1e-12)

    def test_zero_mass_at_truth_names_the_pair(self):
        # one-hot posteriors that disagree with their truths: bins 0 and 1
        # train to (1, 0), so samples 3 (bin 1) and 5 (bin 0) have zero mass at
        # their truth 1. The error names pair row 2 * bin + truth = 1, bin 0's
        # truth 1, the first such row of the table.
        bins = np.array([0, 1, 0, 1, 2, 0])
        truths = np.array([0, 0, 0, 1, 0, 1])
        posteriors = np.array([[1.0, 0.0]] * 4 + [[0.5, 0.5], [1.0, 0.0]])
        batch = minsum.MinsumBatch(posteriors, bins, truths, np.zeros(6))
        table = PostTable(3, 2)
        table.ingest_batch(posteriors, bins)
        with pytest.raises(ZeroMassAtTruth) as err:
            minsum.evaluate_table(table.finalize(), [batch])
        assert err.value.index == 1

    def test_batch_columns(self):
        # a min-sum batch holds one posterior row, bin, truth and min-sum LLR per sample
        batch = minsum.MinsumBatch([[0.6, 0.4], [0.1, 0.9]], [1, 0], np.array([0, 1], np.uint8),
                                   [0.5, -2.0])
        assert len(batch) == 2 and batch.truths[1] == 1 and batch.minsum_llrs[1] == -2.0
        assert batch.truths.dtype == np.int_ and batch.minsum_llrs.dtype == np.float64
        for truths, llrs in (([0], [0.5, -2.0]), ([0, 1, 1], [0.5, -2.0]), ([[0, 1]], [0.5, -2.0]),
                             ([0, 1], [0.5]), ([0, 1], 0.5), (None, [0.5, -2.0])):
            with pytest.raises(DimensionMismatch, match="one truth and one min-sum LLR"):
                minsum.MinsumBatch(batch.posteriors, batch.bins, truths, llrs)
        assert batch.bins.dtype == np.int_ and batch.posteriors.dtype == np.float64
        # one posterior row per bin index, with truths and LLRs shaped as the bins
        for posteriors, bins in ((batch.posteriors, [1, 0, 1]), (batch.posteriors[0], [1, 0]),
                                 (batch.posteriors, [[1, 0]])):
            same = np.zeros(np.shape(bins))
            with pytest.raises(DimensionMismatch, match="one posterior row"):
                minsum.MinsumBatch(posteriors, bins, same, same)

    def test_a_batch_without_truths_fails_at_construction(self):
        # evaluate_table scores soft MI on the truths, so a batch must carry them
        with pytest.raises(DimensionMismatch):
            minsum.evaluate_table(np.full((2, 2), 0.5),
                                  [minsum.MinsumBatch([[0.5, 0.5]], [1], None, [0.0])])

    def test_a_table_of_the_wrong_shape_fails_before_the_first_block(self):
        # q is checked before the blocks are taken, so a lazy run draws nothing for it
        taken = []

        def recorded():
            for block in minsum.simulate_blocks(3, [1.0] * 3, 50_000, 0, QUANT):
                taken.append(len(block))
                yield block

        for q in (np.full((QUANT.total_bins, 3), 1 / 3), np.full(QUANT.total_bins, 0.5)):
            with pytest.raises(DimensionMismatch, match=f"need {QUANT.total_bins} rows of 2"):
                minsum.evaluate_table(q, recorded())
        assert taken == []

    def test_zero_table_entry_under_mass_names_the_bin(self):
        with pytest.raises(AbsoluteContinuityViolation, match="^bin 1: "):
            minsum.evaluate_table(np.array([[0.5, 0.5], [1.0, 0.0]]),
                                  [minsum.MinsumBatch([[0.5, 0.5]], [1], [0], [0.0])])

    @pytest.mark.parametrize("seed", [0, 1, 11, 2**64 - 1])
    def test_every_block_draws_its_truths_as_bits(self, seed):
        # evaluate_table adds each truth into pair row 2 * bin + truth, so a truth
        # outside {0, 1} would count in another bin's pair; the last block
        # here ends mid-word, on 37 bits of its last parity word
        n = minsum.BLOCK + 37
        lengths = []
        for block in minsum.simulate_blocks(3, [0.6, 1.0, 1.6], n, seed, QUANT):
            assert np.all((block.truths == 0) | (block.truths == 1))
            lengths.append(len(block))
        assert lengths == [minsum.BLOCK, 37]

    def test_untrained_fallback_is_worse_on_held_out(self):
        wins = 0
        for s in range(10):
            trained = trained_table(3, [1.0] * 3, 20_000, 500 + s)
            untrained = PostTable(QUANT.total_bins, 2)
            held = list(minsum.simulate_blocks(3, [1.0] * 3, 20_000, 600 + s, QUANT))
            ed_trained = minsum.evaluate_table(trained.finalize(), held).empirical_ed
            ed_untrained = minsum.evaluate_table(untrained.finalize(), held).empirical_ed
            wins += ed_untrained >= ed_trained
        assert wins >= 6  # median over seeds favors the trained table

    def test_perfect_side_branch_reproduces_survivor(self):
        # d=2 with one branch noiseless: Z is sufficient, so each bin's
        # trained posterior matches the surviving branch's posterior at the
        # bin center, within quantization spread (slope <= 1/4 per LLR unit)
        width = minsum.MAX_MAGNITUDE / QUANT.num_bins
        table = trained_table(2, [1.0, 1e-3], 200_000, 13)
        q = table.finalize()
        checked = 0
        for b in range(QUANT.total_bins):
            if table.counts[b] >= 200:
                center = (b % QUANT.num_bins + 0.5) * width * (-1 if b >= QUANT.num_bins else 1)
                expect = 1.0 / (1.0 + math.exp(-center))  # P(bit 0) at the bin-center LLR
                assert abs(q[b, 0] - expect) <= width / 4 + 0.02
                checked += 1
        assert checked >= 20

    def test_confidence_monotone_in_magnitude(self):
        table = trained_table(3, [1.0] * 3, 200_000, 14)
        q = table.finalize()
        conf = q.max(axis=1)
        for b in range(1, 64):  # +1 sign branch
            if table.counts[b - 1] >= 100 and table.counts[b] >= 100:
                assert conf[b] >= conf[b - 1] - 1e-9


class TestSurrogateChain:
    def test_channel_cells_are_proper(self):
        model, _ = surrogate_chain([1.0] * 3)
        assert model.ch1.shape[1] == 8**3
        assert model.ch2.shape[1] == 8
        assert np.max(np.abs(model.ch1.sum(axis=1) - 1.0)) <= 1e-12

    def test_floor_is_nonnegative_and_small(self):
        model, _ = surrogate_chain([1.0] * 3)
        floor = chains.divergence_floor(model)
        assert 0.0 <= floor < 0.5

    def test_trained_table_reaches_floor(self):
        model, z_of_y = surrogate_chain([1.0] * 3)
        table = PostTable(model.ch2.shape[1], 2)
        table.ingest_batch(*sample_batch(model, z_of_y, 100_000, seed=15)[:2])
        gap = chains.expected_divergence(model, table.finalize()) - chains.divergence_floor(model)
        assert 0.0 <= gap <= 0.01

    def test_unequal_sigmas_supported(self):
        model, z_of_y = surrogate_chain([0.7, 1.0, 1.4])
        table = PostTable(model.ch2.shape[1], 2)
        table.ingest_batch(*sample_batch(model, z_of_y, 50_000, seed=16)[:2])
        gap = chains.expected_divergence(model, table.finalize()) - chains.divergence_floor(model)
        assert 0.0 <= gap <= 0.01


class TestMonteCarloIntegration:
    """The non-parametric trainer on the surrogate chain, d = 3, sigmas 1, 1, 1.

    The role-model table averages P(X|Y) over each Z bin: a Monte Carlo
    integration of P(X|Z) = E[P(X|Y) | Z]. Counting the true bits instead
    estimates the same row from a noisier variable. Bins 3 and 7 (every
    branch in the top magnitude cell) have P(z) = 5.9e-6 each, so at
    N = 1e5 each is empty in a batch about half the time. An empty bin holds
    the uniform fallback in both tables, which adds the same term to both
    excesses; at N = 1e5 that term is most of the role-model table's.
    """

    SIGMAS = [1.0, 1.0, 1.0]

    def test_role_model_table_beats_truth_counts(self):
        model, z_of_y = surrogate_chain(self.SIGMAS)
        floor = chains.divergence_floor(model)
        nz = model.ch2.shape[1]
        mean_bound = {1_000: 5e-4, 10_000: 5e-5, 100_000: 2e-5}
        for n, bound in mean_bound.items():
            role, counts = [], []
            for seed in range(20):
                posteriors, bins, truths = sample_batch(model, z_of_y, n, seed)
                table, truth_table = PostTable(nz, 2), PostTable(nz, 2)
                table.ingest_batch(posteriors, bins)
                truth_table.ingest_batch(np.eye(2)[truths], bins)
                role.append(chains.expected_divergence(model, table.finalize()) - floor)
                truth_q = floor_rows(truth_table.finalize(), 1e-6)
                counts.append(chains.expected_divergence(model, truth_q) - floor)
            assert all(r < c for r, c in zip(role, counts)), (n, role, counts)
            assert 0.0 <= np.mean(role) <= bound, (n, np.mean(role))

    def test_role_model_table_converges_to_p_x_given_z(self):
        # a filled bin's row is the mean of its count samples of P(X=0|Y) given z,
        # with exact mean P(X=0|z) and exact standard deviation sd[z]; it must lie
        # within 5 standard errors, sd[z] / sqrt(count). An empty bin keeps the
        # fallback, and only the two P(z) = 5.9e-6 bins may be empty.
        model, z_of_y = surrogate_chain(self.SIGMAS)
        pyz, p0, pz = model.pyz(), chains.posterior_table_xy(model)[:, 0], model.pz()
        exact = chains.posterior_table_xz(model)
        sd = np.sqrt(np.maximum(pyz.T @ p0**2 / pz - exact[:, 0] ** 2, 0.0))
        for seed in range(5):
            table = PostTable(model.ch2.shape[1], 2)
            table.ingest_batch(*sample_batch(model, z_of_y, 1_000_000, seed)[:2])
            q, filled = table.finalize(), table.counts > 0
            assert np.all(q[~filled] == 0.5) and np.all(pz[~filled] < 1e-5)
            err = np.abs(q[filled, 0] - exact[filled, 0])
            assert np.all(err <= 5 * sd[filled] / np.sqrt(table.counts[filled]) + 1e-12), (seed, err)
