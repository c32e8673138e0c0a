import json

import numpy as np
import pytest

from rolemodel import chains
from rolemodel.errors import AbsoluteContinuityViolation, BinOutOfRange, DimensionMismatch
from rolemodel.rng import make_rng
from rolemodel.train import (
    BLOCK,
    ParametricCorrector,
    PostTable,
    SampleBatch,
    empirical_ed,
    train_parametric,
)

from oracles import empirical_objective, projected_gradient_table


def sample(p, b):
    """One-row batch: posterior p in bin b."""
    return SampleBatch([p], [b])


def chain_training_batch(model, n, seed):
    """Samples from a chain with z-identity binning: bin = z symbol."""
    rng = make_rng(seed)
    _, ys, zs = chains.sample_chain(model, n, rng)
    post = chains.posterior_table_xy(model)[ys]
    return SampleBatch(posteriors=post, bins=zs)


class TestIngestFinalize:
    def test_two_sample_average(self):
        t = PostTable(num_bins=1, alphabet_size=2)
        t.ingest_batch(sample([0.9, 0.1], 0))
        t.ingest_batch(sample([0.5, 0.5], 0))
        assert np.allclose(t.finalize()[0], [0.7, 0.3], atol=1e-15)

    def test_single_sample_is_exact(self):
        t = PostTable(num_bins=2, alphabet_size=3)
        t.ingest_batch(sample([0.2, 0.3, 0.5], 1))
        assert np.allclose(t.finalize()[1], [0.2, 0.3, 0.5], atol=1e-15)

    def test_identical_samples_recover_p(self):
        t = PostTable(num_bins=1, alphabet_size=2)
        for _ in range(17):
            t.ingest_batch(sample([0.25, 0.75], 0))
        assert np.allclose(t.finalize()[0], [0.25, 0.75], atol=1e-14)

    def test_empty_table_returns_fallback(self):
        t = PostTable(num_bins=3, alphabet_size=4, fallback=[0.1, 0.2, 0.3, 0.4])
        out = t.finalize()
        assert np.allclose(out, np.tile([0.1, 0.2, 0.3, 0.4], (3, 1)))

    def test_default_fallback_uniform(self):
        t = PostTable(num_bins=2, alphabet_size=5)
        assert np.allclose(t.finalize(), 0.2)

    def test_bin_out_of_range(self):
        t = PostTable(num_bins=2, alphabet_size=2)
        with pytest.raises(BinOutOfRange):
            t.ingest_batch(sample([0.5, 0.5], 2))
        with pytest.raises(BinOutOfRange):
            t.ingest_batch(SampleBatch(np.full((1, 2), 0.5), [-1]))

    def test_alphabet_mismatch(self):
        t = PostTable(num_bins=2, alphabet_size=2)
        with pytest.raises(DimensionMismatch):
            t.ingest_batch(sample([0.2, 0.3, 0.5], 0))
        with pytest.raises(DimensionMismatch):
            empirical_ed(sample([0.2, 0.3, 0.5], 0), t.finalize())

    def test_trained_bins_approach_exact_posteriors(self):
        rng = make_rng(201)
        model = chains.random_chain(rng, 3, 6, 4)
        batch = chain_training_batch(model, 10_000, seed=202)
        t = PostTable(num_bins=model.nz, alphabet_size=model.nx)
        t.ingest_batch(batch)
        final = t.finalize()
        opt = chains.posterior_table_xz(model)
        pz = model.pz()
        for z in range(model.nz):
            if pz[z] > 0.01:
                tv = 0.5 * np.abs(final[z] - opt[z]).sum()
                assert tv <= 0.02

    def test_finalize_matches_independent_convex_solver(self):
        # per-bin averaging vs projected gradient on the time-average objective
        rng = make_rng(55)
        post = rng.dirichlet(np.ones(2), size=12)
        bins = np.array([0, 1, 2] * 4)
        t = PostTable(num_bins=3, alphabet_size=2)
        t.ingest_batch(SampleBatch(post, bins))
        solver = projected_gradient_table(post, bins, 3, iters=20_000)
        assert np.max(np.abs(solver - t.finalize())) <= 1e-6


class TestMerge:
    def test_merge_equals_single_pass(self):
        rng = make_rng(203)
        post = rng.dirichlet(np.ones(3), size=400)
        bins = rng.integers(0, 5, size=400)
        whole = PostTable(num_bins=5, alphabet_size=3)
        whole.ingest_batch(SampleBatch(post, bins))
        left = PostTable(num_bins=5, alphabet_size=3)
        right = PostTable(num_bins=5, alphabet_size=3)
        left.ingest_batch(SampleBatch(post[:250], bins[:250]))
        right.ingest_batch(SampleBatch(post[250:], bins[250:]))
        left.merge(right)
        assert np.array_equal(left.counts, whole.counts)
        assert np.max(np.abs(left.sums - whole.sums)) <= 1e-15 * max(1.0, whole.sums.max())

    def test_merge_geometry_guard(self):
        with pytest.raises(DimensionMismatch):
            PostTable(2, 2).merge(PostTable(3, 2))


class TestEmpiricalEd:
    def test_own_posterior_gives_zero(self):
        s = sample([0.3, 0.7], 0)
        assert empirical_ed(s, np.array([[0.3, 0.7]])) == 0.0

    def test_uniform_q_identity(self):
        # D(p || uniform) = log2 q - H(p), averaged
        rng = make_rng(204)
        post = rng.dirichlet(np.ones(4), size=60)
        bins = rng.integers(0, 3, size=60)
        batch = SampleBatch(post, bins)
        q = np.full((3, 4), 0.25)
        expect = np.mean([2.0 - (-np.sum(p[p > 0] * np.log2(p[p > 0]))) for p in post])
        assert empirical_ed(batch, q) == pytest.approx(expect, abs=1e-12)

    def test_matches_exact_expected_divergence(self):
        rng = make_rng(205)
        model = chains.random_chain(rng, 3, 5, 4)
        batch = chain_training_batch(model, 100_000, seed=206)
        t = PostTable(num_bins=model.nz, alphabet_size=model.nx)
        t.ingest_batch(batch)
        q = t.finalize()
        assert empirical_ed(batch, q) == pytest.approx(
            chains.expected_divergence(model, q), abs=0.02
        )

    def test_averaging_is_empirically_optimal(self):
        rng = make_rng(207)
        post = rng.dirichlet(np.ones(3), size=80)
        bins = rng.integers(0, 4, size=80)
        batch = SampleBatch(post, bins)
        t = PostTable(num_bins=4, alphabet_size=3)
        t.ingest_batch(batch)
        best = empirical_ed(batch, t.finalize())
        for _ in range(50):
            probe = rng.dirichlet(np.ones(3), size=4)
            assert best <= empirical_ed(batch, probe) + 1e-12

    def test_matches_exact_per_sample_sum(self):
        # per-bin sums across block boundaries, posterior zeros, and a table
        # zero that no posterior in its bin needs; 1e-12 bits absolute
        rng = make_rng(211)
        n = 2 * BLOCK + 5
        post = rng.dirichlet(np.full(3, 0.3), size=n)
        post[::7, 0] = 0.0
        bins = rng.integers(0, 5, size=n)
        post[bins == 0, 2] = 0.0
        post /= post.sum(axis=1, keepdims=True)
        batch = SampleBatch(post, bins)
        q = rng.dirichlet(np.ones(3), size=5)
        q[0] = [0.25, 0.75, 0.0]
        t = PostTable(num_bins=5, alphabet_size=3)
        t.ingest_batch(batch)
        for table in (q, t.finalize()):
            assert abs(empirical_ed(batch, table) - empirical_objective(post, bins, table)) <= 1e-12

    def test_absolute_continuity_names_first_offending_sample(self):
        # sample 2 puts 5e-324 on symbol 1 of bin 1, whose table row is (1, 0);
        # sample 1 shares the bin without mass there, so the bin's sum is that
        # one subnormal, and sample 4's violation in bin 2 comes later
        post = np.array([[0.5, 0.5], [1.0, 0.0], [1.0, 5e-324], [0.5, 0.5], [0.0, 1.0]])
        batch = SampleBatch(post, [0, 1, 1, 0, 2])
        q = np.array([[0.5, 0.5], [1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(AbsoluteContinuityViolation, match="sample 2:"):
            empirical_ed(batch, q)

    def test_consistency_toward_floor(self):
        # exact divergence of the trained table decreases toward the floor
        rng = make_rng(208)
        model = chains.random_chain(rng, 3, 5, 3)
        floor = chains.divergence_floor(model)
        medians = []
        for n in (100, 1000, 10_000):
            vals = []
            for s in range(20):
                batch = chain_training_batch(model, n, seed=300 + 7 * s)
                t = PostTable(num_bins=model.nz, alphabet_size=model.nx)
                t.ingest_batch(batch)
                vals.append(chains.expected_divergence(model, t.finalize()))
            medians.append(float(np.median(vals)))
        assert medians[0] >= medians[1] >= medians[2]
        assert medians[2] >= floor - 1e-12
        assert medians[2] - floor <= 0.01


class TestSerialization:
    def test_json_round_trip(self):
        rng = make_rng(209)
        t = PostTable(num_bins=4, alphabet_size=2, bin_spec={"kind": "minsum", "num_bins": 4, "max_magnitude": 25.0})
        t.ingest_batch(SampleBatch(rng.dirichlet(np.ones(2), size=30), rng.integers(0, 4, 30)))
        back = PostTable.from_json(t.to_json())
        assert np.array_equal(back.counts, t.counts)
        assert np.array_equal(back.sums, t.sums)
        assert back.bin_spec == t.bin_spec
        assert np.allclose(back.finalize(), t.finalize())

    def test_json_version_guard(self):
        doc = json.loads(PostTable(1, 2).to_json())
        doc["version"] = 99
        with pytest.raises(ValueError):
            PostTable.from_json(json.dumps(doc))


class TestTrainParametric:
    def test_single_quadratic(self):
        res = train_parametric(lambda c: (c.alphas[0] - 0.3) ** 2, slots=1)
        assert abs(res.corrector.alphas[0] - 0.3) <= 1e-3
        assert not res.budget_exhausted

    def test_separable_two_slot(self):
        target = np.array([0.2, 0.85])

        def obj(c):
            return float(np.sum((c.alphas - target) ** 2))

        res = train_parametric(obj, slots=2)
        assert np.max(np.abs(res.corrector.alphas - target)) <= 1e-3

    def test_budget_exhaustion_flag(self):
        res = train_parametric(lambda c: (c.alphas[0] - 0.3) ** 2, slots=1, budget=5)
        assert res.budget_exhausted
        assert res.evaluations == 5
        assert 0.0 <= res.corrector.alphas[0] <= 1.0

    def test_result_dominates_search_trace(self):
        rng = make_rng(210)
        weights = rng.random(3) + 0.5

        def obj(c):
            return float(np.sum(weights * (c.alphas - 0.4) ** 2) + 0.1 * np.sin(7 * c.alphas).sum())

        res = train_parametric(obj, slots=3, budget=500)
        assert all(res.objective_value <= f + 1e-15 for _, f in res.trace)
        assert np.all(res.corrector.alphas >= 0.0) and np.all(res.corrector.alphas <= 1.0)

    def test_corrector_bounds_validated(self):
        with pytest.raises(ValueError):
            ParametricCorrector(np.array([0.5, 1.2]))


class TestSampleBatch:
    def test_column_protocol(self):
        batch = SampleBatch(np.array([[0.6, 0.4], [0.1, 0.9]]), [1, 0], truths=[0, 1])
        assert len(batch) == 2
        assert batch.bins[0] == 1
        assert batch.truths[1] == 1
        assert batch.bins.dtype == np.int_ and batch.posteriors.dtype == np.float64
        with pytest.raises(DimensionMismatch):
            SampleBatch(batch.posteriors, [1, 0, 1])
        with pytest.raises(DimensionMismatch):
            SampleBatch(batch.posteriors, batch.bins, truths=[0])

    def test_empirical_ed_on_one_row_batches(self):
        q = np.array([[0.5, 0.5], [0.8, 0.2]])
        for s in (sample([0.5, 0.5], 0), sample([0.8, 0.2], 1)):
            assert empirical_ed(s, q) == pytest.approx(0.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_ed(SampleBatch(np.empty((0, 2)), []), np.array([[0.5, 0.5]]))
