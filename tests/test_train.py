import json

import numpy as np
import pytest

from rolemodel import chains, minsum
from rolemodel.cli import _table_doc, _table_from_json, main
from rolemodel.errors import AbsoluteContinuityViolation, BinOutOfRange, DimensionMismatch
from rolemodel.minsum import BLOCK, ZQuantizer, new_table, plogp_sum, simulate_blocks
from rolemodel.rng import make_rng
from rolemodel.train import (
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


def batch_ed(batch, q):
    """``empirical_ed`` of a whole batch, from its per-bin posterior sums and its sum p log2 p."""
    sums = PostTable(len(q), q.shape[1])
    sums.ingest_batch(batch)
    return empirical_ed(sums.sums, q, plogp_sum(batch.posteriors), len(batch))


def chain_training_batch(model, n, seed):
    """Samples from a chain with z-identity binning: bin = z symbol."""
    rng = make_rng(seed)
    ny, nz = model.ch2.shape
    ys, zs = divmod(rng.choice(ny * nz, size=n, p=model.pyz().ravel()), nz)
    post = chains.posterior_table_xy(model)[ys]
    return SampleBatch(posteriors=post, bins=zs)


class TestIngestFinalize:
    def test_two_sample_average(self):
        t = PostTable(num_bins=1, alphabet_size=2)
        t.ingest_batch(sample([0.9, 0.1], 0))
        t.ingest_batch(sample([0.5, 0.5], 0))
        assert np.allclose(t.finalize()[0], [0.7, 0.3], atol=1e-15)

    def test_successive_batches_equal_single_pass(self):
        rng = make_rng(203)
        post = rng.dirichlet(np.ones(3), size=400)
        bins = rng.integers(0, 5, size=400)
        whole = PostTable(num_bins=5, alphabet_size=3)
        whole.ingest_batch(SampleBatch(post, bins))
        split = PostTable(num_bins=5, alphabet_size=3)
        split.ingest_batch(SampleBatch(post[:250], bins[:250]))
        split.ingest_batch(SampleBatch(post[250:], bins[250:]))
        # each sum is added to in sample order, so the split table is bitwise the whole one
        assert np.array_equal(split.counts, whole.counts)
        assert np.array_equal(split.sums, whole.sums)

    def test_single_sample_is_exact(self):
        t = PostTable(num_bins=2, alphabet_size=3)
        t.ingest_batch(sample([0.2, 0.3, 0.5], 1))
        assert np.allclose(t.finalize()[1], [0.2, 0.3, 0.5], atol=1e-15)

    def test_identical_samples_recover_p(self):
        t = PostTable(num_bins=1, alphabet_size=2)
        for _ in range(17):
            t.ingest_batch(sample([0.25, 0.75], 0))
        assert np.allclose(t.finalize()[0], [0.25, 0.75], atol=1e-14)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_default_fallback_uniform(self, q):
        # the empty bins 0 and 2 finalize to the uniform row, bitwise
        t = PostTable(num_bins=3, alphabet_size=q)
        t.ingest_batch(sample(np.eye(q)[0], 1))
        assert np.array_equal(t.finalize(), np.stack([np.full(q, 1 / q), np.eye(q)[0],
                                                      np.full(q, 1 / q)]))

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
        three = minsum.MinsumBatch([[0.2, 0.3, 0.5]], [0], [0], [0.0])
        with pytest.raises(DimensionMismatch):
            minsum.evaluate_table(t.finalize(), [three])

    def test_trained_bins_approach_exact_posteriors(self):
        rng = make_rng(201)
        model = chains.random_chain(rng, 3, 6, 4)
        batch = chain_training_batch(model, 10_000, seed=202)
        t = PostTable(num_bins=model.ch2.shape[1], alphabet_size=model.px.size)
        t.ingest_batch(batch)
        final = t.finalize()
        opt = chains.posterior_table_xz(model)
        pz = model.pz()
        for z in range(model.ch2.shape[1]):
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


class TestEmpiricalEd:
    def test_own_posterior_gives_zero(self):
        s = sample([0.3, 0.7], 0)
        assert batch_ed(s, np.array([[0.3, 0.7]])) == 0.0

    def test_uniform_q_identity(self):
        # D(p || uniform) = log2 q - H(p), averaged
        rng = make_rng(204)
        post = rng.dirichlet(np.ones(4), size=60)
        bins = rng.integers(0, 3, size=60)
        batch = SampleBatch(post, bins)
        q = np.full((3, 4), 0.25)
        expect = np.mean([2.0 - (-np.sum(p[p > 0] * np.log2(p[p > 0]))) for p in post])
        assert batch_ed(batch, q) == pytest.approx(expect, abs=1e-12)

    def test_matches_exact_expected_divergence(self):
        rng = make_rng(205)
        model = chains.random_chain(rng, 3, 5, 4)
        batch = chain_training_batch(model, 100_000, seed=206)
        t = PostTable(num_bins=model.ch2.shape[1], alphabet_size=model.px.size)
        t.ingest_batch(batch)
        q = t.finalize()
        assert batch_ed(batch, q) == pytest.approx(
            chains.expected_divergence(model, q), abs=0.02
        )

    def test_averaging_is_empirically_optimal(self):
        rng = make_rng(207)
        post = rng.dirichlet(np.ones(3), size=80)
        bins = rng.integers(0, 4, size=80)
        batch = SampleBatch(post, bins)
        t = PostTable(num_bins=4, alphabet_size=3)
        t.ingest_batch(batch)
        best = batch_ed(batch, t.finalize())
        for _ in range(50):
            probe = rng.dirichlet(np.ones(3), size=4)
            assert best <= batch_ed(batch, probe) + 1e-12

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
            assert abs(batch_ed(batch, table) - empirical_objective(post, bins, table)) <= 1e-12

    def test_absolute_continuity_names_first_offending_bin(self):
        # sample 2 puts 5e-324 on symbol 1 of bin 1, whose table row is (1, 0);
        # sample 1 shares the bin without mass there, so the bin's sum is that
        # one subnormal, and bin 2's violation (sample 4) comes later
        post = np.array([[0.5, 0.5], [1.0, 0.0], [1.0, 5e-324], [0.5, 0.5], [0.0, 1.0]])
        batch = minsum.MinsumBatch(post, [0, 1, 1, 0, 2], [0, 0, 1, 1, 1], np.zeros(5))
        q = np.array([[0.5, 0.5], [1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(AbsoluteContinuityViolation, match="^bin 1: "):
            minsum.evaluate_table(q, [batch])

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
                t = PostTable(num_bins=model.ch2.shape[1], alphabet_size=model.px.size)
                t.ingest_batch(batch)
                vals.append(chains.expected_divergence(model, t.finalize()))
            medians.append(float(np.median(vals)))
        assert medians[0] >= medians[1] >= medians[2]
        assert medians[2] >= floor - 1e-12
        assert medians[2] - floor <= 0.01


class TestSerialization:
    """The min-sum table format of ``train-minsum --out`` and ``eval-minsum --table``."""

    QUANT = ZQuantizer(num_bins=1)

    def doc(self):
        return _table_doc(new_table(self.QUANT))

    def test_json_round_trip(self):
        rng = make_rng(209)
        t = new_table(self.QUANT)
        t.ingest_batch(SampleBatch(rng.dirichlet(np.ones(2), size=30), rng.integers(0, 2, 30)))
        back, final, quant = _table_from_json(json.dumps(_table_doc(t)))
        assert np.array_equal(back.counts, t.counts)
        assert np.array_equal(back.sums, t.sums)
        assert quant == self.QUANT
        assert np.array_equal(final, t.finalize())

    def test_a_large_table_file_round_trips_one_bin_per_line(self, tmp_path):
        # train-minsum --out writes each bin on its own line through the C encoder
        path = tmp_path / "table.json"
        assert main(["train-minsum", "--bins", "65536", "--samples", "20000", "--seed", "3",
                     "--quiet", "--out", str(path)]) == 0
        text = path.read_text()
        assert len(text.splitlines()) == 2 * 65536 + 2
        quant = ZQuantizer(num_bins=65536)
        trained = new_table(quant)
        for block in simulate_blocks(3, [1.0] * 3, 20000, 3, quant):
            trained.ingest_batch(block)
        back, _, back_quant = _table_from_json(text)
        assert back_quant == quant
        assert np.array_equal(back.counts, trained.counts)
        assert np.array_equal(back.sums, trained.sums)

    @pytest.mark.parametrize("version", [1, 99])
    def test_json_version_guard(self, version):
        # version 1 carried q, a bin spec and a fallback row; this reader takes none
        doc = self.doc()
        doc["version"] = version
        with pytest.raises(ValueError, match=f"unsupported table version {version}"):
            _table_from_json(json.dumps(doc))

    def test_the_document_is_its_bins(self):
        assert self.doc() == {"version": 2, "bins": [{"count": 0, "sum": [0.0, 0.0]}] * 2}

    def test_alpha_json_is_not_a_table(self):
        # an alpha table of a later format may carry the table's version number
        doc = {"version": 2, "n": 9, "alphas": [0.5] * 9}
        with pytest.raises(ValueError, match="'bins'"):
            _table_from_json(json.dumps(doc))

    # each bad bins list but the first two has an even length, so only the
    # violation itself can fail the load
    @pytest.mark.parametrize("key, value", [
        ("bins", []), ("bins", [{"sum": [0.5, 0.5], "count": 1}] * 3),
        ("bins", [{"sum": [0.5, 0.5]}] * 2), ("bins", [{"sum": [0.5], "count": 1}] * 2),
        ("bins", [{"sum": [0.5, 0.5, 0.0], "count": 1}] * 2),
        ("bins", [{"sum": [0.5, float("nan")], "count": 1}] * 2),
        ("bins", [{"sum": [-0.5, 1.5], "count": 1}] * 2),
        ("bins", [{"sum": [0.0, 0.0], "count": 1}] * 2),
    ], ids=["bins-empty", "bins-odd", "bin-no-count", "bin-short-sum", "bin-ternary-sum",
            "bin-nan-sum", "bin-negative-sum", "bin-count-without-mass"])
    def test_json_schema_violations(self, key, value):
        doc = self.doc()
        _table_from_json(json.dumps(doc))  # the unaltered document loads
        doc[key] = value
        with pytest.raises(ValueError):
            _table_from_json(json.dumps(doc))


class TestTrainParametric:
    """The objective returns one value per slot, value i depending on alpha_i alone."""

    def test_single_quadratic(self):
        res = train_parametric(lambda a: (a - 0.3) ** 2, slots=1)
        assert abs(res.corrector.alphas[0] - 0.3) <= 1e-3
        assert res.evaluations == 24  # converged inside the default budget

    def test_separable_two_slot(self):
        target = np.array([0.2, 0.85])
        res = train_parametric(lambda a: (a - target) ** 2, slots=2)
        assert np.max(np.abs(res.corrector.alphas - target)) <= 1e-3

    def test_budget_exhaustion_stops_at_the_budget(self):
        res = train_parametric(lambda a: (a - 0.3) ** 2, slots=1, budget=5)
        assert res.evaluations == 5
        assert 0.0 <= res.corrector.alphas[0] <= 1.0

    @pytest.mark.parametrize("budget", range(1, 31))
    def test_budget_sweep_stops_at_the_budget(self, budget):
        calls = []

        def obj(a):
            calls.append(a)
            return (a - 0.3) ** 2

        res = train_parametric(obj, slots=2, budget=budget)
        assert len(calls) == res.evaluations == min(budget, 24)
        assert np.all((res.corrector.alphas >= 0.0) & (res.corrector.alphas <= 1.0))

    def test_objective_returns_one_value_per_slot(self):
        with pytest.raises(ValueError, match="one value per slot"):
            train_parametric(lambda a: float(np.sum((a - 0.3) ** 2)), slots=2)

    def test_result_dominates_search_trace(self):
        rng = make_rng(210)
        weights = rng.random(3) + 0.5

        def obj(a):
            return weights * (a - 0.4) ** 2 + 0.1 * np.sin(7 * a)

        trace = []

        def recorded(a):
            f = obj(a)
            trace.append(f)
            return f

        res = train_parametric(recorded, slots=3, budget=500)
        assert len(trace) == res.evaluations
        # per slot, the result scores no worse than any point the search scored
        assert np.all(obj(res.corrector.alphas) <= np.min(trace, axis=0))
        assert np.all(res.corrector.alphas >= 0.0) and np.all(res.corrector.alphas <= 1.0)

    def test_corrector_bounds_validated(self):
        with pytest.raises(ValueError):
            ParametricCorrector(np.array([0.5, 1.2]))

    def test_corrector_rejects_nan(self):
        with pytest.raises(ValueError):
            ParametricCorrector(np.array([0.5, np.nan]))


class TestSampleBatch:
    def test_column_protocol(self):
        batch = SampleBatch(np.array([[0.6, 0.4], [0.1, 0.9]]), [1, 0])
        assert len(batch) == 2
        assert batch.bins[0] == 1
        assert batch.bins.dtype == np.int_ and batch.posteriors.dtype == np.float64
        with pytest.raises(DimensionMismatch):
            SampleBatch(batch.posteriors, [1, 0, 1])

    def test_empirical_ed_on_one_row_batches(self):
        q = np.array([[0.5, 0.5], [0.8, 0.2]])
        for s in (sample([0.5, 0.5], 0), sample([0.8, 0.2], 1)):
            assert batch_ed(s, q) == pytest.approx(0.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty sample sequence"):
            minsum.evaluate_table(np.array([[0.5, 0.5]]), [])
