import numpy as np
import pytest

from rolemodel import chains
from rolemodel.errors import DimensionTooLarge
from rolemodel.rng import make_rng

from oracles import chain_joint, divergence_row, entropy_row, joint_expected_divergence


def small_model(seed, max_size=5):
    rng = make_rng(seed)
    nx, ny, nz = (int(rng.integers(2, max_size + 1)) for _ in range(3))
    return chains.random_chain(rng, nx, ny, nz), rng


class TestPosteriors:
    def test_identity_channel_is_one_hot(self):
        model = chains.ChainModel(
            px=np.array([0.3, 0.7]), ch1=np.eye(2), ch2=np.full((2, 2), 0.5)
        )
        assert np.allclose(chains.posterior_table_xy(model)[1], [0.0, 1.0])

    def test_useless_channel_returns_prior(self):
        px = np.array([0.2, 0.5, 0.3])
        model = chains.ChainModel(px=px, ch1=np.full((3, 4), 0.25), ch2=np.full((4, 2), 0.5))
        for row in chains.posterior_table_xy(model):
            assert np.allclose(row, px, atol=1e-15)

    def test_posterior_xy_vs_joint_normalization(self):
        model, _ = small_model(11)
        joint = chain_joint(model)
        table = chains.posterior_table_xy(model)
        for y in range(model.ch1.shape[1]):
            slice_xy = joint[:, y, :].sum(axis=1)
            expect = slice_xy / slice_xy.sum()
            assert np.allclose(table[y], expect, atol=1e-12)

    def test_posterior_xz_identity_ch2(self):
        rng = make_rng(12)
        model = chains.ChainModel(
            px=rng.dirichlet(np.ones(3)),
            ch1=rng.dirichlet(np.ones(4), size=3),
            ch2=np.eye(4),
        )
        assert np.allclose(
            chains.posterior_table_xz(model), chains.posterior_table_xy(model), atol=1e-14
        )

    def test_posterior_xz_uniform_ch2_returns_prior(self):
        rng = make_rng(13)
        px = rng.dirichlet(np.ones(3))
        model = chains.ChainModel(
            px=px, ch1=rng.dirichlet(np.ones(4), size=3), ch2=np.full((4, 5), 0.2)
        )
        for row in chains.posterior_table_xz(model):
            assert np.allclose(row, px, atol=1e-14)

    def test_posterior_xz_dual_path(self):
        # direct Bayes vs the mixture sum_y P(x|y) P(y|z)
        model, _ = small_model(14)
        joint = chain_joint(model)
        pyz = joint.sum(axis=0)
        pxgy, pxgz = chains.posterior_table_xy(model), chains.posterior_table_xz(model)
        for z in range(model.ch2.shape[1]):
            mix = np.zeros(model.px.size)
            pz = pyz[:, z].sum()
            for y in range(model.ch1.shape[1]):
                if pyz[y, z] > 0:
                    mix += pxgy[y] * pyz[y, z] / pz
            assert np.allclose(pxgz[z], mix, atol=1e-12)

    def test_zero_probability_conditioning(self):
        # P(Y=1) = 0: its row is the uniform placeholder, never a 0/0
        model = chains.ChainModel(
            px=np.array([1.0, 0.0]),
            ch1=np.array([[1.0, 0.0], [0.0, 1.0]]),
            ch2=np.full((2, 2), 0.5),
        )
        assert np.array_equal(chains.posterior_table_xy(model), [[1.0, 0.0], [0.5, 0.5]])

    def test_enumeration_cap(self):
        with pytest.raises(DimensionTooLarge):
            chains.ChainModel(
                px=np.full(101, 1 / 101),
                ch1=np.full((101, 101), 1 / 101),
                ch2=np.full((101, 101), 1 / 101),
            )


class TestExpectedDivergence:
    def test_optimum_hits_entropy_gap(self):
        model, _ = small_model(21)
        ed = chains.expected_divergence(model, chains.posterior_table_xz(model))
        assert ed == pytest.approx(chains.divergence_floor(model), abs=1e-12)

    def test_sufficient_statistic_gives_zero(self):
        rng = make_rng(22)
        model = chains.ChainModel(
            px=rng.dirichlet(np.ones(3)),
            ch1=rng.dirichlet(np.ones(4), size=3),
            ch2=np.eye(4),
        )
        ed = chains.expected_divergence(model, chains.posterior_table_xy(model))
        assert ed == pytest.approx(0.0, abs=1e-12)

    def test_matches_term_by_term_oracle(self):
        # right-hand side rebuilt term by term from posteriors of the normalised
        # joint and the exact-sum row oracles
        model, rng = small_model(23)
        q = chains.random_conditional(rng, model.ch2.shape[1], model.px.size)
        py, pz = model.py(), model.pz()
        joint = chain_joint(model)
        pxy, pxz = joint.sum(axis=2), joint.sum(axis=1)
        ny, nz = model.ch2.shape
        h_xy = sum(py[y] * entropy_row(pxy[:, y] / pxy[:, y].sum()) for y in range(ny))
        h_xz = sum(pz[z] * entropy_row(pxz[:, z] / pxz[:, z].sum()) for z in range(nz))
        ed_xz = sum(
            pz[z] * divergence_row(pxz[:, z] / pxz[:, z].sum(), q[z]) for z in range(nz)
        )
        assert chains.expected_divergence(model, q) == pytest.approx(
            h_xz - h_xy + ed_xz, abs=1e-12
        )
        assert chains.conditional_entropy_xy(model) == pytest.approx(h_xy, abs=1e-12)
        assert chains.conditional_entropy_xz(model) == pytest.approx(h_xz, abs=1e-12)

    def test_direct_joint_enumeration_oracle(self):
        model, rng = small_model(24)
        q = chains.random_conditional(rng, model.ch2.shape[1], model.px.size)
        assert chains.expected_divergence(model, q) == pytest.approx(
            joint_expected_divergence(chain_joint(model), q), abs=1e-12
        )


class TestMarkovIdentity:
    def test_residual_vanishes_at_optimum(self):
        model, _ = small_model(31)
        assert abs(chains.markov_identity_residual(model, chains.posterior_table_xz(model))) <= 1e-12

    def test_randomized_residuals(self):
        rng = make_rng(32)
        worst = 0.0
        for _ in range(50):
            nx, ny, nz = (int(rng.integers(2, 6)) for _ in range(3))
            model = chains.random_chain(rng, nx, ny, nz)
            q = chains.random_conditional(rng, nz, nx)
            worst = max(worst, abs(chains.markov_identity_residual(model, q)))
        assert worst <= 1e-10

    def test_lower_bound(self):
        rng = make_rng(33)
        for _ in range(50):
            nx, ny, nz = (int(rng.integers(2, 6)) for _ in range(3))
            model = chains.random_chain(rng, nx, ny, nz)
            q = chains.random_conditional(rng, nz, nx)
            assert chains.expected_divergence(model, q) >= chains.divergence_floor(model) - 1e-10

    def test_minimizer_uniqueness(self):
        rng = make_rng(34)
        for _ in range(50):
            nx, ny, nz = (int(rng.integers(2, 6)) for _ in range(3))
            model = chains.random_chain(rng, nx, ny, nz)
            q = chains.random_conditional(rng, nz, nx)
            opt = chains.posterior_table_xz(model)
            pz = model.pz()
            tv = max(
                0.5 * np.abs(q[z] - opt[z]).sum() for z in range(nz) if pz[z] > 0
            )
            if tv > 1e-3:
                assert chains.expected_divergence(model, q) > chains.expected_divergence(
                    model, opt
                ) + 1e-9

    def test_data_processing(self):
        for seed in range(40, 60):
            model, _ = small_model(seed)
            assert chains.conditional_entropy_xz(model) >= chains.conditional_entropy_xy(model) - 1e-12

    def test_convexity_spot_check(self):
        model, rng = small_model(61)
        for _ in range(20):
            q1 = chains.random_conditional(rng, model.ch2.shape[1], model.px.size)
            q2 = chains.random_conditional(rng, model.ch2.shape[1], model.px.size)
            t = float(rng.uniform(0.05, 0.95))
            mixed = chains.expected_divergence(model, t * q1 + (1 - t) * q2)
            bound = t * chains.expected_divergence(model, q1) + (1 - t) * chains.expected_divergence(model, q2)
            assert mixed <= bound + 1e-12


class TestNonMarkovIdentity:
    def test_markov_factorizable_joint(self):
        model, rng = small_model(71)
        j = chain_joint(model)
        joint = chains.GeneralJoint(j / j.sum())
        q = chains.random_conditional(rng, model.ch2.shape[1], model.px.size)
        assert abs(chains.nonmarkov_identity_residual(joint, q)) <= 1e-10
        # for a Markov joint the left side IS the expected divergence
        assert chains.nonmarkov_lhs(joint, q) == pytest.approx(
            chains.expected_divergence(model, q), abs=1e-10
        )

    def test_random_joints(self):
        rng = make_rng(72)
        worst = 0.0
        for _ in range(20):
            nx, ny, nz = (int(rng.integers(2, 5)) for _ in range(3))
            joint = chains.random_joint(rng, nx, ny, nz)
            q = chains.random_conditional(rng, nz, nx)
            worst = max(worst, abs(chains.nonmarkov_identity_residual(joint, q)))
        assert worst <= 1e-10

    def test_nonmarkov_witness(self):
        # on a non-Markov joint the left side is NOT ED(P_{X|Y} || Q)
        rng = make_rng(73)
        joint = chains.random_joint(rng, 3, 3, 3)
        q = chains.random_conditional(rng, 3, 3)
        lhs = chains.nonmarkov_lhs(joint, q)
        ed = joint_expected_divergence(joint.pxyz, q)
        assert abs(chains.nonmarkov_identity_residual(joint, q)) <= 1e-10
        assert abs(lhs - ed) > 0.01

    def test_deterministic_chain_all_zero(self):
        # X = Y = Z uniform over 3 symbols, q one-hot correct
        p = np.zeros((3, 3, 3))
        for s in range(3):
            p[s, s, s] = 1 / 3
        joint = chains.GeneralJoint(p)
        q = np.eye(3)
        assert chains.nonmarkov_lhs(joint, q) == pytest.approx(0.0, abs=1e-12)
        assert abs(chains.nonmarkov_identity_residual(joint, q)) <= 1e-12

