import hashlib

import numpy as np
import pytest

from rolemodel.errors import DimensionTooLarge
from rolemodel.permanent import (
    head_tail_split,
    minor_permanents,
    minor_permanents_split,
    permanent_bruteforce,
    permanent_ryser,
    permanent_sparse,
    permanent_uniform_rows,
)
from rolemodel.rng import make_rng


def close(a, b, rel=1e-10, abs_tol=1e-13):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


def random_sparse(rng, n, nnz=3):
    a = np.zeros((n, n))
    for r in range(n):
        cols = rng.choice(n, size=nnz, replace=False)
        a[r, cols] = rng.random(nnz)
    return a


class TestBruteForce:
    def test_identity(self):
        for n in (1, 3, 6):
            assert permanent_bruteforce(np.eye(n)) == 1.0

    def test_all_ones_3x3(self):
        assert permanent_bruteforce(np.ones((3, 3))) == 6.0

    def test_2x2_closed_form(self):
        assert permanent_bruteforce([[1.0, 2.0], [3.0, 4.0]]) == 10.0

    def test_cap(self):
        with pytest.raises(DimensionTooLarge):
            permanent_bruteforce(np.ones((11, 11)))


class TestRyser:
    def test_identity_8(self):
        assert permanent_ryser(np.eye(8)) == pytest.approx(1.0, abs=1e-12)

    def test_all_ones_8_is_factorial(self):
        assert permanent_ryser(np.ones((8, 8))) == 40320.0

    def test_vs_bruteforce(self):
        rng = make_rng(301)
        for _ in range(100):
            a = rng.random((6, 6))
            assert close(permanent_ryser(a), permanent_bruteforce(a))

    def test_row_and_column_permutation_invariance(self):
        rng = make_rng(302)
        a = rng.random((7, 7))
        base = permanent_ryser(a)
        for _ in range(5):
            assert close(permanent_ryser(a[rng.permutation(7)]), base)
            assert close(permanent_ryser(a[:, rng.permutation(7)]), base)

    def test_multilinear_in_rows(self):
        rng = make_rng(303)
        a = rng.random((6, 6))
        base = permanent_ryser(a)
        for c in (0.0, 0.25, 3.0):
            scaled = a.copy()
            scaled[2] *= c
            assert permanent_ryser(scaled) == pytest.approx(c * base, rel=1e-12, abs=1e-12)

    def test_cap(self):
        with pytest.raises(DimensionTooLarge):
            permanent_ryser(np.ones((17, 17)))


class TestUniformRows:
    def test_unit_constants(self):
        assert permanent_uniform_rows(np.ones(4)) == 24.0

    def test_zero_constant_kills(self):
        assert permanent_uniform_rows([0.3, 0.0, 0.2]) == 0.0

    def test_vs_ryser_on_explicit_matrix(self):
        rng = make_rng(304)
        for _ in range(100):
            t = rng.random(7)
            explicit = np.repeat(t[:, None], 7, axis=1)
            assert close(permanent_uniform_rows(t), permanent_ryser(explicit))


class TestSparse:
    def test_permutation_matrix(self):
        perm = np.eye(8)[[3, 1, 0, 2, 7, 6, 4, 5]]
        assert permanent_sparse(perm) == 1.0

    def test_zero_row(self):
        a = np.ones((4, 4))
        a[2] = 0.0
        assert permanent_sparse(a) == 0.0

    def test_vs_ryser_on_sparse_inputs(self):
        rng = make_rng(305)
        for _ in range(100):
            a = random_sparse(rng, 8)
            assert close(permanent_sparse(a), permanent_ryser(a))

    def test_dense_agreement(self):
        rng = make_rng(306)
        for n in range(2, 8):
            a = rng.random((n, n))
            assert close(permanent_sparse(a), permanent_bruteforce(a))


class TestBatchedMinors:
    def test_vs_scalar_ryser(self):
        rng = make_rng(307)
        for n in (2, 4, 6, 9):
            a = rng.random((2, n, n))
            batch = minor_permanents(a)
            assert batch.shape == (2, n, n)
            for b in range(2):
                for i in range(n):
                    for j in range(n):
                        ref = permanent_ryser(np.delete(np.delete(a[b], i, 0), j, 1))
                        assert close(batch[b, i, j], ref)

    # sha256 of the little-endian float64 bytes of minor_permanents on a fixed
    # row-normalised (B, n, n) batch or its head_tail_split head. The kernel only
    # adds and multiplies, so the digests hold on every IEEE-754 platform; a
    # change to them is a numerical change and must state its bound.
    MINOR_DIGESTS = {
        (4, 1, "dense"): "181b30ddd6e0f6fa2f32b6c3b14175e7e88ce0953dbcd5ee7564f14de6a2bb98",
        (4, 1, "head"): "7b7b93af83c8d7e8dce3c556ab8726a1ad755ab7659cb2452066e4c7c3208393",
        (4, 27, "dense"): "0e3f118f8c232eeb13d1b56e75d1e509641644ffa8ca25cc402274ec8e4bbdf1",
        (4, 27, "head"): "764c857573c8cecef879d40eb8f1bb83115859ccdad3d59a2f1eaa4d2351e9ee",
        (9, 1, "dense"): "27af9e47b6e5f2e9f90010f28d6a911a050a901ca3e6812c970bd229c7ead27d",
        (9, 1, "head"): "9ae4da00aa82fb0790cba5a9058435d8a15ce6c6c7e475897a75dbb50a920a15",
        (9, 27, "dense"): "e84641925c4c43c7d4d57404bca0b9795326fc9dc3b3523e21666ef929980412",
        (9, 27, "head"): "9585f7a0a67a0366340e40a5525c52ac55945acdd1553ee41a5b167ecaf425f2",
        (12, 1, "dense"): "0fc5d6a1dd6ed25240ccae73b0e552c1037e1df1761339456dc17d05063b6c52",
        (12, 1, "head"): "c66e5aa137f8c8a9c82855b9cf8c8a1ff2ae140901c1553599e515f90f676b4d",
        (12, 27, "dense"): "ca79bc04f841074ac0c41b050c16ad476511673e0b926eda02f2a1327c309566",
        (12, 27, "head"): "d04658263935c015ab861ca62380e444486064bb4b449cc22d3bdd6864e59828",
    }

    @pytest.mark.parametrize("n,batch,kind", sorted(MINOR_DIGESTS))
    def test_bits_are_pinned(self, n, batch, kind):
        m = make_rng(320, n, batch).random((batch, n, n))
        m /= m.sum(axis=-1, keepdims=True)
        if kind == "head":
            m = head_tail_split(m).head
        out = minor_permanents(m)
        digest = hashlib.sha256(out.astype("<f8").tobytes()).hexdigest()
        assert digest == self.MINOR_DIGESTS[n, batch, kind]

    def test_shape_and_size_checks(self):
        with pytest.raises(ValueError):
            minor_permanents(np.ones((1, 1)))
        with pytest.raises(ValueError):
            minor_permanents(np.ones((2, 3)))
        with pytest.raises(ValueError):
            minor_permanents(np.ones((1, 2, 3, 3)))
        with pytest.raises(DimensionTooLarge):
            minor_permanents(np.ones((21, 21)))

    def test_split_minors_vs_scalar_kernels(self):
        rng = make_rng(308)
        rows = rng.dirichlet(np.ones(7), size=7)
        split = head_tail_split(rows, 3)
        ph, pt = minor_permanents_split(split)
        tmat = np.repeat(split.tail_values[:, None], 7, axis=1)
        for i in range(7):
            for j in range(7):
                ref_h = permanent_ryser(np.delete(np.delete(split.head, i, 0), j, 1))
                ref_t = permanent_ryser(np.delete(np.delete(tmat, i, 0), j, 1))
                assert close(ph[i, j], ref_h)
                assert close(pt[i, j], ref_t)


class TestHeadTailSplit:
    def test_worked_example(self):
        # row: three marked heads, six tail entries summing to 0.35
        tail_part = np.full(6, 0.35 / 6)
        row = np.concatenate([[0.3, 0.2, 0.15], tail_part])
        m = np.tile(row, (9, 1))
        split = head_tail_split(m, 3)
        t = 0.35 / 6
        assert split.tail_values[0] == pytest.approx(t, abs=1e-15)
        assert split.head[0, 0] == pytest.approx(0.3 - t, abs=1e-15)
        assert split.head[0, 1] == pytest.approx(0.2 - t, abs=1e-15)
        assert split.head[0, 2] == pytest.approx(0.15 - t, abs=1e-15)
        assert np.all(split.head[0, 3:] == 0.0)

    def test_uniform_row_degenerates_to_pure_tail(self):
        m = np.full((6, 6), 1 / 6)
        split = head_tail_split(m, 3)
        assert np.allclose(split.tail_values, 1 / 6, atol=1e-15)
        assert np.all(split.head == 0.0)

    def test_reconstruction_preserves_row_sums(self):
        rng = make_rng(309)
        for _ in range(30):
            m = rng.dirichlet(np.ones(9), size=9)
            split = head_tail_split(m, 3)
            rec = split.head + split.tail_values[..., None]
            assert np.max(np.abs(rec.sum(axis=1) - m.sum(axis=1))) <= 1e-12
            assert np.all(rec >= 0.0)
            assert np.all(split.head >= 0.0)
            assert np.max((split.head != 0).sum(axis=1)) <= 3

    def test_tie_break_keeps_lowest_columns(self):
        row = np.full(5, 0.2)
        m = np.tile(row, (5, 1))
        split = head_tail_split(m, 2)
        # all values tie; heads must come from columns 0 and 1 (then cancel to 0)
        assert np.all(split.head == 0.0)
        assert np.allclose(split.tail_values, 0.2)

    def test_head_size_bounds(self):
        with pytest.raises(ValueError):
            head_tail_split(np.full((4, 4), 0.25), 4)


def approx_minor(split, i, j, alpha):
    """alpha * perm(H minor) + (1 - alpha) * perm(T minor) for the (i, j) minor."""
    ph, pt = minor_permanents_split(split)
    return float(alpha * ph[i, j] + (1.0 - alpha) * pt[i, j])


class TestApproxMinor:
    def test_alpha_endpoints(self):
        rng = make_rng(310)
        m = rng.dirichlet(np.ones(6), size=6)
        split = head_tail_split(m, 3)
        for i, j in ((0, 0), (2, 4), (5, 5)):
            ph = permanent_sparse(np.delete(np.delete(split.head, i, 0), j, 1))
            pt = permanent_uniform_rows(np.delete(split.tail_values, i))
            assert approx_minor(split, i, j, 1.0) == pytest.approx(ph, rel=1e-12, abs=1e-15)
            assert approx_minor(split, i, j, 0.0) == pytest.approx(pt, rel=1e-12, abs=1e-15)
            mid = approx_minor(split, i, j, 0.5)
            assert mid == pytest.approx(0.5 * ph + 0.5 * pt, rel=1e-12, abs=1e-15)

    def test_sum_of_permanents_is_a_poor_approximation(self):
        # characterization, not a correctness bound: the relative error of
        # perm(H) + perm(T) against perm(M') is large on random matrices
        rng = make_rng(311)
        errs = []
        for _ in range(40):
            m = rng.dirichlet(np.ones(9), size=9)
            split = head_tail_split(m, 3)
            i, j = int(rng.integers(9)), int(rng.integers(9))
            approx = 2.0 * approx_minor(split, i, j, 0.5)
            rec = split.head + split.tail_values[..., None]
            exact = permanent_ryser(np.delete(np.delete(rec, i, 0), j, 1))
            errs.append(abs(approx - exact) / exact)
        assert float(np.median(errs)) > 0.10
