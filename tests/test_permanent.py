import hashlib

import numpy as np
import pytest

from rolemodel.errors import DimensionTooLarge
from rolemodel.permanent import head_tail_split, minor_permanents, minor_permanents_split
from rolemodel.rng import make_rng
from rolemodel.sudoku import constraint_approx, constraint_exact

from oracles import PERMANENT_MAX_N
from oracles import minor_permanents as brute_minors
from oracles import permanent as brute_permanent


def close(a, b, rel=1e-10, abs_tol=1e-13):
    return np.all(np.abs(a - b) <= rel * np.maximum(np.abs(a), np.abs(b)) + abs_tol)


def random_sparse(rng, n, nnz=3):
    a = np.zeros((n, n))
    for r in range(n):
        cols = rng.choice(n, size=nnz, replace=False)
        a[r, cols] = rng.random(nnz)
    return a


class TestBruteForce:
    """The brute-force oracle in ``tests/oracles.py``, the reference for the kernel."""

    def test_identity(self):
        for n in (1, 3, 6):
            assert brute_permanent(np.eye(n)) == 1.0

    def test_all_ones_3x3(self):
        assert brute_permanent(np.ones((3, 3))) == 6.0

    def test_2x2_closed_form(self):
        assert brute_permanent([[1.0, 2.0], [3.0, 4.0]]) == 10.0

    def test_cap(self):
        with pytest.raises(ValueError):
            brute_permanent(np.ones((PERMANENT_MAX_N + 1, PERMANENT_MAX_N + 1)))


class TestUniformRows:
    """PT of :func:`minor_permanents_split`: the closed form of uniform-row minors."""

    @staticmethod
    def tail_minors(tails):
        n = len(tails)
        return minor_permanents_split(np.zeros((n, n)), np.asarray(tails, dtype=float))[1]

    def test_unit_constants(self):
        assert np.array_equal(self.tail_minors(np.ones(5)), np.full(5, 24.0))

    def test_zero_constant_kills(self):
        # every minor that keeps the zero row is exactly 0; the one without it is not
        pt = self.tail_minors([0.3, 0.0, 0.2])
        assert pt[0] == 0.0 and pt[2] == 0.0
        assert pt[1] == pytest.approx(2 * 0.3 * 0.2, rel=1e-15)

    def test_vs_oracle_on_explicit_matrix(self):
        rng = make_rng(304)
        for _ in range(100):
            t = rng.random(7)
            explicit = np.repeat(t[:, None], 7, axis=1)
            assert close(self.tail_minors(t)[:, None], brute_minors(explicit))


class TestSparse:
    """The kernel on inputs with few nonzeros per row, like the approximate node's head."""

    def test_permutation_matrix(self):
        # minor (i, j) of a permutation matrix is 1 where the matrix is 1, else 0
        perm = np.eye(8)[[3, 1, 0, 2, 7, 6, 4, 5]]
        assert np.array_equal(minor_permanents(perm), perm)

    def test_zero_row(self):
        a = np.ones((4, 4))
        a[2] = 0.0
        expected = np.zeros((4, 4))
        expected[2] = 6.0  # the 3x3 all-ones minors
        assert np.array_equal(minor_permanents(a), expected)

    def test_vs_oracle_on_sparse_inputs(self):
        rng = make_rng(305)
        stack = np.stack([random_sparse(rng, 8) for _ in range(100)])
        for a, minors in zip(stack, minor_permanents(stack)):
            assert close(minors, brute_minors(a))


class TestBatchedMinors:
    def test_vs_scalar_oracle(self):
        rng = make_rng(307)
        for n in (2, 4, 6, 9):
            a = rng.random((2, n, n))
            batch = minor_permanents(a)
            assert batch.shape == (2, n, n)
            for b in range(2):
                for i in range(n):
                    for j in range(n):
                        ref = brute_permanent(np.delete(np.delete(a[b], i, 0), j, 1))
                        assert close(batch[b, i, j], ref)

    @pytest.mark.parametrize("n", [2, 4, 9, 12])
    def test_permuting_rows_and_columns_permutes_the_minors(self, n):
        rng = make_rng(322, n)
        rows, cols = rng.permutation(n), rng.permutation(n)

        def permuted(stack):
            return stack[:, rows][:, :, cols]

        # Entries in {0, 1/4, 1/2, 3/4} keep every product and partial sum exact
        # in float64 at n <= 12 (below 11! in size, 22 fractional bits), so the
        # minors come out permuted bit for bit.
        dyadic = rng.integers(0, 4, size=(3, n, n)) / 4
        assert np.array_equal(minor_permanents(permuted(dyadic)),
                              permuted(minor_permanents(dyadic)))
        # On real entries the DP's summation order follows the row and column
        # order, so the permuted minors may differ in rounding only.
        real = rng.random((3, n, n))
        assert close(minor_permanents(permuted(real)), permuted(minor_permanents(real)),
                     rel=1e-14, abs_tol=0.0)

    # sha256 of the little-endian float64 bytes of minor_permanents on a fixed
    # row-normalised (B, n, n) batch or its head_tail_split head. The kernel only
    # adds and multiplies, so the digests hold on every IEEE-754 platform; a
    # change to them is a numerical change and must state its bound. The n = 9
    # and 12 digests were recorded when every DP level first summed over axis 0.
    MINOR_DIGESTS = {
        (4, 1, "dense"): "181b30ddd6e0f6fa2f32b6c3b14175e7e88ce0953dbcd5ee7564f14de6a2bb98",
        (4, 1, "head"): "7b7b93af83c8d7e8dce3c556ab8726a1ad755ab7659cb2452066e4c7c3208393",
        (4, 27, "dense"): "0e3f118f8c232eeb13d1b56e75d1e509641644ffa8ca25cc402274ec8e4bbdf1",
        (4, 27, "head"): "764c857573c8cecef879d40eb8f1bb83115859ccdad3d59a2f1eaa4d2351e9ee",
        (9, 1, "dense"): "b4fb647bb94cd1a3d044c8d732e2349460d8c5f92123931ec415d0a8cac4d94d",
        (9, 1, "head"): "9ae4da00aa82fb0790cba5a9058435d8a15ce6c6c7e475897a75dbb50a920a15",
        (9, 27, "dense"): "da338c33c83c759bf59f582d70a378b8f81edfcfb78c1a3b6c1a6b834f194fe9",
        (9, 27, "head"): "000a0a65afff721dba4f1cdbb8d4e001c748a8c2f9e981457607a5ee58c5e10a",
        (12, 1, "dense"): "908a555188c60a6d03e9cd4e50017b5999d8b60b3c33606fcd5e67ccc778c216",
        (12, 1, "head"): "c66e5aa137f8c8a9c82855b9cf8c8a1ff2ae140901c1553599e515f90f676b4d",
        (12, 27, "dense"): "e5b5c3a8cfdabaad65a080a256d72c89886af16faba96d16ed23426bd61b7ef0",
        (12, 27, "head"): "d75e5647a54eee081985ba5443404083531d14ea43183e556de38277bb3b4f10",
        # the batch sizes of an EXIT point (40 trials) and of an alpha-training harvest
        (9, 40, "dense"): "d75637becf4e84714590c2644d52e76e52da874fcb85a67aefdae46d78713420",
        (9, 40, "head"): "e660bca9097e9a3a3878c525a7fcb72d2f7cb95eaffff077bfe7b159e403e220",
        (9, 64, "dense"): "92aa9b47f4e771464aec15291d64233f82886219a7cc9ca5a33c583e5e952932",
        (9, 64, "head"): "0fce55f10cf00768754df3f01ea2aa88709c38a6da795a8a471a28573a067482",
    }

    @pytest.mark.parametrize("n,batch,kind", sorted(MINOR_DIGESTS))
    def test_bits_are_pinned(self, n, batch, kind):
        m = make_rng(320, n, batch).random((batch, n, n))
        m /= m.sum(axis=-1, keepdims=True)
        if kind == "head":
            m, _ = head_tail_split(m, 3)
        out = minor_permanents(m)
        digest = hashlib.sha256(out.astype("<f8").tobytes()).hexdigest()
        assert digest == self.MINOR_DIGESTS[n, batch, kind]

    @pytest.mark.parametrize("shape", [(9, 9), (1, 9, 9), (27, 9, 9), (5, 4, 4)])
    def test_output_is_c_contiguous_in_the_input_shape(self, shape):
        # callers sum its rows over j, and numpy sums a strided last axis in
        # another order than a contiguous one
        out = minor_permanents(make_rng(321).random(shape))
        assert out.shape == shape
        assert out.flags.c_contiguous

    @pytest.mark.parametrize("shape", [(9, 9), (27, 9, 9)])
    def test_minors_never_alias_the_workspace(self, shape):
        # at B = 1 the (n, n, 1) minors transposed to (1, n, n) are already
        # contiguous, so a kept read-out buffer would come back as a view
        rng = make_rng(322)
        kept = minor_permanents(rng.random(shape))
        bits = kept.tobytes()
        again = minor_permanents(rng.random(shape))
        assert kept.tobytes() == bits
        assert again.tobytes() != bits
        assert not np.shares_memory(kept, again)

    @pytest.mark.parametrize("node", ["exact", "approx"])
    @pytest.mark.parametrize("shape", [(9, 9), (27, 9, 9)])
    def test_node_rows_never_alias_a_later_call_or_the_inputs(self, shape, node):
        # both nodes normalize or mix the kernel's fresh minors in place, so
        # their rows must be that fresh array and nothing the caller holds
        call = constraint_exact if node == "exact" else lambda m: constraint_approx(m, 0.5)[0]
        rng = make_rng(323)
        first, second = rng.random(shape), rng.random(shape)
        inputs = first.tobytes(), second.tobytes()
        kept = call(first)
        bits = kept.tobytes()
        again = call(second)
        assert kept.tobytes() == bits
        assert again.tobytes() != bits
        assert (first.tobytes(), second.tobytes()) == inputs
        for rows in (kept, again):
            for other in (first, second):
                assert not np.shares_memory(rows, other)
        assert not np.shares_memory(kept, again)

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
        head, tails = head_tail_split(rows, 3)
        ph, pt = minor_permanents_split(head, tails)
        tmat = np.repeat(tails[:, None], 7, axis=1)
        assert pt.shape == (7,)
        for i in range(7):
            for j in range(7):
                ref_h = brute_permanent(np.delete(np.delete(head, i, 0), j, 1))
                ref_t = brute_permanent(np.delete(np.delete(tmat, i, 0), j, 1))
                assert close(ph[i, j], ref_h)
                assert close(pt[i], ref_t)


class TestHeadTailSplit:
    def test_worked_example(self):
        # row: three marked heads, six tail entries summing to 0.35
        tail_part = np.full(6, 0.35 / 6)
        row = np.concatenate([[0.3, 0.2, 0.15], tail_part])
        m = np.tile(row, (9, 1))
        head, tails = head_tail_split(m, 3)
        t = 0.35 / 6
        assert tails[0] == pytest.approx(t, abs=1e-15)
        assert head[0, 0] == pytest.approx(0.3 - t, abs=1e-15)
        assert head[0, 1] == pytest.approx(0.2 - t, abs=1e-15)
        assert head[0, 2] == pytest.approx(0.15 - t, abs=1e-15)
        assert np.all(head[0, 3:] == 0.0)

    def test_uniform_row_degenerates_to_pure_tail(self):
        m = np.full((6, 6), 1 / 6)
        head, tails = head_tail_split(m, 3)
        assert np.allclose(tails, 1 / 6, atol=1e-15)
        assert np.all(head == 0.0)

    def test_reconstruction_preserves_row_sums(self):
        rng = make_rng(309)
        for _ in range(30):
            m = rng.dirichlet(np.ones(9), size=9)
            head, tails = head_tail_split(m, 3)
            rec = head + tails[..., None]
            assert np.max(np.abs(rec.sum(axis=1) - m.sum(axis=1))) <= 1e-12
            assert np.all(rec >= 0.0)
            assert np.all(head >= 0.0)
            assert np.max((head != 0).sum(axis=1)) <= 3

    def test_tie_break_keeps_lowest_columns(self):
        row = np.full(5, 0.2)
        m = np.tile(row, (5, 1))
        head, tails = head_tail_split(m, 2)
        # all values tie; heads must come from columns 0 and 1 (then cancel to 0)
        assert np.all(head == 0.0)
        assert np.allclose(tails, 0.2)

    def test_head_size_bounds(self):
        with pytest.raises(ValueError):
            head_tail_split(np.full((4, 4), 0.25), 4)


def approx_minor(split, i, j, alpha):
    """alpha * perm(H minor) + (1 - alpha) * perm(T minor) for the (i, j) minor of a (head, tails) split."""
    ph, pt = minor_permanents_split(*split)
    return float(alpha * ph[i, j] + (1.0 - alpha) * pt[i])


class TestApproxMinor:
    def test_alpha_endpoints(self):
        rng = make_rng(310)
        m = rng.dirichlet(np.ones(6), size=6)
        split = head, tails = head_tail_split(m, 3)
        for i, j in ((0, 0), (2, 4), (5, 5)):
            ph = brute_permanent(np.delete(np.delete(head, i, 0), j, 1))
            pt = brute_permanent(np.repeat(np.delete(tails, i)[:, None], 5, axis=1))
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
            split = head, tails = head_tail_split(m, 3)
            i, j = int(rng.integers(9)), int(rng.integers(9))
            approx = 2.0 * approx_minor(split, i, j, 0.5)
            rec = head + tails[..., None]
            exact = brute_permanent(np.delete(np.delete(rec, i, 0), j, 1))
            errs.append(abs(approx - exact) / exact)
        assert float(np.median(errs)) > 0.10
