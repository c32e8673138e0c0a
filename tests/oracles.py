"""Independent reference implementations used only to check the package.

Nothing here may share code with the paths under test: the convex solver
re-derives the per-bin optimum by projected gradient descent, the
permanent and constraint-node oracles enumerate permutations explicitly
(and import nothing from ``rolemodel``), the min-sum
oracles evaluate the whole-array formulas in one shot, in the all-+1 frame
and branch by branch, and the
divergence oracles sum per-sample terms exactly with ``math.fsum``.
"""

import functools
import math
from itertools import permutations

import numpy as np

LN2 = np.log(2.0)


def simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u * idx > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def projected_gradient_table(posteriors: np.ndarray, bins: np.ndarray,
                             num_bins: int, iters: int = 100_000,
                             step0: float = 0.5) -> np.ndarray:
    """Minimize (1/N) sum_k D(p_k || Q[bin_k]) over row-stochastic Q.

    Projected gradient descent with diminishing steps on each bin's
    simplex; the guard floor keeps the log-gradient finite when the
    projection lands on a face.
    """
    n, q = posteriors.shape
    groups = [posteriors[bins == z] for z in range(num_bins)]
    table = np.full((num_bins, q), 1.0 / q)
    for t in range(1, iters + 1):
        step = step0 / np.sqrt(t)
        for z, group in enumerate(groups):
            if group.shape[0] == 0:
                continue
            grad = -(group / table[z]).sum(axis=0) / (n * LN2)
            row = simplex_project(table[z] - step * grad)
            row = np.maximum(row, 1e-12)
            table[z] = row / row.sum()
    return table


def empirical_objective(posteriors: np.ndarray, bins: np.ndarray,
                        table: np.ndarray) -> float:
    """The objective above, evaluated sample by sample and summed exactly (bits)."""
    terms = [p[x] * (math.log2(p[x]) - math.log2(table[b][x]))
             for p, b in zip(posteriors.tolist(), bins.tolist())
             for x in range(len(p)) if p[x] > 0]
    return math.fsum(terms) / posteriors.shape[0]


def minsum_baseline_objective(posteriors: np.ndarray, minsum_llrs: np.ndarray,
                              floor: float) -> float:
    """(1/N) sum_k D(p_k || r_k) in bits, with r_k the min-sum LLR's pmf
    floored at ``floor`` and renormalized; summed exactly."""
    terms = []
    for p, l in zip(posteriors.tolist(), minsum_llrs.tolist()):
        z = math.exp(-abs(l))
        r = [1.0 / (1.0 + z), z / (1.0 + z)]
        r = [max(v, floor) for v in (r if l >= 0 else r[::-1])]
        r = [v / (r[0] + r[1]) for v in r]
        terms += [p[x] * (math.log2(p[x]) - math.log2(r[x])) for x in range(2) if p[x] > 0]
    return math.fsum(terms) / posteriors.shape[0]


def entropy_row(p) -> float:
    """Shannon entropy of one pmf in bits (0 log 0 = 0), summed exactly."""
    return -math.fsum(x * math.log2(x) for x in p if x > 0)


def divergence_row(p, q) -> float:
    """D(p || q) of one row pair in bits (terms with p = 0 drop out), summed exactly."""
    return math.fsum(x * (math.log2(x) - math.log2(y)) for x, y in zip(p, q) if x > 0)


def tanh_rule_rows(llrs: np.ndarray, saturation: float = 38.0) -> np.ndarray:
    """Row-wise tanh-rule product as one reduction over axis 1, shape (N, d) -> (N,)."""
    ceil = np.nextafter(1.0, 0.0)
    l = np.clip(np.asarray(llrs, dtype=float), -saturation, saturation)
    return np.clip(np.prod(np.tanh(l / 2.0), axis=1), -ceil, ceil)


def llrs_to_dists(llrs) -> np.ndarray:
    """Binary pmf rows (p0, p1) for finite ``llr = ln(p0/p1)``: (N,) -> (N, 2).

    The larger entry is 1 / (1 + e^-|l|), the smaller e^-|l| / (1 + e^-|l|);
    symbol 0 gets the larger where l >= 0.
    """
    l = np.asarray(llrs, dtype=float)
    small = np.exp(-np.abs(l))
    big = 1.0 + small
    small /= big
    np.divide(1.0, big, out=big)
    pos = l >= 0
    return np.stack([np.where(pos, big, small), np.where(pos, small, big)], axis=-1)


def _check_node_rows(llrs, flips, truths, num_bins, max_magnitude):
    """(posteriors, bins, truths, minsum_llrs) of LLR rows (n, d) whose tanh
    product and min-sum sign are negated where ``flips`` is 1.

    The posterior is ((1 + P) / 2, (1 - P) / 2) of the clipped product P.
    """
    product = (1 - 2 * flips) * tanh_rule_rows(llrs)
    posteriors = np.stack([(1.0 + product) / 2.0, (1.0 - product) / 2.0], axis=-1)
    mags = np.min(np.abs(llrs), axis=1)
    signs = np.where((np.sum(llrs < 0, axis=1) + flips) % 2 == 1, -1, 1)
    idx = np.minimum(mags / (max_magnitude / num_bins), num_bins - 1).astype(int)
    bins = np.where(signs < 0, idx + num_bins, idx)
    return posteriors, bins, truths, signs * mags


def minsum_batch(d: int, sigmas, n: int, seed: int, num_bins: int = 64,
                 max_magnitude: float = 25.0):
    """Check-node training batch from whole arrays in one shot.

    Draws all n*d normals from the Philox stream keyed by ``seed`` with
    counter labels (1, 0), and the n parity bits, bit k % 64 of word k // 64
    (least significant first), from the raw words of labels (1, 1). Every
    branch LLR is taken in the all-+1 frame, 2 * (1 + sigma n) / sigma^2,
    and each parity bit, the truth, negates its trial's tanh product and
    min-sum sign. Returns (posteriors, bins, truths, minsum_llrs).
    """
    sig = np.asarray(sigmas, dtype=float)
    normals = np.random.Generator(np.random.Philox(counter=[1, 0, 0, 0], key=seed))
    noise = normals.standard_normal((n, d))
    words = np.random.Philox(counter=[1, 1, 0, 0], key=seed).random_raw(-(-n // 64)).tolist()
    truths = np.array([(words[k // 64] >> (k % 64)) & 1 for k in range(n)], dtype=np.int64)
    llrs = 2.0 * (1.0 + sig * noise) / sig**2
    return _check_node_rows(llrs, truths, truths, num_bins, max_magnitude)


def minsum_branch_rows(bits, noise, sigmas, num_bins: int = 64, max_magnitude: float = 25.0):
    """The trials of branch bits ``bits`` (n, d) and branch noise ``noise`` (n, d),
    by the per-branch formula.

    Branch j is sent as 1 - 2 * bit and received as y = (1 - 2 * bit) +
    sigma_j * noise, with LLR 2 * y / sigma_j^2; the truth is the XOR of the
    bits. Returns (posteriors, bins, truths, minsum_llrs), the posterior
    taken from the tanh product as in :func:`minsum_batch`.
    """
    sig = np.asarray(sigmas, dtype=float)
    bits = np.asarray(bits, dtype=np.int64)
    llrs = 2.0 * ((1.0 - 2.0 * bits) + sig * noise) / sig**2
    truths = np.bitwise_xor.reduce(bits, axis=1)
    return _check_node_rows(llrs, np.zeros_like(truths), truths, num_bins, max_magnitude)


#: Largest n the brute-force permanent takes: its n! x n permutation table is 26 MB at n = 9.
PERMANENT_MAX_N = 9


@functools.lru_cache(maxsize=None)
def _permutation_table(n: int) -> np.ndarray:
    """Every permutation of range(n), one per row: (n!, n)."""
    return np.array(list(permutations(range(n))), dtype=np.intp).reshape(math.factorial(n), n)


def permanent(m) -> float:
    """sum over every permutation s of prod_i m[i, s(i)]; 1 for the empty matrix.

    For non-negative entries every term is non-negative, so the sum keeps
    full relative accuracy, also for near-permutation matrices.
    """
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or n > PERMANENT_MAX_N:
        raise ValueError(f"square matrix with n <= {PERMANENT_MAX_N} required, got {a.shape}")
    return float(a[np.arange(n), _permutation_table(n)].prod(axis=1).sum())


def minor_permanents(m) -> np.ndarray:
    """Matrix of perm(m without row i and column j), each by :func:`permanent`."""
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    return np.array([[permanent(np.delete(np.delete(a, i, 0), j, 1)) for j in range(n)]
                     for i in range(n)])


def head_tail_split(m, h: int) -> tuple[np.ndarray, np.ndarray]:
    """``(head, tails)`` of an (n, n) or (B, n, n) input, by a Python sort of each row.

    A row's columns are ordered by (-value, column). The tail constant is
    the sum of the last n - h values in that order, over n - h; the sum is
    numpy's over a 1-D array, since its grouping of more than 7 terms is
    part of the bits. The first h columns keep max(value - tail, 0), the
    others 0.
    """
    a = np.asarray(m, dtype=float)
    n = a.shape[-1]
    rows = a.reshape(-1, n).tolist()
    head = np.zeros((len(rows), n))
    tails = np.empty(len(rows))
    for r, row in enumerate(rows):
        order = sorted(range(n), key=lambda j: (-row[j], j))
        tails[r] = np.sum(np.array([row[j] for j in order[h:]])) / (n - h)
        for j in order[:h]:
            head[r, j] = max(row[j] - tails[r], 0.0)
    return head.reshape(a.shape), tails.reshape(a.shape[:-1])


def constraint_marginals(m: np.ndarray) -> np.ndarray:
    """Extrinsic symbol marginals of one all-different constraint.

    Enumerates every permutation assignment; the weight seen by variable i
    is the product of the OTHER rows' message entries, accumulated onto
    (i, assigned symbol) and row normalized.
    """
    n = m.shape[0]
    out = np.zeros((n, n))
    for perm in permutations(range(n)):
        factors = np.array([m[r, perm[r]] for r in range(n)])
        full = factors.prod()
        for i in range(n):
            others = full / factors[i] if factors[i] != 0 else np.prod(
                [factors[r] for r in range(n) if r != i]
            )
            out[i, perm[i]] += others
    return out / out.sum(axis=1, keepdims=True)


def chain_joint(model) -> np.ndarray:
    """Dense P(x,y,z) = P(x) P(y|x) P(z|y) of a chain model, shape (nx, ny, nz)."""
    return model.px[:, None, None] * model.ch1[:, :, None] * model.ch2[None, :, :]


def joint_expected_divergence(pxyz: np.ndarray, q: np.ndarray) -> float:
    """ED(P_{X|Y} || Q_{X|Z}) by direct triple-loop enumeration (bits)."""
    nx, ny, nz = pxyz.shape
    py = pxyz.sum(axis=(0, 2))
    pyz = pxyz.sum(axis=0)
    total = 0.0
    for y in range(ny):
        if py[y] == 0:
            continue
        pxgy = pxyz[:, y, :].sum(axis=1) / py[y]
        for z in range(nz):
            if pyz[y, z] == 0:
                continue
            for x in range(nx):
                if pxgy[x] > 0:
                    total += pyz[y, z] * pxgy[x] * np.log2(pxgy[x] / q[z, x])
    return float(total)
