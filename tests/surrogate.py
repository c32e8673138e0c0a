"""Exactly enumerable stand-in for the continuous min-sum check-node experiment.

Branch LLRs are quantized to a few sign * magnitude levels; Y is the tuple
of per-branch levels, and Z applies the min-sum pairing (min magnitude
level, sign product) to Y. The chain oracle in ``rolemodel.chains`` then
scores trained tables and the divergence floor without Monte Carlo, which
makes the chain the exact check that the non-parametric trainer is a Monte
Carlo integration of P(X|Z).
"""

import math

import numpy as np

from rolemodel import chains
from rolemodel.rng import make_rng


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _branch_level_probs(sigma: float, mag_edges: np.ndarray) -> np.ndarray:
    """(2, levels) table: P(level | bit) for one branch.

    Levels 0..M-1 are positive-LLR magnitude cells, M..2M-1 the negative
    mirror; LLR cell bounds map to observation bounds via y = l*sigma^2/2.
    """
    m = mag_edges.size - 1
    out = np.empty((2, 2 * m))
    for bit, mu in ((0, 1.0), (1, -1.0)):
        for cell in range(m):
            lo, hi = mag_edges[cell], mag_edges[cell + 1]
            y_lo, y_hi = lo * sigma**2 / 2.0, hi * sigma**2 / 2.0
            pos = _phi((y_hi - mu) / sigma) - _phi((y_lo - mu) / sigma)
            neg = _phi((-y_lo - mu) / sigma) - _phi((-y_hi - mu) / sigma)
            out[bit, cell] = pos
            out[bit, m + cell] = neg
    return out


def surrogate_chain(sigmas, levels_per_branch: int = 8,
                    max_branch_magnitude: float = 8.0) -> tuple[chains.ChainModel, np.ndarray]:
    """The chain for branch LLRs quantized to a few levels, and the Z bin of each y tuple."""
    sig = np.asarray(sigmas, dtype=float)
    d = sig.size
    if levels_per_branch % 2 or levels_per_branch < 2:
        raise ValueError("levels_per_branch must be even (sign * magnitude cells)")
    m = levels_per_branch // 2
    edges = np.linspace(0.0, max_branch_magnitude, m + 1)
    edges[-1] = math.inf  # top magnitude cell is open
    branch = [_branch_level_probs(s, edges) for s in sig]

    # P(level tuple | x) through the XOR mixture over branch bits
    even = branch[0][0]
    odd = branch[0][1]
    for a in branch[1:]:
        even, odd = (
            np.multiply.outer(even, a[0]) + np.multiply.outer(odd, a[1]),
            np.multiply.outer(even, a[1]) + np.multiply.outer(odd, a[0]),
        )
    scale = 2.0 ** (d - 1)
    ch1 = np.stack([even.ravel() / scale, odd.ravel() / scale])

    # Z = (sign product, min magnitude level) read directly off the levels
    grids = np.meshgrid(*([np.arange(levels_per_branch)] * d), indexing="ij")
    levels = np.stack([g.ravel() for g in grids], axis=1)  # (ny, d)
    mag_levels = levels % m
    negs = (levels >= m).sum(axis=1)
    z_of_y = np.where(negs % 2 == 1, m, 0) + mag_levels.min(axis=1)

    ny = levels.shape[0]
    ch2 = np.zeros((ny, 2 * m))
    ch2[np.arange(ny), z_of_y] = 1.0
    model = chains.ChainModel(px=np.array([0.5, 0.5]), ch1=ch1, ch2=ch2)
    return model, z_of_y


def sample_batch(model: chains.ChainModel, z_of_y: np.ndarray, n: int,
                 seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n training samples of the chain: P(X|Y=y) rows (n, 2), Z bins (n,) and true bits (n,).

    ``PostTable.ingest_batch`` takes the first two. Draws from stream
    (seed, 2): all n y tuples, then n uniforms that pick each x.
    """
    rng = make_rng(seed, 2)
    post_xy = chains.posterior_table_xy(model)
    ys = rng.choice(model.ch1.shape[1], size=n, p=model.py())
    xs = (rng.random(n) >= post_xy[ys, 0]).astype(int)  # binary: P(x=0) first
    return post_xy[ys], z_of_y[ys], xs
