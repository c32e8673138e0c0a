"""Exact enumeration over small finite chains X - Y - Z.

Everything here is an oracle: joints are materialized as dense tensors and
all expectations are exact sums, so alphabet sizes are capped at
|X|*|Y|*|Z| <= 10**6. Conditional tables are (|Z|, |X|) arrays with one pmf
per row; symbols z with P(z) = 0 are excluded from every sum and from the
required support of candidate tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AbsoluteContinuityViolation, DimensionTooLarge
from .probs import entropy_rows, log2_masked

MAX_CELLS = 10**6


def _check_rows_stochastic(mat: np.ndarray, name: str) -> None:
    if np.any(mat < 0):
        raise ValueError(f"{name} has negative entries")
    if np.max(np.abs(mat.sum(axis=1) - 1.0)) > 1e-12:
        raise ValueError(f"{name} rows do not sum to 1")


@dataclass(frozen=True)
class ChainModel:
    """Memoryless source + two cascaded channels: P(x,y,z) = P(x)P(y|x)P(z|y)."""

    px: np.ndarray  # (nx,)
    ch1: np.ndarray  # (nx, ny)  P(y|x)
    ch2: np.ndarray  # (ny, nz)  P(z|y)

    def __post_init__(self):
        px = np.asarray(self.px, dtype=float)
        ch1 = np.asarray(self.ch1, dtype=float)
        ch2 = np.asarray(self.ch2, dtype=float)
        if px.ndim != 1 or ch1.shape[0] != px.size or ch2.shape[0] != ch1.shape[1]:
            raise ValueError("inconsistent chain shapes")
        if px.size * ch1.shape[1] * ch2.shape[1] > MAX_CELLS:
            raise DimensionTooLarge("joint exceeds the enumeration cap")
        _check_rows_stochastic(px[None, :], "px")
        _check_rows_stochastic(ch1, "ch1")
        _check_rows_stochastic(ch2, "ch2")
        for name, arr in (("px", px), ("ch1", ch1), ("ch2", ch2)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def py(self) -> np.ndarray:
        return self.px @ self.ch1

    def pz(self) -> np.ndarray:
        return self.py() @ self.ch2

    def pyz(self) -> np.ndarray:
        return self.py()[:, None] * self.ch2


@dataclass(frozen=True)
class GeneralJoint:
    """Arbitrary joint pmf over (x, y, z); no Markov structure assumed."""

    pxyz: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pxyz, dtype=float)
        if p.ndim != 3:
            raise ValueError("joint must be a 3-d tensor")
        if p.size > MAX_CELLS:
            raise DimensionTooLarge("joint exceeds the enumeration cap")
        if np.any(p < 0):
            raise ValueError("negative joint mass")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"joint mass {p.sum()} != 1")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "pxyz", p)


def _conditional_rows(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nc, nx) table of P(x | c) from joint weights w (nx, nc), and the totals P(c).

    A column c with no mass gets a uniform placeholder row.
    """
    totals = w.sum(axis=0)
    table = (w / np.where(totals > 0, totals, 1.0)).T
    table[totals == 0] = 1.0 / w.shape[0]
    return table, totals


def posterior_table_xy(model: ChainModel) -> np.ndarray:
    """All P(X | Y=y) rows, shape (ny, nx); rows with P(y)=0 are uniform placeholders."""
    return _conditional_rows(model.px[:, None] * model.ch1)[0]


def posterior_table_xz(model: ChainModel) -> np.ndarray:
    """All P(X | Z=z) rows, shape (nz, nx); rows with P(z)=0 are uniform placeholders."""
    return _conditional_rows(model.px[:, None] * (model.ch1 @ model.ch2))[0]


def conditional_entropy_xy(model: ChainModel) -> float:
    """H(X|Y) in bits."""
    return float(model.py() @ entropy_rows(posterior_table_xy(model)))


def conditional_entropy_xz(model: ChainModel) -> float:
    """H(X|Z) in bits."""
    return float(model.pz() @ entropy_rows(posterior_table_xz(model)))


def _expected_divergence(pyz: np.ndarray, pxgy: np.ndarray, q: np.ndarray) -> float:
    """sum_{y,z} P(y,z) D(pxgy[y] || q[z]) with support checks, in bits."""
    q = np.asarray(q, dtype=float)
    if q.shape != (pyz.shape[1], pxgy.shape[1]):
        raise ValueError(f"conditional table must have shape ({pyz.shape[1]}, {pxgy.shape[1]})")
    # absolute continuity on the (y,z) support only
    ys, zs = np.nonzero(pyz)
    if np.any((pxgy[ys] > 0) & (q[zs] == 0)):
        raise AbsoluteContinuityViolation("q has a zero where a supported posterior has mass")
    div = -entropy_rows(pxgy)[:, None] - pxgy @ log2_masked(q).T  # (ny, nz)
    return float(np.sum(pyz * div))


def expected_divergence(model: ChainModel, q: np.ndarray) -> float:
    """ED of the role-model posteriors from candidate table q, in bits.

    sum_z sum_y P(y,z) D(P_{X|Y=y} || q[z]); z symbols with P(z)=0 never
    contribute, so q's rows there are unconstrained.
    """
    return _expected_divergence(model.pyz(), posterior_table_xy(model), q)


def divergence_floor(model: ChainModel) -> float:
    """H(X|Z) - H(X|Y): the exact lower bound on the expected divergence."""
    return conditional_entropy_xz(model) - conditional_entropy_xy(model)


def markov_identity_residual(model: ChainModel, q: np.ndarray) -> float:
    """ED(P_XY||q) minus its decomposition H(X|Z) - H(X|Y) + ED(P_XZ||q).

    Exactly zero (to rounding) for every Markov chain; the decomposition is
    what makes per-z imitation of the better-informed estimator optimal.
    """
    lhs = expected_divergence(model, q)
    # ED(P_XZ||q) reuses the weighted-sum kernel with a diagonal (z,z) weight
    ed_xz = _expected_divergence(np.diag(model.pz()), posterior_table_xz(model), q)
    return lhs - (divergence_floor(model) + ed_xz)


def nonmarkov_lhs(joint: GeneralJoint, q: np.ndarray) -> float:
    """sum_{x,y,z} P(x,y,z) log2(P(x|y) / q(x|z)) for an arbitrary joint."""
    p = joint.pxyz
    nx, ny, nz = p.shape
    q = np.asarray(q, dtype=float)
    if q.shape != (nz, nx):
        raise ValueError(f"conditional table must have shape ({nz}, {nx})")
    pxgy = _conditional_rows(p.sum(axis=2))[0]  # (ny, nx)
    sup_x, sup_y, sup_z = np.nonzero(p)
    if np.any(q[sup_z, sup_x] == 0):
        raise AbsoluteContinuityViolation("q has a zero on the joint support")
    ratio = np.log2(pxgy[sup_y, sup_x]) - np.log2(q[sup_z, sup_x])
    return float(np.sum(p[sup_x, sup_y, sup_z] * ratio))


def nonmarkov_identity_residual(joint: GeneralJoint, q: np.ndarray) -> float:
    """LHS minus ED(P_XZ||q) + H(X|Z) - H(X|Y), valid for any joint."""
    p = joint.pxyz
    pxgz, pz = _conditional_rows(p.sum(axis=1))  # (nz, nx)
    pxgy, py = _conditional_rows(p.sum(axis=2))  # (ny, nx)
    h_xz = float(pz @ entropy_rows(pxgz))
    h_xy = float(py @ entropy_rows(pxgy))
    ed_xz = _expected_divergence(np.diag(pz), pxgz, np.asarray(q, dtype=float))
    return nonmarkov_lhs(joint, q) - (ed_xz + h_xz - h_xy)


def random_chain(rng: np.random.Generator, nx: int, ny: int, nz: int) -> ChainModel:
    """Chain with flat-Dirichlet prior and channel rows."""
    px = rng.dirichlet(np.ones(nx))
    ch1 = rng.dirichlet(np.ones(ny), size=nx)
    ch2 = rng.dirichlet(np.ones(nz), size=ny)
    return ChainModel(px, ch1, ch2)


def random_joint(rng: np.random.Generator, nx: int, ny: int, nz: int) -> GeneralJoint:
    """Flat-Dirichlet joint over all (x,y,z) cells; generically non-Markov."""
    p = rng.dirichlet(np.ones(nx * ny * nz)).reshape(nx, ny, nz)
    return GeneralJoint(p)


def random_conditional(rng: np.random.Generator, nz: int, nx: int) -> np.ndarray:
    """Random candidate table: one flat-Dirichlet pmf per z."""
    return rng.dirichlet(np.ones(nx), size=nz)
