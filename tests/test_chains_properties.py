"""Property tests of the chain oracle on chains with zero-mass x, y and z symbols.

Every drawn chain has at least one symbol of each alphabet with no mass,
plus random exact zeros in the prior and the channels. Runs are
derandomized, so every run checks the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rolemodel import chains
from rolemodel.probs import divergence_rows, entropy_rows

from oracles import chain_joint, divergence_row, entropy_row

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# exact zeros, or weights bounded away from 0 so no product underflows
WEIGHTS = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0))


def _stochastic(draw, rows: int, cols: int, dead: int) -> np.ndarray:
    """Row-stochastic (rows, cols) matrix with column ``dead`` all zero."""
    w = draw(arrays(float, (rows, cols), elements=WEIGHTS))
    w[:, dead] = 0.0
    w[w.sum(axis=1) == 0, (dead + 1) % cols] = 1.0
    return w / w.sum(axis=1, keepdims=True)


@st.composite
def degenerate_chains(draw):
    nx, ny, nz = (draw(st.integers(2, 6)) for _ in range(3))
    px = _stochastic(draw, 1, nx, draw(st.integers(0, nx - 1)))[0]
    ch1 = _stochastic(draw, nx, ny, draw(st.integers(0, ny - 1)))
    ch2 = _stochastic(draw, ny, nz, draw(st.integers(0, nz - 1)))
    return chains.ChainModel(px, ch1, ch2)


@st.composite
def degenerate_joints(draw):
    """Non-Markov joint with a zero-mass x, y and z slice and random zero cells."""
    nx, ny, nz = (draw(st.integers(2, 6)) for _ in range(3))
    p = draw(arrays(float, (nx, ny, nz), elements=WEIGHTS))
    dx, dy, dz = (draw(st.integers(0, k - 1)) for k in (nx, ny, nz))
    p[dx], p[:, dy], p[:, :, dz] = 0.0, 0.0, 0.0
    if p.sum() == 0:
        p[(dx + 1) % nx, (dy + 1) % ny, (dz + 1) % nz] = 1.0
    return chains.GeneralJoint(p / p.sum())


def candidate_table(draw, pz: np.ndarray, nx: int) -> np.ndarray:
    """Positive rows where P(z) > 0; a one-hot (zeros allowed) row where P(z) = 0."""
    q = draw(arrays(float, (pz.size, nx), elements=st.floats(min_value=1e-3, max_value=1.0)))
    q[pz == 0] = np.eye(nx)[0]
    return q / q.sum(axis=1, keepdims=True)


@PROPERTY
@given(st.data())
def test_identity_residuals_vanish(data):
    model = data.draw(degenerate_chains())
    q = candidate_table(data.draw, model.pz(), model.px.size)
    assert abs(chains.markov_identity_residual(model, q)) <= 1e-12
    j = chain_joint(model)
    assert abs(chains.nonmarkov_identity_residual(chains.GeneralJoint(j / j.sum()), q)) <= 1e-12
    joint = data.draw(degenerate_joints())
    pz = joint.pxyz.sum(axis=(0, 1))
    qj = candidate_table(data.draw, pz, joint.pxyz.shape[0])
    assert abs(chains.nonmarkov_identity_residual(joint, qj)) <= 1e-12


@PROPERTY
@given(degenerate_chains())
def test_placeholder_rows_are_uniform_exactly_where_mass_is_zero(model):
    # other rows are the joint's (x, c) weights, normalised directly
    joint = chain_joint(model)
    for table, mass, weights in (
        (chains.posterior_table_xy(model), model.py(), joint.sum(axis=2)),
        (chains.posterior_table_xz(model), model.pz(), joint.sum(axis=1)),
    ):
        assert np.any(mass == 0)
        for c, row in enumerate(table):
            if mass[c] == 0:
                assert np.all(row == 1.0 / model.px.size)
            else:
                w = weights[:, c]
                assert np.allclose(row, w / w.sum(), rtol=1e-14, atol=0)


@PROPERTY
@given(st.data())
def test_row_kernels_match_exact_sums(data):
    model = data.draw(degenerate_chains())
    q = candidate_table(data.draw, np.ones(model.ch2.shape[1]), model.px.size)
    for table in (chains.posterior_table_xy(model), chains.posterior_table_xz(model)):
        assert np.any(table == 0)
        expect = [entropy_row(row) for row in table]
        assert np.all(np.abs(entropy_rows(table) - expect) <= 1e-14)
        got = divergence_rows(table[:, None, :], q[None, :, :])
        expect = [[divergence_row(p, r) for r in q] for p in table]
        assert np.all(np.abs(got - expect) <= 1e-13)
