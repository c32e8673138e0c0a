"""Estimator distillation for degraded observations.

Train a cheap estimator that sees only a degraded statistic Z by minimizing
its expected divergence from a reference ("role model") estimator that sees
the richer observation Y. The non-parametric solution is per-bin averaging
of the reference posteriors; the parametric path optimizes a small vector of
correction weights. Two testbeds are included: min-sum check-node
post-processing and a soft-sudoku belief-propagation solver built on matrix
permanents.
"""

__version__ = "0.1.0"
