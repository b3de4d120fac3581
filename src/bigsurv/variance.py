"""Linearization variance estimators.

The workhorse is the Horvitz-Thompson quadratic form

    V = sum_i sum_j ((pi_ij - pi_i pi_j) / pi_ij) (r_i / pi_i) (r_j / pi_j)

evaluated over the sampled pairs.  Under simple random sampling it
collapses algebraically to ``N^2 (1 - n/N) s_r^2 / n`` with ``s_r^2``
the sample variance of the residuals.  The sample's ``joint_pi``
provider picks the form: the closed form for an ``SRSJointInclusion``
(which ``ProbabilitySample`` admits only when every ``pi`` equals
``n / N``), the double sum otherwise; the tests cross-check the two.
It is also the one place that decides whether a sample has a variance
at all: without joint inclusion probabilities it returns ``None``.  The estimators supply their
own residuals and pass them straight through: ``calibration.regdi_total``
its design-weighted regression residuals, ``estimators.pdi_total`` its
uncovered-stratum deviations, and ``measurement.mass_imputation_total``
residuals corrected for the estimated measurement model.
``variance_relative_bias`` scores a variance estimator against Monte
Carlo replicates.
"""

from __future__ import annotations

import numpy as np

from .population import ProbabilitySample, SRSJointInclusion, _per_unit

__all__ = ["ht_variance_quadratic", "variance_relative_bias"]


def ht_variance_quadratic(sample: ProbabilitySample, residuals) -> float | None:
    """Variance of a Horvitz-Thompson total of ``residuals``.

    ``None`` when the sample has no joint inclusion probabilities
    (``joint_pi is None``), and zero for an all-zero residual under any
    design.  An :class:`SRSJointInclusion` provider takes the closed
    form; any other takes the O(n^2) double sum over the matrix it
    returns from ``pairwise(unit_ids)``.  The ``design`` label is not read.
    """
    r = _per_unit(residuals, sample.n, "residuals")
    provider = sample.joint_pi
    if provider is None:
        return None
    if not r.any():
        # no sampled value moves the estimate, even where n = 1 leaves
        # no pair to estimate a variance from
        return 0.0
    if isinstance(provider, SRSJointInclusion):
        n, N = sample.n, sample.N
        if n == N:
            return 0.0
        if n < 2:
            raise ValueError("need at least two sampled units")
        return N * N * (1.0 - n / N) * float(np.var(r, ddof=1)) / n
    return _double_sum(sample, r)


def _double_sum(sample: ProbabilitySample, r) -> float:
    """The quadratic form over the matrix of ``sample.joint_pi.pairwise``,
    in the Sen-Yates-Grundy difference form plus the row-sum term."""
    provider = sample.joint_pi
    if not hasattr(provider, "pairwise"):
        raise ValueError(
            "joint_pi must expose pairwise(unit_ids), the matrix of joint "
            "inclusion probabilities of the sampled units"
        )
    pj = np.asarray(provider.pairwise(sample.unit_ids), float)
    pi = sample.pi
    coef = (pj - np.outer(pi, pi)) / pj
    a = r / pi
    # a'Ca = -1/2 sum_ij C_ij (a_i - a_j)^2 + sum_i a_i^2 rho_i with
    # rho_i = sum_j C_ij.  The first term is built from differences, so it
    # does not cancel when the a_i lie far from zero but close together.
    # Under SRS each row holds 1 - f once and -(1 - f) / (n - 1) for each
    # of the other n - 1 units, so rho is exactly zero, where sums of
    # rounded entries would leave about eps * a_i^2 each
    rho = np.zeros(sample.n) if isinstance(provider, SRSJointInclusion) else coef.sum(axis=1)
    squares = np.subtract.outer(a, a)
    squares *= squares
    squares *= coef
    return float(-0.5 * squares.sum() + np.dot(a * a, rho))


def variance_relative_bias(replicates) -> float:
    """Monte Carlo relative bias of a variance estimator.

    ``replicates`` is a sequence of ``(estimate, variance_estimate)``
    pairs; returns ``mean(variance_estimate) / Var_MC(estimate) - 1``
    where ``Var_MC`` is the sample variance of the estimates.
    """
    pairs = np.asarray(list(replicates), float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 2:
        raise ValueError("need at least two (estimate, variance) pairs")
    mc_var = float(np.var(pairs[:, 0], ddof=1))
    if mc_var == 0.0:
        raise ValueError("Monte Carlo variance of the estimates is zero")
    return float(np.mean(pairs[:, 1])) / mc_var - 1.0
