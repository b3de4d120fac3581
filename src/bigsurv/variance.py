"""Linearization variance estimators.

The workhorse is the Horvitz-Thompson quadratic form

    V = sum_i sum_j ((pi_ij - pi_i pi_j) / pi_ij) (r_i / pi_i) (r_j / pi_j)

evaluated over the sampled pairs.  Under simple random sampling it
collapses algebraically to ``N^2 (1 - n/N) s_r^2 / n`` with ``s_r^2``
the sample variance of the residuals; both paths are implemented and
cross-checked in the tests.  Calibration estimators plug in regression
residuals (``calibration.regdi_total`` does so itself); the
mass-imputation variance in ``measurement`` plugs in residuals corrected
for the estimated measurement model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import weighted_least_squares
from .population import ProbabilitySample

__all__ = [
    "ResidualSet",
    "ht_variance_quadratic",
    "regdi_residuals",
    "variance_relative_bias",
]


@dataclass(frozen=True, eq=False)
class ResidualSet:
    """Residuals from a design-weighted regression, plus coefficients."""

    e_hat: np.ndarray
    coefficients: np.ndarray


def _pairwise_matrix(sample: ProbabilitySample) -> np.ndarray:
    provider = sample.joint_pi
    if provider is None:
        raise ValueError(
            "the double-sum variance needs joint inclusion probabilities, "
            "but the sample's joint_pi is None"
        )
    ids = sample.unit_ids
    if hasattr(provider, "pairwise"):
        return np.asarray(provider.pairwise(ids), float)
    k = ids.size
    out = np.empty((k, k))
    for a in range(k):
        for b in range(k):
            out[a, b] = provider(int(ids[a]), int(ids[b]))
    return out


def ht_variance_quadratic(sample: ProbabilitySample, residuals, method: str = "auto") -> float:
    """Variance of a Horvitz-Thompson total of ``residuals``.

    ``method`` is ``"auto"`` (closed form when the sample is tagged as
    SRS, the generic double sum otherwise), ``"closed_form"``, or
    ``"double_sum"``.  The double sum is O(n^2) and meant for designs
    with an arbitrary joint-inclusion provider.
    """
    r = np.asarray(residuals, float)
    if r.shape[0] != sample.n:
        raise ValueError("residuals must have one entry per sampled unit")
    if method == "auto":
        method = "closed_form" if sample.design == "srs" else "double_sum"
    if method == "closed_form":
        if sample.design != "srs":
            raise ValueError("closed form applies to simple random samples only")
        n, N = sample.n, sample.N
        if n == N:
            return 0.0
        if n < 2:
            raise ValueError("need at least two sampled units")
        return N * N * (1.0 - n / N) * float(np.var(r, ddof=1)) / n
    if method != "double_sum":
        raise ValueError(f"unknown method {method!r}")
    pj = _pairwise_matrix(sample)
    pi = sample.pi
    coef = (pj - np.outer(pi, pi)) / pj
    scaled = r / pi
    return float(scaled @ coef @ scaled)


def regdi_residuals(sample: ProbabilitySample, y, controls) -> ResidualSet:
    """Residuals ``y - x' B_hat`` from the design-weighted regression.

    ``B_hat`` solves ``(sum d x x') B = sum d x y``, so the residuals
    are design-orthogonal to every control column -- which is what makes
    the quadratic form above a variance estimator for the calibration
    estimator that uses the same controls.
    """
    x = np.atleast_2d(np.asarray(controls, float))
    y = np.asarray(y, float)
    if x.shape[0] != sample.n or y.shape[0] != sample.n:
        raise ValueError("controls and y must have one row per sampled unit")
    beta, _ = weighted_least_squares(x, y, sample.d)
    return ResidualSet(e_hat=y - x @ beta, coefficients=beta)


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
