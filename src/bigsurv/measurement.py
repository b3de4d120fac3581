"""Linear measurement-error model between a proxy and the true outcome.

The proxy is modelled as ``y* = beta0 + beta1 * y + error`` and fitted
by the design-weighted estimating equation

    sum_i d_i (y*_i - beta0 - beta1 y_i) (1, y_i) = (0, 0)

over the units observed in both sources.  Once fitted, proxies are
converted back to the outcome scale by inversion.  The two-step
regression data-integration estimator calibrates the inverted values
against the standard controls; the mass-imputation estimator sums them
with the design weights, and its variance corrects for the estimated
model parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .calibration import build_controls, regdi_total
from .estimators import BigDataTotals, EstimateReport
from .population import ProbabilitySample
from .variance import ht_variance_quadratic

__all__ = [
    "MeasurementFitError",
    "MeasurementModel",
    "LinearizationTerms",
    "fit_measurement_model",
    "linearization_terms",
    "mass_imputation_total",
    "mass_imputation_variance",
    "two_step_regdi",
]

# slopes this small make inversion numerically meaningless
MIN_SLOPE = 1e-6


class MeasurementFitError(ValueError):
    """The matched subsample cannot identify the measurement model."""


@dataclass(frozen=True)
class MeasurementModel:
    """Fitted linear map from outcome to proxy scale."""

    beta0: float
    beta1: float
    sigma2: float
    n_fit: int

    def forward(self, y):
        """Proxy-scale prediction ``beta0 + beta1 * y``."""
        return self.beta0 + self.beta1 * np.asarray(y, float)

    def invert(self, y_star):
        """Outcome-scale value solving ``y* = beta0 + beta1 * y``."""
        if abs(self.beta1) < MIN_SLOPE:
            raise MeasurementFitError(
                f"slope {self.beta1:.2e} too close to zero to invert"
            )
        return (np.asarray(y_star, float) - self.beta0) / self.beta1

    def regressors(self, y) -> np.ndarray:
        """Estimating-equation regressors ``(1, y)`` as rows."""
        y = np.asarray(y, float)
        return np.column_stack([np.ones_like(y), y])


@dataclass(frozen=True, eq=False)
class LinearizationTerms:
    """Pieces needed to linearize estimators built on inverted proxies.

    ``q`` is the inverted value per unit and ``q_dot`` its derivative in
    the model parameters, ``(-1/beta1, -q/beta1)`` for the linear model.
    """

    q: np.ndarray
    q_dot: np.ndarray


def fit_measurement_model(y, y_star, d=None) -> MeasurementModel:
    """Fit the proxy model on units where both scales are observed.

    ``sigma2`` is the design-weighted mean squared residual, reported
    for diagnostics only.
    """
    y = np.asarray(y, float)
    y_star = np.asarray(y_star, float)
    if y.shape != y_star.shape or y.ndim != 1:
        raise ValueError("y and y_star must be matched one-dimensional arrays")
    if y.size < 2:
        raise MeasurementFitError("need at least two matched units")
    d = np.ones_like(y) if d is None else np.asarray(d, float)
    wsum = d.sum()
    ybar = float(np.dot(d, y)) / wsum
    sbar = float(np.dot(d, y_star)) / wsum
    syy = float(np.dot(d, (y - ybar) ** 2))
    if syy <= 0.0:
        raise MeasurementFitError("matched outcome values are constant; slope not identified")
    beta1 = float(np.dot(d, (y - ybar) * (y_star - sbar))) / syy
    beta0 = sbar - beta1 * ybar
    resid = y_star - beta0 - beta1 * y
    return MeasurementModel(
        beta0=beta0,
        beta1=beta1,
        sigma2=float(np.dot(d, resid**2)) / wsum,
        n_fit=int(y.size),
    )


def linearization_terms(y_star, model: MeasurementModel) -> LinearizationTerms:
    q = model.invert(y_star)
    q_dot = np.column_stack([np.full_like(q, -1.0 / model.beta1), -q / model.beta1])
    return LinearizationTerms(q=q, q_dot=q_dot)


def mass_imputation_variance(
    sample: ProbabilitySample,
    model: MeasurementModel,
    y_star,
    y,
    delta,
    N: int | None = None,
) -> float:
    """Variance of the mean of measurement-inverted values.

    Estimates the design variance of ``N^{-1} sum_A d_i q_i`` where
    ``q_i`` inverts the fitted measurement model at ``y_star_i``.  The
    residual is corrected for the estimated model parameters:

        u_i = q_i + delta_i (y_star_i - m(y_i)) (kappa' h_i)

    with ``kappa = (sum_A d delta m_dot h')^{-1} sum_A d q_dot`` and
    ``h_i = m_dot_i = (1, y_i)`` for the linear model.  The
    finite-population term of order ``n/N`` is dropped, which assumes a
    small sampling fraction.
    """
    y_star = np.asarray(y_star, float)
    delta = np.asarray(delta)
    if N is None:
        N = sample.N
    matched = delta > 0
    y_m = np.asarray(y, float)[matched]
    terms = linearization_terms(y_star, model)
    h_m = model.regressors(y_m)
    d_m = sample.d[matched]
    gram = (h_m * d_m[:, None]).T @ h_m
    kappa = np.linalg.solve(gram, sample.d @ terms.q_dot)
    resid = np.zeros(sample.n)
    resid[matched] = (y_star[matched] - model.forward(y_m)) * (h_m @ kappa)
    u = terms.q + resid
    return ht_variance_quadratic(sample, u) / (N * N)


def mass_imputation_total(
    sample: ProbabilitySample, model: MeasurementModel, y_star, N: int | None = None
) -> EstimateReport:
    """Total of measurement-inverted values, ``sum_A d_i q_i``."""
    y_star = np.asarray(y_star, float)
    if N is None:
        N = sample.N
    q = model.invert(y_star)
    return EstimateReport(
        estimator="mass_imputation",
        total=float(np.dot(sample.d, q)),
        population_size=int(N),
        notes=("finite-population variance term omitted (small sampling fraction)",),
    )


def two_step_regdi(sample: ProbabilitySample, big: BigDataTotals) -> EstimateReport:
    """Two-step estimator for a proxy-measured probability sample.

    Step one fits the measurement model on the matched units (``delta
    == 1`` in the sample, true outcome known from the big source) and
    inverts every sampled proxy.  Step two is :func:`regdi_total` of the
    inverted values on the standard controls -- which only involve the
    matched true outcomes -- so the report carries its variance too.
    """
    if sample.y_star is None or sample.delta is None or sample.y is None:
        raise ValueError("sample must carry y_star, delta, and matched y values")
    matched = sample.delta > 0
    model = fit_measurement_model(
        sample.y[matched], sample.y_star[matched], sample.d[matched]
    )
    # the standard controls only touch delta * y, so unmatched entries
    # (which may be missing) are zeroed rather than propagating NaN
    spec = build_controls(
        "standard",
        delta=sample.delta,
        y=np.where(matched, sample.y, 0.0),
        N=big.N,
        N_b=big.N_b,
        T_b=big.T_b,
    )
    return replace(
        regdi_total(sample, model.invert(sample.y_star), spec),
        estimator="two_step_regdi",
        notes=(f"measurement model fitted on {model.n_fit} matched units",),
    )
