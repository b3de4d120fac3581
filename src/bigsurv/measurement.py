"""Linear measurement-error model between a proxy and the true outcome.

The proxy is modelled as ``y* = beta0 + beta1 * y + error`` and fitted
by the design-weighted estimating equation

    sum_i d_i (y*_i - beta0 - beta1 y_i) (1, y_i) = (0, 0)

over the units observed in both sources.  Once fitted, proxies are
converted back to the outcome scale by inversion.  Two estimators fit
the model on a sample's matched units themselves and report their own
linearized variance: the two-step regression data-integration estimator
calibrates the inverted values against the standard controls, and the
mass-imputation estimator sums them with the design weights, its
variance corrected for the estimated model parameters.
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
    "fit_measurement_model",
    "mass_imputation_total",
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

    def invert(self, y_star):
        """Outcome-scale value solving ``y* = beta0 + beta1 * y``."""
        if abs(self.beta1) < MIN_SLOPE:
            raise MeasurementFitError(
                f"slope {self.beta1:.2e} too close to zero to invert"
            )
        return (np.asarray(y_star, float) - self.beta0) / self.beta1


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


def _fit_on_matched(sample: ProbabilitySample) -> tuple[MeasurementModel, np.ndarray]:
    """The model fitted with design weights on the sample's matched units
    (``delta > 0``, true outcome known from the big source), and their mask."""
    if sample.y_star is None or sample.delta is None or sample.y is None:
        raise ValueError("sample must carry y_star, delta, and matched y values")
    matched = sample.delta > 0
    model = fit_measurement_model(
        sample.y[matched], sample.y_star[matched], sample.d[matched]
    )
    return model, matched


def mass_imputation_total(sample: ProbabilitySample) -> EstimateReport:
    """Total of measurement-inverted proxies, ``sum_A d_i q_i``.

    The model is fitted on the matched units and ``q_i`` inverts it at
    ``y*_i``.  The report carries the linearized variance, the quadratic
    form of the residual corrected for the estimated model parameters:

        u_i = q_i + delta_i (y*_i - (beta0 + beta1 y_i)) (kappa' h_i)

    with ``h_i = (1, y_i)``, ``q_dot_i = (-1/beta1, -q_i/beta1)`` and
    ``kappa = (sum_A d delta h h')^{-1} sum_A d q_dot``.  The
    finite-population term of order ``n/N`` is dropped, which assumes a
    small sampling fraction.
    """
    model, matched = _fit_on_matched(sample)
    q = model.invert(sample.y_star)
    y_m = sample.y[matched]
    h_m = np.column_stack([np.ones_like(y_m), y_m])
    gram = (h_m * sample.d[matched][:, None]).T @ h_m
    q_dot = np.column_stack([np.full_like(q, -1.0 / model.beta1), -q / model.beta1])
    kappa = np.linalg.solve(gram, sample.d @ q_dot)
    e_m = sample.y_star[matched] - (model.beta0 + model.beta1 * y_m)
    u = q.copy()
    u[matched] += e_m * (h_m @ kappa)
    return EstimateReport(
        estimator="mass_imputation",
        total=float(np.dot(sample.d, q)),
        population_size=sample.N,
        variance=ht_variance_quadratic(sample, u),
        notes=(
            f"measurement model fitted on {model.n_fit} matched units",
            "finite-population variance term omitted (small sampling fraction)",
        ),
    )


def two_step_regdi(sample: ProbabilitySample, big: BigDataTotals) -> EstimateReport:
    """Two-step estimator for a proxy-measured probability sample.

    Step one fits the measurement model on the matched units, as
    :func:`mass_imputation_total` does, and inverts every sampled proxy.
    Step two is :func:`regdi_total` of the inverted values on the
    standard controls -- which only involve the matched true outcomes --
    so the report carries its variance too.
    """
    model, matched = _fit_on_matched(sample)
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
