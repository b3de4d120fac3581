"""Point estimators for population totals that blend the two sources.

Everything here is design-based: the probability sample contributes
Horvitz-Thompson style weighted sums, and the big-data source
contributes its observed total.  The key estimator is the
post-stratified data-integration total, which treats big-data
membership as a post-stratum and estimates only the uncovered part of
the universe from the probability sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .population import ProbabilitySample, _check_universe_size, _per_unit
from .variance import ht_variance_quadratic

__all__ = [
    "DegenerateStratumError",
    "EstimateReport",
    "BigDataTotals",
    "CostDecision",
    "ht_total",
    "pdi_total",
    "ratio_di_total",
    "pdi_variance_approx",
    "effective_sample_size",
    "cost_effective",
]


class DegenerateStratumError(ValueError):
    """The probability sample carries no units from a needed post-stratum."""


@dataclass(frozen=True)
class EstimateReport:
    """A point estimate of a population total with optional variance.

    ``variance`` (when present) is on the *total* scale; divide by
    ``population_size**2`` for the mean.  ``notes`` records assumptions
    attached by the producing estimator.
    """

    estimator: str
    total: float
    population_size: int
    variance: float | None = None
    controls: str | None = None
    notes: tuple[str, ...] = ()

    @property
    def mean(self) -> float:
        return self.total / self.population_size


@dataclass(frozen=True)
class BigDataTotals:
    """Totals observed in (or about) the big-data source.

    ``N_b`` may be real-valued, as the inverse-propensity size of a
    classified source is.
    """

    T_b: float
    N_b: float
    N: int

    def __post_init__(self):
        _check_universe_size(self.N)
        if self.N_b < 0:
            raise ValueError("N_b must be non-negative")
        if self.N_b > self.N:
            raise ValueError("N_b cannot exceed the universe size N")


class CostDecision(NamedTuple):
    cost_effective: bool
    threshold: float


def ht_total(sample: ProbabilitySample, values) -> EstimateReport:
    """Horvitz-Thompson total ``sum_i d_i * values_i``.

    The report carries the quadratic-form variance of ``values``, which
    is ``None`` when the sample has no joint inclusion probabilities.
    """
    values = _per_unit(values, sample.n, "values")
    return EstimateReport(
        estimator="ht",
        total=float(np.dot(sample.d, values)),
        population_size=sample.N,
        variance=ht_variance_quadratic(sample, values),
    )


def pdi_total(
    sample: ProbabilitySample, delta, y, big: BigDataTotals
) -> EstimateReport:
    """Post-stratified data-integration total.

    The big-data total is taken as observed and the uncovered stratum is
    estimated with the ratio-adjusted mean of the ``delta == 0`` units:

        T_b + (N - N_b) * sum_A d (1-delta) y / sum_A d (1-delta)

    All of its sampling variance comes from the uncovered stratum.  The
    report carries the Horvitz-Thompson variance of the linearized
    residual ``(1-delta) (y - ybar_c)``, with ``ybar_c`` the ratio mean
    above; for SRS that is the post-stratification variance of Särndal,
    Swensson & Wretman (1992).  Under full coverage no sampled value
    enters the estimate: the residual is zero, and so is the variance.

    The post-strata are sets of units, so ``big.N_b`` and ``big.T_b``
    count each distinct unit of the big source once: for a source with
    duplicated records, its unit count and the plain sum of its units'
    values (``bigsurv estimate --method pdi`` passes the big file's row
    count and the sum of its values, whatever their ``multiplicity``).
    Only ``delta == 0`` is read of ``delta``, so it may hold counts.
    """
    delta = _per_unit(delta, sample.n, "delta", dtype=None)
    y = _per_unit(y, sample.n, "y")
    if big.N_b == big.N:
        # full coverage: the big source already is the universe
        return EstimateReport(
            estimator="pdi",
            total=big.T_b,
            population_size=big.N,
            variance=ht_variance_quadratic(sample, np.zeros(sample.n)),
        )
    out_mask = delta == 0
    d_out = sample.d[out_mask]
    out_weighted = float(np.dot(d_out, y[out_mask]))
    denom = float(d_out.sum())
    if denom <= 0.0:
        raise DegenerateStratumError(
            "no sampled units outside the big-data source; "
            "the uncovered post-stratum mean is not estimable"
        )
    total = big.T_b + (big.N - big.N_b) * out_weighted / denom
    residuals = np.where(out_mask, y - out_weighted / denom, 0.0)
    return EstimateReport(
        estimator="pdi",
        total=total,
        population_size=big.N,
        variance=ht_variance_quadratic(sample, residuals),
    )


def ratio_di_total(sample: ProbabilitySample, delta, y, T_b: float) -> EstimateReport:
    """Ratio data-integration total ``T_b * T_hat_a / T_hat_b``.

    ``T_hat_a`` is the Horvitz-Thompson total of ``y`` and ``T_hat_b``
    the Horvitz-Thompson total of ``delta * y``; their ratio rescales
    the observed big-data total to the full universe.  The implied
    weights ``d_i * T_b / T_hat_b`` reproduce ``T_b`` when applied to
    ``delta * y``.

    The report carries the Taylor-linearized variance (Särndal, Swensson
    & Wretman 1992): the Horvitz-Thompson variance of
    ``e_i = (T_b / T_hat_b) (y_i - R_hat delta_i y_i)`` with
    ``R_hat = T_hat_a / T_hat_b``, or ``None`` without joint inclusion
    probabilities.
    """
    delta = _per_unit(delta, sample.n, "delta", dtype=None)
    y = _per_unit(y, sample.n, "y")
    t_a = float(np.dot(sample.d, y))
    # delta acts as a count when it exceeds one
    t_b_hat = float(np.dot(sample.d * delta, y))
    if t_b_hat == 0.0:
        raise DegenerateStratumError(
            "weighted big-data total in the sample is zero; ratio undefined"
        )
    residuals = (T_b / t_b_hat) * (y - (t_a / t_b_hat) * (delta * y))
    return EstimateReport(
        estimator="ratio_di",
        total=T_b * t_a / t_b_hat,
        population_size=sample.N,
        variance=ht_variance_quadratic(sample, residuals),
    )


def pdi_variance_approx(W_b: float, S_c2: float, N: int, n: int) -> float:
    """Large-population variance approximation for the post-stratified total.

    ``(1 - W_b) * (N^2 / n) * S_c2`` where ``S_c2`` is the population
    variance of ``y`` among uncovered units.  Valid when the sampling
    fraction is small and coverage is reasonably high.
    """
    if not 0.0 <= W_b <= 1.0:
        raise ValueError("W_b must lie in [0, 1]")
    if S_c2 < 0:
        raise ValueError("S_c2 must be non-negative")
    if n < 1 or N < 1:
        raise ValueError("n and N must be positive")
    return (1.0 - W_b) * (N * N / n) * S_c2


def effective_sample_size(n: int, W_b: float, S2: float, S_c2: float) -> float:
    """Sample size an SRS-only design would need to match the blended one.

    ``n * (1 / (1 - W_b)) * (S2 / S_c2)``: coverage shrinks the variance
    by ``1 - W_b`` and the uncovered stratum is often less dispersed.
    """
    if not 0.0 <= W_b < 1.0:
        raise ValueError("W_b must lie in [0, 1)")
    if S_c2 <= 0:
        raise ValueError("S_c2 must be positive")
    return n * (1.0 / (1.0 - W_b)) * (S2 / S_c2)


def cost_effective(c_a: float, c_b: float, n: int, N: int, W_b: float) -> CostDecision:
    """Is assembling the big source cheaper than buying equivalent precision?

    Worth it when the unit-cost ratio satisfies
    ``c_b / c_a <= (n / N) / (1 - W_b)``.
    """
    if min(c_a, c_b) <= 0:
        raise ValueError("unit costs must be positive")
    if not 0.0 <= W_b < 1.0:
        raise ValueError("W_b must lie in [0, 1)")
    threshold = (n / N) / (1.0 - W_b)
    return CostDecision(cost_effective=(c_b / c_a) <= threshold, threshold=threshold)
