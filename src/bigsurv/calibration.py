"""Calibration weighting against known control totals.

``solve_weights`` minimises the chi-square distance
``Q(d, w) = sum_i d_i (w_i / d_i - 1)^2`` subject to
``sum_i w_i x_i = X_N``.  The minimiser has the closed form

    w_i = d_i * (1 + (X_N - sum_j d_j x_j)' M^{-1} x_i),
    M = sum_j d_j x_j x_j'

which coincides with the textbook projection form
``w_i = d_i X_N' M^{-1} x_i`` whenever some combination of the controls
is constant over units (true for every bundled control variant, which
all span an intercept).

``build_controls`` assembles the control vectors and totals used by the
data-integration estimators: membership indicators, membership-weighted
outcomes, auxiliary covariates, duplication counts, and proxy outcomes.
``regdi_total`` is the one regression path: it calibrates, sums, and
attaches the linearized variance of its own regression residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import EstimateReport
from .linalg import SingularControlsError, gram_solve
from .population import ProbabilitySample, _per_unit
from .variance import ht_variance_quadratic

__all__ = [
    "CONTROL_VARIANTS",
    "ControlSpec",
    "CalibrationResult",
    "build_controls",
    "solve_weights",
    "regdi_total",
]

CONTROL_VARIANTS = (
    "standard",
    "with_aux_z",
    "duplication",
    "proxy_ystar",
)


@dataclass(frozen=True, eq=False)
class ControlSpec:
    """Per-unit control matrix plus the matching known totals."""

    variant: str
    x: np.ndarray
    totals: np.ndarray
    names: tuple[str, ...]
    population_size: int

    def __post_init__(self):
        x = np.asarray(self.x, float)
        totals = np.asarray(self.totals, float)
        if x.ndim != 2 or totals.ndim != 1 or x.shape[1] != totals.size:
            raise ValueError("controls and totals have mismatched shapes")
        if len(self.names) != totals.size:
            raise ValueError("need one name per control")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "totals", totals)


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    """Calibrated weights plus solver diagnostics."""

    w: np.ndarray
    achieved_totals: np.ndarray
    gram_condition: float
    negative_weights: int


def solve_weights(
    sample: ProbabilitySample, controls, totals, names=None
) -> CalibrationResult:
    """Chi-square-distance calibration of the design weights.

    Negative weights are permitted (their count is reported).  Raises
    :class:`SingularControlsError` when the scaled Gram matrix is
    numerically collinear, naming the offending controls.
    """
    x = np.atleast_2d(np.asarray(controls, float))
    if x.shape[0] != sample.n:
        raise ValueError("controls must have one row per sampled unit")
    totals = np.asarray(totals, float)
    if names is None:
        names = tuple(f"control[{j}]" for j in range(x.shape[1]))
    d = sample.d
    shortfall = totals - x.T @ d
    lam, condition = gram_solve(x, d, shortfall, names=names)
    w = d * (1.0 + x @ lam)
    achieved = x.T @ w
    tol = 1e-8 * (1.0 + np.max(np.abs(totals)))
    if np.max(np.abs(achieved - totals)) > tol:
        raise SingularControlsError(
            "calibration could not meet the control totals within tolerance",
            names,
        )
    return CalibrationResult(
        w=w,
        achieved_totals=achieved,
        gram_condition=condition,
        negative_weights=int((w < 0).sum()),
    )


def regdi_total(sample: ProbabilitySample, y, spec: ControlSpec) -> EstimateReport:
    """Regression data-integration total: calibrate, then sum ``w_i y_i``.

    With the standard controls this reproduces the post-stratified
    data-integration estimator exactly.  The report's ``variance`` is the
    Horvitz-Thompson variance of the residuals ``y - x' B`` with ``B``
    solving ``(sum d x x') B = sum d x y``: they are design-orthogonal to
    every control column, which makes the quadratic form a variance
    estimator for the calibration estimator on the same controls.
    """
    y = _per_unit(y, sample.n, "y")
    result = solve_weights(sample, spec.x, spec.totals, names=spec.names)
    beta, _ = gram_solve(
        spec.x, sample.d, (spec.x * sample.d[:, None]).T @ y, names=spec.names
    )
    return EstimateReport(
        estimator="regdi",
        total=float(np.dot(result.w, y)),
        population_size=spec.population_size,
        variance=ht_variance_quadratic(sample, y - spec.x @ beta),
        controls=spec.variant,
    )


def _column(arr, name: str, n: int, variant: str) -> np.ndarray:
    if arr is None:
        raise ValueError(f"{variant} controls need a {name} column")
    if name == "z" and np.ndim(arr) == 1:
        arr = np.asarray(arr)[:, None]  # one auxiliary covariate
    return _per_unit(arr, n, name)


def build_controls(
    variant: str,
    *,
    delta=None,
    y=None,
    y_star=None,
    z=None,
    N: int | None = None,
    N_b: float | None = None,
    T_b: float | None = None,
    z_totals=None,
    z_population_known: bool = False,
) -> ControlSpec:
    """Assemble per-unit controls and known totals for one variant.

    standard
        ``(1 - delta, delta, delta * y)`` against ``(N - N_b, N_b, T_b)``.
    with_aux_z
        standard plus auxiliary covariates: ``delta * z`` against their
        big-data totals, or plain ``z`` against population totals when
        ``z_population_known`` is set.
    duplication
        ``(1, delta, delta * y)`` with ``delta`` a multiplicity count,
        against ``(N, N_b, T_b)`` where ``N_b = sum_U delta``.
    proxy_ystar
        ``(1 - delta, delta, delta * y_star)`` against
        ``(N - N_b, N_b, T_b)`` with ``T_b`` the big-data proxy total.
    """
    if variant not in CONTROL_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {CONTROL_VARIANTS}")
    if N is None:
        raise ValueError("every variant needs the population size N")
    if delta is None:
        raise ValueError(f"{variant} needs delta")
    if N_b is None or T_b is None:
        raise ValueError(f"{variant} needs N_b and T_b")
    dv = np.asarray(delta, float)
    n = dv.shape[0]

    value, column = ("y_star", y_star) if variant == "proxy_ystar" else ("y", y)
    vv = _column(column, value, n, variant)
    cols = [1.0 - dv, dv, dv * vv]
    totals = [float(N) - float(N_b), float(N_b), float(T_b)]
    names = ["uncovered", "big", f"big_{value}"]
    if variant == "duplication":
        cols[0], totals[0], names[:2] = np.ones(n), float(N), ["overall", "big_count"]
    if variant == "with_aux_z":
        zv = _column(z, "z", n, variant)
        zt = np.atleast_1d(np.asarray(z_totals, float))
        if zt.size != zv.shape[1]:
            raise ValueError("need one z total per auxiliary column")
        for k in range(zv.shape[1]):
            if z_population_known:
                cols.append(zv[:, k])
                names.append(f"z{k + 1}")
            else:
                cols.append(dv * zv[:, k])
                names.append(f"big_z{k + 1}")
            totals.append(float(zt[k]))
    return ControlSpec(variant, np.column_stack(cols), np.array(totals), tuple(names), int(N))
