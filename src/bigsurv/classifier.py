"""Semi-supervised naive-Bayes classification of big-data membership.

When the probability sample cannot be matched to the big source by id,
membership is predicted from shared categorical variables ``z``.  The
class-conditional level frequencies inside the big source (``m``) are
observed directly; the frequencies outside (``u``) are estimated by an
EM run over the probability sample with the membership prior
``pi = N_b / N`` held fixed.  Posteriors then correct the big-data
totals by inverse-propensity weighting.

The E-step posterior for a unit with levels ``z`` is

    p(z) = pi * prod_k m_k[z_k] / (pi * prod_k m_k[z_k]
                                   + (1 - pi) * prod_k u_k[z_k])

and the M-step re-estimates each ``u_k`` as the design-weighted,
posterior-(1-p)-weighted level frequencies.  SQUAREM extrapolates this
map; the design-weighted observed-data log-likelihood is non-decreasing
across accepted iterates, and the fitter enforces that invariant.
"""

from __future__ import annotations

import contextlib
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .estimators import BigDataTotals, EstimateReport, pdi_total
from .population import BigSample, ProbabilitySample

__all__ = [
    "DegenerateFitError",
    "AscentViolationError",
    "ClassifierModel",
    "PosteriorSet",
    "PropensityTotals",
    "estimate_m",
    "initial_u",
    "posterior",
    "classify",
    "em_fit",
    "fit_membership",
    "propensity_totals",
    "pdi2_total",
]

# tolerated floating-point slack when asserting log-likelihood ascent
ASCENT_SLACK = 1e-10

_log = logging.getLogger(__name__)


class DegenerateFitError(RuntimeError):
    """EM collapsed: no posterior mass left outside the big source."""


class AscentViolationError(RuntimeError):
    """The observed-data log-likelihood decreased across an EM iteration."""


def _check_tables(tables, what: str):
    out = []
    for k, t in enumerate(tables):
        t = np.asarray(t, float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError(f"{what}[{k}] must be a non-empty vector")
        if not np.isfinite(t).all():
            raise ValueError(f"{what}[{k}] entries must be finite")
        if (t < -1e-12).any() or (t > 1 + 1e-12).any():
            raise ValueError(f"{what}[{k}] entries must lie in [0, 1]")
        if abs(t.sum() - 1.0) > 1e-10:
            raise ValueError(f"{what}[{k}] must sum to one")
        t = t.copy()
        t.setflags(write=False)
        out.append(t)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class ClassifierModel:
    """Naive-Bayes membership model: prior plus per-variable level tables."""

    pi: float
    m: tuple[np.ndarray, ...]
    u: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not 0.0 < self.pi < 1.0:
            raise ValueError("pi must lie strictly between 0 and 1")
        m = _check_tables(self.m, "m")
        u = _check_tables(self.u, "u")
        if len(m) != len(u) or any(a.size != b.size for a, b in zip(m, u)):
            raise ValueError("m and u must have matching shapes")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "u", u)

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(t.size for t in self.m)


@dataclass(frozen=True, eq=False)
class PosteriorSet:
    """Per-unit membership posteriors and hard labels.

    ``converged`` is false when the fit stopped at its iteration limit
    before the tables settled; ``iterations`` counts the EM map
    evaluations the fit made after scoring its start.
    """

    p_hat: np.ndarray
    delta_hat: np.ndarray
    loglik_trace: tuple[float, ...] = ()
    design_weighted_mean: float | None = None
    converged: bool = True
    iterations: int = 0


@dataclass(frozen=True)
class PropensityTotals:
    """Inverse-propensity-corrected big-data totals."""

    N_b2: float
    T_b2: float
    classified: int


def _validate_z(z, levels) -> np.ndarray:
    z = np.asarray(z, np.int64)
    z = z[:, None] if z.ndim == 1 else z
    if z.shape[1] != len(levels):
        raise ValueError(f"z has {z.shape[1]} columns, model has {len(levels)}")
    for k, D in enumerate(levels):
        col = z[:, k]
        if col.min() < 1 or col.max() > D:
            raise ValueError(f"z column {k + 1} outside 1..{D}")
    return z


def estimate_m(big: BigSample, levels=None) -> tuple[np.ndarray, ...]:
    """Level frequencies of each matching variable inside the big source.

    ``levels`` enumerates the domain sizes ``D_k``; by default they are
    inferred from the observed maxima.  Levels never seen in the big
    source keep frequency zero -- that is what the available data say.
    """
    if big.z is None or len(big) == 0:
        raise ValueError("big sample must carry z rows")
    z = big.z[:, None] if big.z.ndim == 1 else big.z
    if levels is None:
        levels = tuple(int(z[:, k].max()) for k in range(z.shape[1]))
    z = _validate_z(z, levels)
    out = []
    for k, D in enumerate(levels):
        counts = np.bincount(z[:, k] - 1, minlength=D).astype(float)
        out.append(counts / z.shape[0])
    return tuple(out)


def initial_u(z, d, levels) -> tuple[np.ndarray, ...]:
    """Starting tables for EM: smoothed design-weighted frequencies.

    Each cell receives ``1 / (2 n)`` before normalisation so every
    enumerated level starts with support.
    """
    z = _validate_z(z, levels)
    d = np.asarray(d, float)
    n = z.shape[0]
    out = []
    for k, D in enumerate(levels):
        freq = np.bincount(z[:, k] - 1, weights=d, minlength=D)
        freq = freq / freq.sum() + 1.0 / (2 * n)
        out.append(freq / freq.sum())
    return tuple(out)


def _products(tables, z: np.ndarray) -> np.ndarray:
    out = tables[0][z[:, 0] - 1].copy()
    for k in range(1, z.shape[1]):
        out *= tables[k][z[:, k] - 1]
    return out


def _posterior_from_mixture(a: np.ndarray, b: np.ndarray):
    """Posterior ``a / (a + b)`` and likelihood ``a + b`` of the inside part
    ``a = pi * prod m`` against the outside part ``b = (1 - pi) * prod u``."""
    denom = a + b
    if (denom <= 0.0).any():
        raise DegenerateFitError(
            "posterior undefined: a level has zero frequency in both sources"
        )
    return a / denom, denom


def posterior(model: ClassifierModel, z) -> np.ndarray:
    """Membership posterior for each row of ``z`` under ``model``."""
    z = _validate_z(z, model.levels)
    p, _ = _posterior_from_mixture(
        model.pi * _products(model.m, z), (1.0 - model.pi) * _products(model.u, z)
    )
    return p


# running radix product above which the partial cell code is re-ranked, so
# that a code times the next domain size stays inside int64
_CODE_LIMIT = 2**62


def _cells(z: np.ndarray, levels) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of ``z`` in lexicographic order, and each row's cell.

    Rows are coded as the mixed-radix integer
    ``((z1-1)·D2 + (z2-1))·D3 + ...``, which orders like the rows, so a
    1-D ``np.unique`` replaces a row sort.  When the radix product would
    pass ``_CODE_LIMIT`` the partial code is replaced by its rank, which
    keeps the order and stays below ``n``.
    """
    code = z[:, 0] - 1
    radix = levels[0]
    for k in range(1, len(levels)):
        D = levels[k]
        if radix * D > _CODE_LIMIT:
            code = np.unique(code, return_inverse=True)[1]
            radix = int(code.max()) + 1
        code = code * D + (z[:, k] - 1)
        radix *= D
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    return z[first], inverse


def classify(posteriors) -> np.ndarray:
    """Hard labels: 1 when the posterior strictly exceeds one half."""
    p = np.asarray(getattr(posteriors, "p_hat", posteriors), float)
    return (p > 0.5).astype(np.int64)


def _em_map(sample: ProbabilitySample, model: ClassifierModel):
    """The plain EM map of ``model`` on ``sample``'s distinct z cells.

    Returns ``(step, inverse, offsets)``.  ``step(u) -> (F(u), p_cells,
    loglik)`` is one E-step and one M-step: the cell posteriors and the
    design-weighted log-likelihood at ``u``, and ``F(u)``, the
    posterior-(1-p)-weighted level frequencies.  ``u`` is one flat vector
    in which column k's table sits at ``offsets[k]:offsets[k+1]``, and
    ``inverse`` maps each unit to its cell.
    """
    levels = model.levels
    z = _validate_z(sample.z, levels)
    # collapse to distinct z cells: the posterior is a function of the cell,
    # so EM cost scales with distinct cells rather than sample size
    rows, inverse = _cells(z, levels)
    w = np.bincount(inverse, weights=sample.d)
    a = model.pi * _products(model.m, rows)
    out_prior = 1.0 - model.pi
    # cell j's level of column k sits at flat[k, j]
    offsets = np.cumsum((0,) + levels)
    flat = np.ascontiguousarray((rows - 1 + offsets[:-1]).T)
    flat_all = flat.ravel()
    mass = np.empty(flat.shape)
    mass_all = mass.reshape(-1)

    def step(u):
        u_prod = u[flat[0]]
        for k in range(1, len(levels)):
            u_prod *= u[flat[k]]
        p_cells, cell_lik = _posterior_from_mixture(a, out_prior * u_prod)
        ll = float(np.dot(w, np.log(cell_lik)))
        out_mass = w * (1.0 - p_cells)
        denom = out_mass.sum()
        if denom <= 0.0:
            raise DegenerateFitError("no design weight left outside the big source")
        # every column's level sums in one bincount: each bin adds the
        # same cells in the same order as a per-column bincount would
        mass[...] = out_mass
        new_u = np.bincount(flat_all, weights=mass_all, minlength=offsets[-1]) / denom
        return new_u, p_cells, ll

    return step, inverse, offsets


def _squarem_point(u0, u1, u2, column):
    """SQUAREM's extrapolation from the plain steps ``u0 -> u1 -> u2``.

    With ``r = u1 - u0``, ``v = u2 - 2 u1 + u0`` and the S3 step length
    ``alpha = min(-|r| / |v|, -1)`` the point is
    ``u0 - 2 alpha r + alpha^2 v``, each column's block renormalised
    (``column`` names each entry's block).  ``alpha = -1`` gives ``u2``.
    Returns None when ``v`` is zero or the point has a negative or
    non-finite entry.
    """
    r = u1 - u0
    v = u2 - 2.0 * u1 + u0
    v_norm = math.sqrt(v @ v)
    if v_norm == 0.0:
        return None
    alpha = min(-math.sqrt(r @ r) / v_norm, -1.0)
    x = u0 - 2.0 * alpha * r + alpha * alpha * v
    sums = np.bincount(column, weights=x)
    # a NaN fails the first test and an infinite entry the last
    if not (x.min() >= 0.0 and sums.min() > 0.0 and sums.max() < math.inf):
        return None
    return x / sums[column]


def em_fit(
    sample: ProbabilitySample,
    model: ClassifierModel,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> tuple[ClassifierModel, PosteriorSet]:
    """Estimate the outside-source tables ``u`` by EM on the design sample.

    ``model`` supplies the fixed prior ``pi``, the fixed inside tables
    ``m``, and the starting ``u``.  The EM map is accelerated by SQUAREM
    (Varadhan & Roland 2008, step length S3): each cycle takes two plain
    steps ``u1 = F(u0)``, ``u2 = F(u1)`` and extrapolates along them, and
    falls back to ``u2`` when the extrapolated point has a negative entry,
    makes the posterior degenerate or lowers the log-likelihood.  The fit
    converges when one plain step moves no entry of ``u`` by more than
    ``tol``, and returns that step's tables with their posteriors.

    ``max_iter`` bounds the map evaluations (one E-step and one M-step
    each) after the one that scores the starting tables; a fit that
    reaches it says ``converged=False`` and sends a WARNING to the
    ``bigsurv.classifier`` logger.  ``loglik_trace`` holds the
    log-likelihood of each accepted iterate and ``iterations`` the map
    evaluations.  Raises :class:`AscentViolationError` if a plain step
    lowers the design-weighted log-likelihood beyond floating slack, and
    :class:`DegenerateFitError` if the posterior mass outside the big
    source vanishes.
    """
    integral = isinstance(max_iter, (int, np.integer)) and not isinstance(max_iter, bool)
    if not integral or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, not {max_iter!r}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be a number >= 0, not {tol!r}")
    if sample.z is None:
        raise ValueError("sample must carry z rows")
    em_step, inverse, offsets = _em_map(sample, model)
    column = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    budget = max_iter + 1
    evaluations = 0

    def evaluate(x, ll_from=None):
        # one map evaluation; ``ll_from`` is the log-likelihood of the point
        # whose plain step gave ``x``, so the ascent guard applies to it
        nonlocal evaluations
        evaluations += 1
        fx, p, ll = em_step(x)
        if ll_from is not None and ll < ll_from - ASCENT_SLACK * max(1.0, abs(ll_from)):
            raise AscentViolationError(
                f"log-likelihood decreased from {ll_from!r} to {ll!r}"
            )
        return x, fx, p, ll

    # the accepted iterate, F of it, its cell posteriors and log-likelihood
    u, fu, p_cells, ll = evaluate(np.concatenate(model.u))
    trace = [ll]
    converged = False
    while not converged and evaluations < budget:
        # the plain step u1 = F(u); a converged one is scored and returned
        converged = float(np.abs(fu - u).max()) <= tol
        step = evaluate(fu, ll)
        u1, u2, _, ll1 = step
        # while evaluations remain and u1 -> u2 does not converge, try the
        # extrapolated point, then u2; otherwise u1 is the accepted iterate
        if not converged and evaluations < budget and float(np.abs(u2 - u1).max()) > tol:
            squared = None
            x = _squarem_point(u, u1, u2, column)
            if x is not None:
                with contextlib.suppress(DegenerateFitError):
                    squared = evaluate(x)
            if squared is not None and squared[3] >= ll:
                step = squared
            elif evaluations < budget:
                step = evaluate(u2, ll1)
        u, fu, p_cells, ll = step
        trace.append(ll)
    if not converged:
        _log.warning(
            "EM stopped at max_iter = %d before the largest u change fell "
            "below tol = %g", max_iter, tol,
        )
    p_hat = p_cells[inverse]
    fitted = ClassifierModel(
        pi=model.pi, m=model.m, u=tuple(np.split(u, offsets[1:-1]))
    )
    posteriors = PosteriorSet(
        p_hat=p_hat,
        delta_hat=classify(p_hat),
        loglik_trace=tuple(trace),
        design_weighted_mean=float(np.dot(sample.d, p_hat) / sample.d.sum()),
        converged=converged,
        iterations=evaluations - 1,
    )
    return fitted, posteriors


def fit_membership(
    sample: ProbabilitySample, big: BigSample, pi: float, levels=None
) -> tuple[ClassifierModel, PosteriorSet]:
    """Fit the membership mixture with prior ``pi`` on the two sources.

    ``m`` comes from the big source's level frequencies and ``u`` from EM
    on the design sample, started at :func:`initial_u`.  ``levels`` (the
    domain sizes ``D_k``) default to the per-column maxima over both
    sources.  Returns :func:`em_fit`'s fitted model and posteriors.
    """
    if sample.z is None:
        raise ValueError("the probability sample has no z columns")
    if big.z is None:
        raise ValueError("the big source has no z columns")
    width = sample.z.shape[1]
    if big.z.shape[1] != width:
        raise ValueError(
            f"the big source has {big.z.shape[1]} z columns, "
            f"the probability sample {width}"
        )
    if levels is None:
        levels = tuple(
            int(max(sample.z[:, k].max(), big.z[:, k].max())) for k in range(width)
        )
    model0 = ClassifierModel(
        pi=pi, m=estimate_m(big, levels), u=initial_u(sample.z, sample.d, levels)
    )
    return em_fit(sample, model0)


def propensity_totals(big: BigSample, model: ClassifierModel) -> PropensityTotals:
    """Inverse-propensity totals over the big source.

    Units the model labels as members contribute ``(1, y) / p_hat``;
    units it mislabels contribute nothing, and the division by the
    posterior compensates on average.
    """
    if big.z is None:
        raise ValueError("big sample must carry z rows")
    p = posterior(model, big.z)
    labels = classify(p)
    keep = labels == 1
    inv = big.multiplicity[keep] / p[keep]
    return PropensityTotals(
        N_b2=float(inv.sum()),
        T_b2=float(np.dot(inv, big.values[keep])),
        classified=int(keep.sum()),
    )


def pdi2_total(
    sample: ProbabilitySample, big: BigSample, model: ClassifierModel
) -> EstimateReport:
    """Post-stratified data integration with classified membership.

    :func:`pdi_total` with the unknown matched membership replaced by
    model labels on the design sample and the big-data totals by their
    inverse-propensity-corrected versions.  Valid when membership is
    ignorable given the matching variables.  The variance is
    :func:`pdi_total`'s plug-in one: it leaves out the error of the
    fitted classifier, and is far too small.  Over the 1,000 default-seed
    replicates of study two its relative bias is about -0.7.
    """
    if sample.z is None or sample.y is None:
        raise ValueError("sample must carry z rows and y values")
    pt = propensity_totals(big, model)
    totals = BigDataTotals(T_b=pt.T_b2, N_b=pt.N_b2, N=big.N)
    report = pdi_total(sample, classify(posterior(model, sample.z)), sample.y, totals)
    return replace(
        report,
        estimator="pdi2",
        notes=(
            "assumes membership is ignorable given the matching variables",
            "variance treats the classified labels as known, so it is far too "
            "small: its relative bias is about -0.7 in study two",
        ),
    )
