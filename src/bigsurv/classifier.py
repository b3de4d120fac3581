"""Semi-supervised naive-Bayes classification of big-data membership.

When the probability sample cannot be matched to the big source by id,
membership is predicted from shared categorical variables ``z``.  The
class-conditional level frequencies inside the big source (``m``) are
observed directly; the frequencies outside (``u``) are estimated by an
EM run over the probability sample with the membership prior
``pi = N_b / N`` held fixed.  The fit's labels stratify the design
sample, and posteriors over the big source correct its totals by
inverse-propensity weighting.

The E-step posterior for a unit with levels ``z`` is

    p(z) = pi * prod_k m_k[z_k] / (pi * prod_k m_k[z_k]
                                   + (1 - pi) * prod_k u_k[z_k])

and the M-step re-estimates each ``u_k`` as the design-weighted,
posterior-(1-p)-weighted level frequencies.  SQUAREM extrapolates this
map; the design-weighted observed-data log-likelihood is non-decreasing
across accepted iterates, and the fitter enforces that invariant.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .estimators import BigDataTotals, EstimateReport, pdi_total
from .population import BigSample, ProbabilitySample, _max, _min, _sum, _whole

__all__ = [
    "DegenerateFitError",
    "AscentViolationError",
    "ClassifierModel",
    "PosteriorSet",
    "estimate_m",
    "initial_u",
    "posterior",
    "classify",
    "em_fit",
    "fit_membership",
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
        t = np.array(t, float)  # a copy of its own, frozen below
        if t.ndim != 1 or t.size == 0:
            raise ValueError(f"{what}[{k}] must be a non-empty vector")
        # a NaN fails the range test too, so finiteness is asked only then
        if not (_min(t) >= -1e-12 and _max(t) <= 1 + 1e-12):
            if not np.isfinite(t).all():
                raise ValueError(f"{what}[{k}] entries must be finite")
            raise ValueError(f"{what}[{k}] entries must lie in [0, 1]")
        if abs(_sum(t) - 1.0) > 1e-10:
            raise ValueError(f"{what}[{k}] must sum to one")
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


def _level_index(z, levels) -> list[np.ndarray]:
    """Zero-based level of each row of ``z``, one int64 vector per column.

    Every table looked up at a column shares its vector.  Raises
    ``ValueError`` when ``z`` does not have one column per entry of
    ``levels``, and one naming the column when a level lies outside
    ``1..D_k`` or is not a whole number (:func:`~bigsurv.population._whole`).
    """
    z = _whole(z)
    z = z[:, None] if z.ndim == 1 else z
    if z.shape[1] != len(levels):
        raise ValueError(f"z has {z.shape[1]} columns, model has {len(levels)}")
    # one C-ordered pass gives each column's levels as a contiguous row
    index = list(np.subtract(z.astype(np.int64, copy=False).T, 1, order="C"))
    for k, (col, D) in enumerate(zip(index, levels)):
        # as unsigned, a level below zero is above every D: one reduction
        # checks both ends
        if _max(col.view(np.uint64)) >= D:
            raise ValueError(f"z column {k + 1} outside 1..{D}")
    return index


def estimate_m(big: BigSample, levels) -> tuple[np.ndarray, ...]:
    """Level frequencies of each matching variable inside the big source.

    ``levels`` enumerates the domain sizes ``D_k``.  Levels never seen in
    the big source keep frequency zero -- that is what the available data
    say.
    """
    if big.z is None or len(big) == 0:
        raise ValueError("big sample must carry z rows")
    index = _level_index(big.z, levels)
    return tuple(
        np.bincount(col, minlength=D).astype(float) / col.size
        for col, D in zip(index, levels)
    )


def initial_u(z, d, levels) -> tuple[np.ndarray, ...]:
    """Starting tables for EM: smoothed design-weighted frequencies.

    Each cell receives ``1 / (2 n)`` before normalisation so every
    enumerated level starts with support.
    """
    index = _level_index(z, levels)
    d = np.asarray(d, float)
    n = index[0].size
    out = []
    for col, D in zip(index, levels):
        freq = np.bincount(col, weights=d, minlength=D)
        freq = freq / freq.sum() + 1.0 / (2 * n)
        out.append(freq / freq.sum())
    return tuple(out)


def _products(tables, index) -> np.ndarray:
    """``prod_k tables[k][index[k]]``, one entry per row of the index."""
    out = tables[0][index[0]]  # fancy indexing already copies
    for table, col in zip(tables[1:], index[1:]):
        out *= table[col]
    return out


def _posterior_from_mixture(a: np.ndarray, b: np.ndarray):
    """Posterior ``a / (a + b)`` and likelihood ``a + b`` of the inside part
    ``a = pi * prod m`` against the outside part ``b = (1 - pi) * prod u``."""
    denom = a + b
    if _min(denom) <= 0.0:
        raise DegenerateFitError(
            "posterior undefined: a level has zero frequency in both sources"
        )
    return a / denom, denom


def posterior(model: ClassifierModel, z) -> np.ndarray:
    """Membership posterior for each row of ``z`` under ``model``."""
    index = _level_index(z, model.levels)
    p, _ = _posterior_from_mixture(
        model.pi * _products(model.m, index), (1.0 - model.pi) * _products(model.u, index)
    )
    return p


# running radix product above which the partial cell code is re-ranked, so
# that a code times the next domain size stays inside int64
_CODE_LIMIT = 2**62


def _rank(code: np.ndarray, radix: int) -> tuple[np.ndarray, int]:
    """Each entry's rank among the distinct values of ``code``, all in
    ``0..radix-1``, and the number of distinct values.

    When ``radix`` is at most four times the length, the ranks come from a
    cumulative count over a table of every code, with no sort; otherwise
    from ``np.unique``.  Both give the same ranks.
    """
    if radix <= 4 * code.size:
        seen = np.zeros(radix, np.intp)
        seen[code] = 1
        np.cumsum(seen, out=seen)
        return seen[code] - 1, int(seen[-1])
    distinct, inverse = np.unique(code, return_inverse=True)
    return inverse, distinct.size


def _cells(index, levels) -> tuple[list[np.ndarray], np.ndarray]:
    """Distinct rows of the level index in lexicographic order, and each
    row's cell.

    Rows are coded as the mixed-radix integer
    ``(l1·D2 + l2)·D3 + ...`` of their zero-based levels, which orders like
    the rows, so ranking the codes replaces a row sort.  When the radix
    product would pass ``_CODE_LIMIT`` the partial code is replaced by its
    rank, which keeps the order and stays below ``n``.  Returns one vector
    per column holding each cell's level, and the cell of each row.
    """
    code = index[0]
    radix = levels[0]
    for k in range(1, len(levels)):
        D = levels[k]
        if radix * D > _CODE_LIMIT:
            code, radix = _rank(code, radix)
        code = code * D + index[k]
        radix *= D
    inverse, count = _rank(code, radix)
    cells = []
    for col in index:
        cell = np.empty(count, np.int64)
        cell[inverse] = col  # every row of a cell holds the same level
        cells.append(cell)
    return cells, inverse


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
    # collapse to distinct z cells: the posterior is a function of the cell,
    # so EM cost scales with distinct cells rather than sample size
    cells, inverse = _cells(_level_index(sample.z, levels), levels)
    w = np.bincount(inverse, weights=sample.d)
    a = model.pi * _products(model.m, cells)
    out_prior = 1.0 - model.pi
    # cell j's level of column k sits at flat[k, j]
    offsets = np.cumsum((0,) + levels)
    flat = np.stack([cell + off for cell, off in zip(cells, offsets)])
    first, rest = flat[0], tuple(flat[1:])
    flat_all = flat.ravel()
    mass = np.empty(flat.shape)
    mass_all = mass.reshape(-1)

    def step(u):
        u_prod = u[first]
        for at in rest:
            u_prod *= u[at]
        p_cells, cell_lik = _posterior_from_mixture(a, out_prior * u_prod)
        ll = float(np.dot(w, np.log(cell_lik)))
        out_mass = w * (1.0 - p_cells)
        denom = _sum(out_mass)
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
    if not (_min(x) >= 0.0 and _min(sums) > 0.0 and _max(sums) < math.inf):
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
        converged = float(_max(np.abs(fu - u))) <= tol
        step = evaluate(fu, ll)
        u1, u2, _, ll1 = step
        # while evaluations remain and u1 -> u2 does not converge, try the
        # extrapolated point, then u2; otherwise u1 is the accepted iterate
        if not converged and evaluations < budget and _max(np.abs(u2 - u1)) > tol:
            squared = None
            x = _squarem_point(u, u1, u2, column)
            if x is not None:
                try:
                    squared = evaluate(x)
                except DegenerateFitError:
                    pass
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
    tables = tuple(u[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:]))
    fitted = ClassifierModel(pi=model.pi, m=model.m, u=tables)
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


def pdi2_total(
    sample: ProbabilitySample,
    big: BigSample,
    model: ClassifierModel,
    posteriors: PosteriorSet,
) -> EstimateReport:
    """Post-stratified data integration with classified membership.

    :func:`pdi_total` with the unknown matched membership replaced by the
    labels ``posteriors.delta_hat`` on the design sample, and the big-data
    totals by their inverse-propensity-corrected versions.  ``model`` and
    ``posteriors`` are the pair :func:`fit_membership` (or :func:`em_fit`)
    returned for ``sample``.  Each big row that :func:`classify` labels a
    member contributes ``multiplicity * (1, y) / p`` at its posterior
    ``p``; rows labelled outside contribute nothing, and the division by
    the posterior compensates on average.

    Valid when membership is ignorable given the matching variables.  The
    variance is :func:`pdi_total`'s plug-in one: it leaves out the error
    of the fitted classifier, and is far too small.  Over the 1,000
    default-seed replicates of study two its relative bias is about -0.7.
    """
    if sample.y is None:
        raise ValueError("sample must carry y values")
    if big.z is None:
        raise ValueError("big sample must carry z rows")
    labels = posteriors.delta_hat
    if len(labels) != sample.n:
        raise ValueError(
            f"posteriors holds {len(labels)} labels, the sample {sample.n} units"
        )
    p = posterior(model, big.z)
    keep = np.flatnonzero(classify(p))
    inv = big.multiplicity[keep] / p[keep]
    totals = BigDataTotals(
        T_b=float(np.dot(inv, big.values[keep])), N_b=float(inv.sum()), N=big.N
    )
    report = pdi_total(sample, labels, sample.y, totals)
    return replace(
        report,
        estimator="pdi2",
        notes=(
            "assumes membership is ignorable given the matching variables",
            "variance treats the classified labels as known, so it is far too "
            "small: its relative bias is about -0.7 in study two",
        ),
    )
