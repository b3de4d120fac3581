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

import itertools
import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

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


def _frozen_tables(m, u) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """``m`` and ``u`` as read-only float copies, every table checked in one
    pass over their concatenation.

    Each table must be a non-empty vector, ``m`` and ``u`` must pair up in
    size, and every entry must lie in [0, 1] and each table sum to one;
    every fault is a ``ValueError`` naming the table (``m[k]`` or
    ``u[k]``).
    """
    tables = [np.asarray(t, float) for t in (*m, *u)]
    sizes = [t.size if t.ndim == 1 else 0 for t in tables]
    bounds = [0, *itertools.accumulate(sizes)]
    flat = np.concatenate(tables, axis=None)  # a copy of its own, frozen below
    # a NaN fails the range test; only a model that fails is checked table
    # by table, in order, for the first fault
    if not (
        0 not in sizes and sizes[:len(m)] == sizes[len(m):]
        and _min(flat) >= -1e-12 and _max(flat) <= 1 + 1e-12
        and _max(np.abs(np.add.reduceat(flat, bounds[:-1]) - 1.0)) <= 1e-10
    ):
        for k, t in enumerate(tables):
            name = f"m[{k}]" if k < len(m) else f"u[{k - len(m)}]"
            if not sizes[k]:
                raise ValueError(f"{name} must be a non-empty vector")
            if not np.isfinite(t).all():
                raise ValueError(f"{name} entries must be finite")
            if not (_min(t) >= -1e-12 and _max(t) <= 1 + 1e-12):
                raise ValueError(f"{name} entries must lie in [0, 1]")
            if abs(_sum(t) - 1.0) > 1e-10:
                raise ValueError(f"{name} must sum to one")
        raise ValueError("m and u must have matching shapes")
    flat.setflags(write=False)
    frozen = tuple(flat[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))
    return frozen[:len(m)], frozen[len(m):]


@dataclass(frozen=True, eq=False)
class ClassifierModel:
    """Naive-Bayes membership model: prior plus per-variable level tables."""

    pi: float
    m: tuple[np.ndarray, ...]
    u: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not 0.0 < self.pi < 1.0:
            raise ValueError("pi must lie strictly between 0 and 1")
        m, u = _frozen_tables(self.m, self.u)
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
    return _frequencies(_level_index(big.z, levels), levels)


def _frequencies(index, levels, counts=None) -> tuple[np.ndarray, ...]:
    """:func:`estimate_m` on a level index, each row counted ``counts``
    times (whole numbers, so every sum is exact) or once."""
    n = index[0].size if counts is None else counts.sum()
    return tuple(
        np.bincount(col, counts, minlength=D) / n for col, D in zip(index, levels)
    )


def initial_u(z, d, levels) -> tuple[np.ndarray, ...]:
    """Starting tables for EM: smoothed design-weighted frequencies.

    Each cell receives ``1 / (2 n)`` before normalisation so every
    enumerated level starts with support.
    """
    return _smoothed_frequencies(_level_index(z, levels), d, levels)


def _smoothed_frequencies(index, d, levels) -> tuple[np.ndarray, ...]:
    """:func:`initial_u` on a level index."""
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


def _posterior_from_mixture(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Posterior ``a / (a + b)`` of the inside part ``a = pi * prod m``
    against the outside part ``b = (1 - pi) * prod u``."""
    denom = a + b
    if _min(denom) <= 0.0:
        raise DegenerateFitError(_UNDEFINED)
    return a / denom


_UNDEFINED = "posterior undefined: a level has zero frequency in both sources"


def _posterior(model: ClassifierModel, index) -> np.ndarray:
    """Membership posterior under ``model`` of each row of a level index
    (rows of ``z``, or cells)."""
    return _posterior_from_mixture(
        model.pi * _products(model.m, index), (1.0 - model.pi) * _products(model.u, index)
    )


def posterior(model: ClassifierModel, z) -> np.ndarray:
    """Membership posterior for each row of ``z`` under ``model``."""
    return _posterior(model, _level_index(z, model.levels))


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


class _EmRow(NamedTuple):
    """One EM fit ready for a stack (see :func:`_em_stack`).

    ``cells`` holds each of the sample's distinct z cells as one level
    vector per column, ``inverse`` each unit's cell, ``w`` the design
    weight of each cell and ``a = pi * prod m`` its fixed inside part;
    ``model`` supplies ``pi``, ``m`` and the starting ``u``, ``d`` is the
    sample's design weights and ``key`` the caller's tag for the fit.
    """

    key: object
    model: ClassifierModel
    cells: list
    inverse: np.ndarray
    w: np.ndarray
    a: np.ndarray
    d: np.ndarray


def _em_row(sample: ProbabilitySample, model: ClassifierModel, key=None, index=None) -> _EmRow:
    """The EM row of ``model`` on ``sample``, tagged ``key``; ``index`` is
    the sample's level index when the caller has it.

    The posterior is a function of the z cell, so the fit runs over the
    sample's distinct cells and its cost scales with them, not with the
    sample size.
    """
    levels = model.levels
    if index is None:
        if sample.z is None:
            raise ValueError("sample must carry z rows")
        index = _level_index(sample.z, levels)
    cells, inverse = _cells(index, levels)
    w = np.bincount(inverse, weights=sample.d)
    # the smallest index type keeps the unit-to-cell map small while the
    # fit waits in a stack
    inverse = inverse.astype(np.min_scalar_type(w.size - 1), copy=False)
    return _EmRow(key, model, cells, inverse, w, model.pi * _products(model.m, cells), sample.d)


class _EmMap:
    """The plain EM map over a stack of ``width`` slots, each holding one
    row that shares ``levels`` and has at most ``cells`` cells; a step runs
    over the first slots, one per point it is given.

    Every buffer is allocated once, ``cells`` wide, and a row keeps its
    slot until another is put there.  A row's cells are padded to the
    bound; a padded cell has weight zero and inside part one, so it adds
    ``+0.0`` to a bin of its own row and changes no sum.  The elementwise
    work and the M-step's ``bincount`` run once over the stack.  The
    log-likelihood dot product and the out-mass sum run per row, on 1-D
    views as long as the row's cell count: with the same operands in the
    same order, every row's results are bit-identical to a stack of one.
    """

    def __init__(self, levels, width: int, cells: int):
        self.levels = tuple(levels)
        self.offsets = np.cumsum((0,) + self.levels)
        self.size = int(self.offsets[-1])
        self.cells = cells
        # each entry of ``width`` flattened rows of ``u`` numbered by its
        # row and column block, row j's column k as j K + k
        column = np.repeat(np.arange(len(self.levels)), np.diff(self.offsets))
        self.blocks = np.add.outer(np.arange(width) * len(self.levels), column).reshape(-1)
        self.rows = [None] * width
        self._x = np.empty((width, self.size))
        self._b, self._denom = np.empty((2, width, 1))
        # a row's bins and out-masses, column by column, and per-cell arrays
        self._index = np.empty((width, len(self.levels), cells), np.int64)
        self._mass = np.empty(self._index.shape)
        self._w, self._a, self._lik, self._p, self._log, self._out = np.empty((6, width, cells))
        # each slot's weights, log-likelihoods, out-masses and posteriors as
        # 1-D views the length of its row
        self._views = [None] * width

    def put(self, slot: int, row: _EmRow) -> None:
        """Place ``row`` in ``slot``."""
        if row.model.levels != self.levels:
            raise ValueError(
                f"a row with levels {row.model.levels} in a stack of {self.levels}"
            )
        c = row.w.size
        if c > self.cells:
            raise ValueError(f"a row with {c} cells in a stack of {self.cells}")
        self.rows[slot] = row
        self._b[slot] = 1.0 - row.model.pi
        for k, at in enumerate(self.offsets[:-1] + slot * self.size):
            np.add(row.cells[k], at, out=self._index[slot, k, :c])
            self._index[slot, k, c:] = at
        self._w[slot, :c], self._w[slot, c:] = row.w, 0.0
        self._a[slot, :c], self._a[slot, c:] = row.a, 1.0
        self._views[slot] = (
            self._w[slot, :c], self._log[slot, :c], self._out[slot, :c], self._p[slot, :c]
        )

    def posteriors(self, slot: int) -> np.ndarray:
        """The cell posteriors the last step computed in ``slot``."""
        return self._views[slot][3]

    def step(self, points):
        """One E-step and one M-step at each point, ``points[s]`` in slot s.

        A point is a flat ``u``, column k's table at
        ``offsets[k]:offsets[k+1]``.  Returns ``(F, p, ll, faults, gaps)``:
        ``F[s]``, the posterior-(1-p)-weighted level frequencies, in a new
        array; ``p[s]``, the cell posteriors (a buffer the next step
        reuses); and per slot the design-weighted log-likelihood, the
        :class:`DegenerateFitError` the point raises or None, and the
        largest ``|F[s] - points[s]|``.
        """
        n = len(points)
        x = self._x[:n]
        flat = x.reshape(-1)
        np.concatenate(points, out=flat)
        index = self._index[:n]
        a, w = self._a[:n], self._w[:n]
        lik, p, out = self._lik[:n], self._p[:n], self._out[:n]
        # prod_k u[level k of the cell], multiplied in column order, times
        # 1 - pi, plus the inside part: the likelihood a + b of each cell
        gathered = flat.take(index.reshape(-1)).reshape(index.shape)
        np.multiply.reduce(gathered, axis=1, out=lik)
        lik *= self._b[:n]
        lik += a
        ll, faults = [0.0] * n, [None] * n
        denom = self._denom[:n]
        denom.fill(1.0)
        # a slot whose point is degenerate divides by zero here; its fault
        # is reported instead of its results
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(a, lik, out=p)
            np.log(lik, out=self._log[:n])
            np.multiply(w, np.subtract(1.0, p, out=out), out=out)
            # padded cells have likelihood about one, so only a real cell
            # can fail the test
            undefined = _min(lik, axis=None) <= 0.0 and (
                np.minimum.reduce(lik, axis=1) <= 0.0
            ).tolist()
            for slot in range(n):
                if undefined and undefined[slot]:
                    faults[slot] = DegenerateFitError(_UNDEFINED)
                    continue
                w_row, log_lik, out_mass, _ = self._views[slot]
                ll[slot] = float(w_row.dot(log_lik))
                total = _sum(out_mass)
                if total <= 0.0:
                    faults[slot] = DegenerateFitError(
                        "no design weight left outside the big source"
                    )
                else:
                    denom[slot] = total
            mass = self._mass[:n]
            mass[...] = out[:, None, :]
            fx = np.bincount(index.reshape(-1), weights=mass.reshape(-1), minlength=flat.size)
            fx = fx.reshape(x.shape)
            fx /= denom
            gaps = np.maximum.reduce(np.abs(fx - x), axis=1).tolist()
        return fx, p, ll, faults, gaps


def _squarem_points(u0, u1, u2, blocks):
    """SQUAREM's extrapolation from the plain steps ``u0 -> u1 -> u2``, one
    row of each per fit.

    With ``r = u1 - u0``, ``v = u2 - 2 u1 + u0`` and the S3 step length
    ``alpha = min(-|r| / |v|, -1)`` a row's point is
    ``u0 - 2 alpha r + alpha^2 v``, each column's block renormalised;
    ``blocks`` numbers each entry of the flattened rows by its row and
    column (row j's column k is ``j K + k``).  ``alpha = -1`` gives ``u2``.
    Returns the points and a list saying which are usable: not where ``v``
    is zero or the point has a negative or non-finite entry.  The two
    norms are taken per row, on 1-D views.
    """
    r = u1 - u0
    v = u2 - 2.0 * u1 + u0
    usable, twice, square = [], [], []
    for r_row, v_row in zip(r, v):
        v_norm = math.sqrt(v_row.dot(v_row))
        usable.append(v_norm != 0.0)
        alpha = min(-math.sqrt(r_row.dot(r_row)) / v_norm, -1.0) if v_norm else -1.0
        twice.append((2.0 * alpha,))
        square.append((alpha * alpha,))
    x = u0 - np.array(twice) * r
    x += np.array(square) * v
    sums = np.bincount(blocks, weights=x.reshape(-1))
    # a NaN fails the first test and an infinite entry the last; only a
    # failing stack is tested row by row
    if _min(x, axis=None) >= 0.0 and _min(sums) > 0.0 and _max(sums) < math.inf:
        return x / sums[blocks].reshape(x.shape), usable
    by_row = sums.reshape(x.shape[0], -1)
    usable = np.logical_and(usable, np.minimum.reduce(x, axis=1) >= 0.0)
    usable &= np.minimum.reduce(by_row, axis=1) > 0.0
    usable &= np.maximum.reduce(by_row, axis=1) < math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        return x / sums[blocks].reshape(x.shape), usable.tolist()


def _ascent(fault, ll_from: float, ll: float):
    """``fault``, or else an :class:`AscentViolationError` when a plain step
    took the log-likelihood from ``ll_from`` down to ``ll`` beyond slack."""
    if fault is None and ll < ll_from - ASCENT_SLACK * max(1.0, abs(ll_from)):
        return AscentViolationError(f"log-likelihood decreased from {ll_from!r} to {ll!r}")
    return fault


def _squarem(row: _EmRow, tol: float, max_iter: int):
    """:func:`em_fit`'s SQUAREM cycle on one row, the one place it is written.

    Yields each flat ``u`` to evaluate and is sent back ``(F(u), ll,
    fault, gap, p)``, as :meth:`_EmMap.step` gives them for its slot: the
    plain step, the log-likelihood, the :class:`DegenerateFitError` or
    None, ``max |F(u) - u|`` and the cell posteriors (a buffer the next
    step reuses).  To extrapolate it yields ``(u0, u1, u2)`` and is sent
    back :func:`_squarem_points`' point, or None where that is unusable.
    Returns :func:`em_fit`'s ``(fitted, posteriors)``, or the fault that
    ended the fit.
    """
    budget, evals, converged, trace = max_iter + 1, 1, False, []
    u = np.concatenate(row.model.u)
    fu, ll, fault, gap, p = yield u
    if fault is not None:
        return fault
    trace.append(ll)
    while not converged and evals < budget:
        # the plain step u1 = F(u) may not lower the log-likelihood; a
        # converged one is scored and kept
        converged, u1 = gap <= tol, fu
        u2, ll1, fault, gap1, p1 = yield u1
        evals += 1
        fault = _ascent(fault, ll, ll1)
        if fault is not None:
            return fault
        # while evaluations remain and u1 -> u2 does not converge, the
        # extrapolated point is tried: it stands if it is defined and does
        # not lower the log-likelihood.  Otherwise u2 = F(u1), under the
        # ascent guard, while evaluations remain, or else u1, whose
        # posteriors the map has overwritten if the point was tried
        squared = not converged and evals < budget and gap1 > tol
        x = (yield u, u1, u2) if squared else None
        if x is not None:
            fx, llx, fault, gapx, px = yield x
            evals += 1
        if x is not None and fault is None and llx >= ll:
            u, fu, ll, gap, p = x, fx, llx, gapx, px
        elif squared and evals < budget:
            fu, ll, fault, gap, p = yield u2
            evals += 1
            fault = _ascent(fault, ll1, ll)
            if fault is not None:
                return fault
            u = u2
        else:
            u, fu, ll, gap, p = u1, u2, ll1, gap1, None if squared else p1
        trace.append(ll)
    if not converged:
        _log.warning(
            "EM stopped at max_iter = %d before the largest u change fell "
            "below tol = %g", max_iter, tol,
        )
    levels = row.model.levels
    tables = [u[end - D:end] for D, end in zip(levels, itertools.accumulate(levels))]
    fitted = ClassifierModel(pi=row.model.pi, m=row.model.m, u=tables)
    if p is None:
        # the map's posteriors at u, term for term
        p = _posterior_from_mixture(row.a, (1.0 - fitted.pi) * _products(fitted.u, row.cells))
    p_hat = p.take(row.inverse)
    return fitted, PosteriorSet(
        p_hat=p_hat,
        delta_hat=classify(p_hat),
        loglik_trace=tuple(trace),
        design_weighted_mean=float(np.dot(row.d, p_hat) / row.d.sum()),
        converged=converged,
        iterations=evals - 1,
    )


def _em_stack(next_row, width: int, cells: int, tol: float = 1e-8, max_iter: int = 1000):
    """Fit a stream of EM rows, none with more than ``cells`` cells, in one
    stack of ``width`` slots.

    Each row's fit is :func:`em_fit`'s, run by its own :func:`_squarem`
    generator, bit-identical to a stack of one: the stack steps the map at
    every slot's point, sends each generator its results and batches the
    extrapolations they ask for.  At the top of each step every free slot
    takes the next :class:`_EmRow` while ``next_row()`` gives one, and a
    row keeps its slot until it leaves.  A step runs over the slots up to
    the last one in use; a free slot below it keeps its last row and
    point, is stepped, and nothing reads it.  Yields ``(key, outcome)`` as
    each row leaves: ``outcome`` is :func:`em_fit`'s ``(fitted,
    posteriors)``, or the :class:`DegenerateFitError` or
    :class:`AscentViolationError` that ended the fit.  It ends when every
    slot is free and ``next_row()`` returns None.  A bad ``tol`` or
    ``max_iter`` raises ``ValueError`` at the first step.
    """
    integral = isinstance(max_iter, (int, np.integer)) and not isinstance(max_iter, bool)
    if not integral or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, not {max_iter!r}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be a number >= 0, not {tol!r}")
    emap, fits, points = None, [None] * width, [None] * width
    while True:
        for slot in range(width):
            if fits[slot] is None:
                row = next_row()
                if row is None:
                    break
                emap = emap or _EmMap(row.model.levels, width, cells)
                emap.put(slot, row)
                fits[slot] = _squarem(row, tol, max_iter)
                points[slot] = next(fits[slot])
        live = [slot for slot, fit in enumerate(fits) if fit is not None]
        if not live:
            return
        fx, _, lls, faults, gaps = emap.step(points[:live[-1] + 1])
        extrapolate = []
        for slot in live:
            sent = fx[slot], lls[slot], faults[slot], gaps[slot], emap.posteriors(slot)
            try:
                points[slot] = fits[slot].send(sent)
            except StopIteration as stop:
                # each outcome is handed on as its fit leaves, so that no
                # two are held at once
                fits[slot] = None
                yield emap.rows[slot].key, stop.value
                continue
            if isinstance(points[slot], tuple):
                extrapolate.append(slot)
        if extrapolate:
            u0, u1, u2 = (np.array(us) for us in zip(*(points[s] for s in extrapolate)))
            xs, usable = _squarem_points(u0, u1, u2, emap.blocks[:len(extrapolate) * emap.size])
            for slot, x, ok in zip(extrapolate, xs, usable):
                points[slot] = fits[slot].send(x if ok else None)


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
    ``tol``, and returns that step's tables with their posteriors.  It is
    the one-row case of the stacked fit that study two runs; the cycle is
    written once, in :func:`_squarem`.

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
    rows = [_em_row(sample, model)]
    cells = rows[0].w.size
    ((_, outcome),) = _em_stack(lambda: rows.pop() if rows else None, 1, cells, tol, max_iter)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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
    u = initial_u(sample.z, sample.d, levels)
    return em_fit(sample, ClassifierModel(pi=pi, m=estimate_m(big, levels), u=u))


class _CellTotals(NamedTuple):
    """A big source summed over its distinct z cells: each cell's levels
    (one vector per column), member count and value total, both counted
    with multiplicity, and the universe size ``N``."""

    cells: list[np.ndarray]
    count: np.ndarray
    total: np.ndarray
    N: int


def _cell_totals(cells, inverse, multiplicity, values, N: int) -> _CellTotals:
    """What :func:`pdi2_total` reads of a big source, summed per z cell.

    ``cells`` holds each cell's levels, as :func:`_cells` gives them, and
    ``inverse``, ``multiplicity`` and ``values`` one entry per row: its
    cell, count and value.  A cell with no row counted is left out, so
    study two passes only its population's member rows, counted once.
    """
    count = np.bincount(inverse, weights=multiplicity)
    total = np.bincount(inverse, weights=multiplicity * values)
    held = np.flatnonzero(count)
    return _CellTotals([c[held] for c in cells], count[held], total[held], N)


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
    the posterior compensates on average.  The posterior is a function of
    the z cell, so the totals are taken over the big source's cells.

    Valid when membership is ignorable given the matching variables.  The
    variance is :func:`pdi_total`'s plug-in one: it leaves out the error
    of the fitted classifier, and is far too small.  Over the 1,000
    default-seed replicates of study two its relative bias is about -0.7.
    """
    if big.z is None:
        raise ValueError("big sample must carry z rows")
    if big.values is None:
        raise ValueError("the big source was read without its value column ('y' or 'y_star')")
    cells, inverse = _cells(_level_index(big.z, model.levels), model.levels)
    totals = _cell_totals(cells, inverse, big.multiplicity, big.values, big.N)
    return _pdi2_from_cells(sample, totals, model, posteriors)


def _pdi2_from_cells(
    sample: ProbabilitySample, big: _CellTotals, model: ClassifierModel,
    posteriors: PosteriorSet,
) -> EstimateReport:
    """:func:`pdi2_total` on the big source's :func:`_cell_totals`."""
    if sample.y is None:
        raise ValueError("sample must carry y values")
    labels = posteriors.delta_hat
    if len(labels) != sample.n:
        raise ValueError(
            f"posteriors holds {len(labels)} labels, the sample {sample.n} units"
        )
    p = _posterior(model, big.cells)
    keep = np.flatnonzero(classify(p))
    p = p[keep]
    totals = BigDataTotals(
        T_b=float(_sum(big.total[keep] / p)), N_b=float(_sum(big.count[keep] / p)), N=big.N
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
