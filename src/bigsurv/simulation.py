"""Monte Carlo harness for the two bundled studies.

Study one stresses measurement error: a continuous-outcome universe
(``generate_population_sim1``) with a stratified big-data selection and
three scenarios -- proxies nowhere, proxies in the big source, proxies
in the probability sample.  Study two stresses unknown membership: a
categorical universe (``generate_population_sim2``) where membership
must be classified before integrating.

One population is built per study seed; each replicate redraws the
samples (study one: the design sample and the big-data selection; study
two: the design sample and the Bernoulli membership, holding the
outcomes fixed).  Replicate streams are keyed by
``(master_seed, replicate, attempt, role)``, so results are independent
of evaluation order and safe to compute concurrently.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import classifier
from .calibration import build_controls, regdi_total
from .estimators import BigDataTotals, DegenerateStratumError, pdi_total
from .linalg import SingularControlsError
from .measurement import MeasurementFitError, two_step_regdi
from .population import (
    FinitePopulation,
    InfeasibleSelectionError,
    ProbabilitySample,
    _blocks,
    _check_stratum_sizes,
    _read_only,
    _rows,
    _sim1_outcome,
    _sim1_proxy,
    _srs_indices,
    _srs_mask,
    _srs_sample,
    _srs_weights,
    big_data_inclusion_probabilities,
    generate_population_sim2,
)
from .rng import substream
from .variance import variance_relative_bias

__all__ = [
    "SimConfig",
    "EstimatorSummary",
    "MonteCarloSummary",
    "summarize",
    "run_sim1",
    "run_sim2",
    "summary_rows",
]

# replicate-level failures that are redrawn with the next attempt stream
RETRYABLE = (
    DegenerateStratumError,
    SingularControlsError,
    MeasurementFitError,
    classifier.DegenerateFitError,
)
# attempts per replicate before a study gives up on it
MAX_ATTEMPTS = 100

SIM1_ESTIMATORS = ("mean_a", "mean_b", "pdi", "regdi")
SIM2_ESTIMATORS = ("mean_a", "mean_b", "naive_di", "proposed_di", "original_di")


@dataclass(frozen=True)
class SimConfig:
    """Configuration for one study run.

    ``scenario`` only matters for study one.  ``stratum_sizes`` is the
    per-stratum big-data selection for study one; ``big_n`` the expected
    big-data size for study two.  ``pop_n`` and ``big_n`` left as None
    take each study's default sizes.  ``workers`` threads take study
    one's replicates one at a time; study two ignores it and runs its
    replicates as one EM stack on the calling thread.
    """

    study: str = "sim1"
    scenario: int = 1
    n_a: int = 1000
    replicates: int = 1000
    master_seed: int = 18
    pop_n: int | None = None
    big_n: int | None = None
    stratum_sizes: tuple[int, int] | None = None
    workers: int = 1

    def resolved(self) -> "SimConfig":
        """Fill study-specific defaults; reject settings no study can run."""
        if self.study not in ("sim1", "sim2"):
            raise ValueError("study must be 'sim1' or 'sim2'")
        if self.replicates < 2:
            raise ValueError(f"replicates must be at least 2, not {self.replicates}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, not {self.workers}")
        pop_n = self.pop_n
        if pop_n is None:
            pop_n = 1_000_000 if self.study == "sim1" else 10_000
        elif pop_n < 1:
            raise ValueError(f"pop_n must be at least 1, not {pop_n}")
        if not 1 <= self.n_a <= pop_n:
            raise ValueError(f"n_a must be between 1 and pop_n = {pop_n}, not {self.n_a}")
        changes = {"pop_n": pop_n}
        if self.study == "sim1":
            if self.scenario not in (1, 2, 3):
                raise ValueError("scenario must be 1, 2, or 3")
            if self.stratum_sizes is None:
                changes["stratum_sizes"] = (
                    int(round(0.3 * pop_n)),
                    int(round(0.2 * pop_n)),
                )
        else:
            if self.big_n is None:
                changes["big_n"] = pop_n // 2
            elif self.big_n < 1:
                raise ValueError(f"big_n must be at least 1, not {self.big_n}")
        return replace(self, **changes)


@dataclass(frozen=True)
class EstimatorSummary:
    """Monte Carlo bias, SE and RMSE of one estimator, and the relative
    bias of its variance estimator when the replicates carry one."""

    estimator: str
    bias: float
    se: float
    rmse: float
    var_rel_bias: float | None = None


@dataclass(frozen=True)
class MonteCarloSummary:
    study: str
    scenario: str
    truth: float
    replicates: int
    rows: tuple[EstimatorSummary, ...]
    failures: int
    # study two's EM fits that stopped at max_iter before converging, and
    # the median, 90th percentile and maximum of their map evaluations
    unconverged: int = 0
    em_iterations_p50: float = 0.0
    em_iterations_p90: int = 0
    em_iterations_max: int = 0

    def row(self, estimator: str) -> EstimatorSummary:
        for r in self.rows:
            if r.estimator == estimator:
                return r
        raise KeyError(estimator)


def summarize(estimates, truth: float) -> tuple[float, float, float]:
    """Monte Carlo ``(bias, se, rmse)`` of a sequence of estimates.

    ``se`` is the sample standard deviation across replicates (R - 1
    divisor) and ``rmse = sqrt(bias^2 + se^2)``.
    """
    est = np.asarray(list(estimates), float)
    if est.size < 2:
        raise ValueError("need at least two replicates")
    bias = float(est.mean()) - truth
    se = float(est.std(ddof=1))
    return bias, se, math.sqrt(bias * bias + se * se)


def _next_attempt(rep: int, attempt: int, exc: Exception) -> int:
    """The attempt after ``attempt`` of replicate ``rep``, which failed with
    the retryable ``exc``; after ``MAX_ATTEMPTS`` the study gives up."""
    if attempt + 1 < MAX_ATTEMPTS:
        return attempt + 1
    raise RuntimeError(
        f"replicate {rep} failed {MAX_ATTEMPTS} times in a row; "
        f"last error: {type(exc).__name__}: {exc}"
    ) from exc


def _with_attempts(attempt_fn, rep: int, attempt: int = 0):
    """``attempt_fn(rep, attempt)`` from ``attempt`` on until one does not
    fail with a retryable error; returns its result and that attempt, the
    replicate's failed count."""
    while True:
        try:
            return attempt_fn(rep, attempt), attempt
        except RETRYABLE as exc:
            attempt = _next_attempt(rep, attempt, exc)


def _run_study(config: SimConfig, results, names, scenario: str):
    """Summarise a study's replicates.

    ``results`` holds ``(record, failures)`` for each replicate, in order.
    Each record holds an estimate under every name in ``names`` and the
    replicate's ``truth``; a record that also holds ``vhat_<name>``, the
    estimate's variance on the same scale, gives that estimator's row a
    ``var_rel_bias``.  Returns the records and the summary.
    """
    records = [r for r, _ in results]
    truths = np.array([rec["truth"] for rec in records])
    rows = []
    for name in names:
        estimates = np.array([rec[name] for rec in records])
        bias, se, rmse = summarize(estimates - truths, 0.0)
        vhat = f"vhat_{name}"
        rb = None
        if vhat in records[0]:
            rb = variance_relative_bias([(rec[name], rec[vhat]) for rec in records])
        rows.append(EstimatorSummary(name, bias, se, rmse, rb))
    summary = MonteCarloSummary(
        study=config.study,
        scenario=scenario,
        truth=float(truths.mean()),
        replicates=config.replicates,
        rows=tuple(rows),
        failures=sum(f for _, f in results),
    )
    return records, summary


# ---------------------------------------------------------------------------
# study one
# ---------------------------------------------------------------------------

SIM1_STRATA = (1, 2)


class _Sim1Frame(NamedTuple):
    """Study one's universe in stratum order: stratum 1's units, then
    stratum 2's, each in ascending unit order.

    ``y`` and ``y_star`` are held in that order alone, and stratum 1 fills
    positions ``0..cut - 1``.  ``words`` is stratum-1 membership in unit
    order, one bool per unit padded with ``False`` to rows of 64 units, and
    ``before[w]`` counts the stratum-1 units ahead of row ``w``; from the
    two, :func:`_sim1_positions` finds any unit's position.  ``truth`` is
    the mean of ``y`` summed in unit order.
    """

    y: np.ndarray
    y_star: np.ndarray
    words: np.ndarray
    before: np.ndarray
    cut: int
    truth: float


def _sim1_positions(frame: _Sim1Frame, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stratum-order positions of units ``idx`` (zero-based) and
    whether each is in stratum 1.

    The stratum-1 units ahead of a unit number ``before`` of its word plus
    the set bits below it there: its position if it is in stratum 1, and
    otherwise ``cut`` plus its index less that count.
    """
    word = idx >> 6
    first = frame.words.reshape(-1)[idx]
    rows = np.take(frame.words, word, axis=0)
    rows &= np.arange(64) < (idx & 63)[:, None]  # the bits ahead of each unit
    ahead = frame.before[word] + np.count_nonzero(rows, axis=1)
    return np.where(first, ahead, frame.cut + idx - ahead), first


def _sim1_frame(config: SimConfig) -> _Sim1Frame:
    """The frame of study one's universe, drawn here straight into
    stratum order from the stream ``generate_population_sim1`` reads.

    ``x`` is drawn whole and gives the strata, kept as the membership
    words; ``y`` is written over it and its mean taken as the truth.  Each
    block of units is then split by stratum, and ``y`` taken into the two
    contiguous stratum slices before the unit-order buffer is freed; ``y*``
    is drawn a block of units at a time into the same slices.  The build
    so holds at most two N-long float columns and a bool per unit.  Raises
    ``ValueError`` naming ``stratum_sizes`` when the sizes do not fit the
    strata.
    """
    N, rng = config.pop_n, substream(config.master_seed, 9)
    y, low = _sim1_outcome(N, rng)
    cut = int(np.count_nonzero(low))
    _check_stratum_sizes(SIM1_STRATA, (cut, N - cut), config.stratum_sizes)
    words = np.zeros((-(-N // 64), 64), bool)
    one = words.reshape(-1)
    one[:N] = low
    del low
    counts = np.count_nonzero(words, axis=1)
    before = np.cumsum(counts) - counts

    def runs(block):
        """Each stratum's units in ``block``: their places in it and the
        slice of the stratum order they fill."""
        first = one[block]
        i, j = np.flatnonzero(first), np.flatnonzero(~first)
        ahead = int(before[block.start >> 6])  # a block starts a word
        behind = cut + block.start - ahead
        return (i, slice(ahead, ahead + i.size)), (j, slice(behind, behind + j.size))

    truth = float(y.mean())
    ordered = np.empty(N)
    for block in _blocks(N):
        for i, at in runs(block):
            np.take(y[block], i, out=ordered[at])
    del y
    y_star = _sim1_proxy(ordered, rng, runs)
    return _Sim1Frame(_read_only(ordered), _read_only(y_star), _read_only(words),
                      _read_only(before), cut, truth)


def _sim1_replicate(frame: _Sim1Frame, config: SimConfig, rep: int, attempt: int):
    seed = (config.master_seed, rep, attempt)
    scen, cut, N = config.scenario, frame.cut, frame.y.size
    idx = _srs_indices(config.n_a, N, substream(seed, 0))
    at, first = _sim1_positions(frame, idx)  # the sampled units' positions
    big = frame.y_star if scen == 2 else frame.y
    rng_b = substream(seed, 1)
    delta = np.empty(idx.size, np.int64)
    terms = []
    # one stratum's mask at a time: drawn, summed into T_b, read at its
    # sampled units and dropped
    for part, mine, n_h in zip((slice(0, cut), slice(cut, N)), (first, ~first),
                               config.stratum_sizes):
        hit = _srs_mask(part.stop - part.start, n_h, rng_b)
        # einsum, not np.dot: BLAS's own threads make the dots of concurrent
        # replicate threads several times slower
        terms.append(np.einsum("i,i->", big[part], hit))
        delta[mine] = hit[at[mine] - part.start]
        del hit
    totals = BigDataTotals(T_b=float(terms[0] + terms[1]),
                           N_b=int(sum(config.stratum_sizes)), N=N)
    sample = _srs_sample(idx, N, y=_rows(frame.y, at), y_star=_rows(frame.y_star, at),
                         delta=_read_only(delta))

    if scen == 3:
        regdi = two_step_regdi(sample, totals)
    else:
        spec = build_controls(
            "proxy_ystar" if scen == 2 else "standard",
            delta=sample.delta,
            y=sample.y,
            y_star=sample.y_star,
            N=N,
            N_b=totals.N_b,
            T_b=totals.T_b,
        )
        regdi = regdi_total(sample, sample.y, spec)
    observed_a = sample.y_star if scen == 3 else sample.y
    pdi = pdi_total(sample, sample.delta, observed_a, totals)
    return {
        "mean_a": float(observed_a.mean()),
        "mean_b": totals.T_b / totals.N_b,
        "pdi": pdi.mean,
        "regdi": regdi.mean,
        "vhat_regdi": regdi.variance / N**2,
        "truth": frame.truth,
    }


def run_sim1(config: SimConfig) -> MonteCarloSummary:
    """Run study one and summarise every estimator against the truth."""
    if config.study != "sim1":
        raise ValueError(f"run_sim1 needs study='sim1', not {config.study!r}")
    config = config.resolved()
    frame = _sim1_frame(config)

    def replicate(rep):
        return _with_attempts(lambda r, att: _sim1_replicate(frame, config, r, att), rep)

    reps = range(config.replicates)
    if config.workers == 1:
        results = list(map(replicate, reps))
    else:
        # the threads take one replicate at a time as they free up
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(replicate, reps))
    _, summary = _run_study(config, results, SIM1_ESTIMATORS, str(config.scenario))
    return summary


# ---------------------------------------------------------------------------
# study two
# ---------------------------------------------------------------------------

# replicates a study-two run keeps in flight, as the rows of its one EM
# stack: enough to spread the stacked map's per-call cost over many fits,
# few enough that the design samples held meanwhile stay small
_SIM2_ROWS = 12


class _Sim2Frame(NamedTuple):
    """Study-two state that depends only on the population: its membership
    rates ``probs``, the z domain sizes ``levels``, its level ``index``,
    its distinct z ``cells`` and each unit's cell (``inverse``), the truth
    and the design sample's ``(d, pi)``."""

    pop: FinitePopulation
    probs: np.ndarray
    levels: tuple[int, ...]
    index: list
    cells: list
    inverse: np.ndarray
    truth: float
    weights: tuple[np.ndarray, np.ndarray]


def _sim2_frame(pop: FinitePopulation, config: SimConfig) -> _Sim2Frame:
    """The frame of one population; its z levels are checked here, once."""
    levels = tuple(int(pop.z[:, k].max()) for k in range(pop.z.shape[1]))
    index = classifier._level_index(pop.z, levels)
    probs = big_data_inclusion_probabilities(pop.z[:, 0], config.big_n)
    return _Sim2Frame(pop, probs, levels, index, *classifier._cells(index, levels),
                      float(pop.y.mean()), _srs_weights(config.n_a, pop.N))


class _Sim2Draw(NamedTuple):
    """One attempt of a study-two replicate while its fit is in the stack:
    the design sample, the big source's totals per z cell for
    ``pdi2_total`` and its plain totals, and the record's fields that need
    no fit."""

    rep: int
    attempt: int
    sample: ProbabilitySample
    cells: classifier._CellTotals
    totals: BigDataTotals
    record: dict


def _sim2_draw(frame: _Sim2Frame, config: SimConfig, rep: int, attempt: int):
    """Draw attempt ``attempt`` of replicate ``rep``: its EM row, keyed by
    the :class:`_Sim2Draw` that finishes it.  The big source is only
    summed, over its member rows' z cells, and the one design sample holds
    ``y`` alone, its level index gathered from the population's."""
    pop = frame.pop
    seed = (config.master_seed, rep, attempt)
    member = substream(seed, 1).random(pop.N) < frame.probs
    N_b = int(np.count_nonzero(member))
    if N_b == 0 or N_b == pop.N:
        raise DegenerateStratumError("membership draw covered none or all units")
    idx = _srs_indices(config.n_a, pop.N, substream(seed, 0))
    # no summary reads a study-two variance, so leaving out joint_pi spares
    # pdi_total and pdi2_total three O(n) variances a replicate; a
    # var_rel_bias for proposed_di (ROADMAP item 1) would restore it
    sample = _srs_sample(idx, pop.N, frame.weights, joint=False, y=_rows(pop.y, idx))
    values = np.compress(member, pop.y)
    cells = classifier._cell_totals(
        frame.cells, np.compress(member, frame.inverse), np.ones(N_b), values, pop.N
    )
    # m, the level frequencies of the big source's rows, from its cells
    m = classifier._frequencies(cells.cells, frame.levels, cells.count)
    index = [col[idx] for col in frame.index]
    u = classifier._smoothed_frequencies(index, sample.d, frame.levels)
    model = classifier.ClassifierModel(pi=N_b / pop.N, m=m, u=u)
    totals = BigDataTotals(T_b=float(values.sum()), N_b=N_b, N=pop.N)
    draw = _Sim2Draw(rep, attempt, sample, cells, totals, {
        "mean_a": float(sample.y.mean()),
        "mean_b": float(values.mean()),
        "original_di": pdi_total(sample, member[idx], sample.y, totals).mean,
        "truth": frame.truth,
    })
    return classifier._em_row(sample, model, key=draw, index=index)


def _sim2_record(draw: _Sim2Draw, fitted, post) -> dict:
    """The record of a replicate whose fit left the stack."""
    sample = draw.sample
    naive = pdi_total(sample, post.delta_hat, sample.y, draw.totals)
    proposed = classifier._pdi2_from_cells(sample, draw.cells, fitted, post)
    return {
        **draw.record,
        "naive_di": naive.mean,
        "proposed_di": proposed.mean,
        "em_iterations": post.iterations,
        "converged": post.converged,
    }


def _sim2_stack(frame: _Sim2Frame, config: SimConfig) -> list:
    """``(record, failures)`` of each replicate, in order, their fits run
    as rows of one stack ``_SIM2_ROWS`` wide, sized to the population's
    distinct z cells, which bound every sample's.

    A row is drawn whenever a slot is free, and a replicate is finished as
    its row leaves.  An attempt that fails with a retryable error, when
    drawn, fitted or finished, is redrawn with the next attempt stream.
    """
    reps = range(config.replicates)
    waiting = deque((rep, 0) for rep in reps)  # (replicate, attempt) to draw
    done = {}
    draw_row = functools.partial(_sim2_draw, frame, config)

    def next_row():
        return _with_attempts(draw_row, *waiting.popleft())[0] if waiting else None

    for draw, outcome in classifier._em_stack(next_row, _SIM2_ROWS, frame.cells[0].size):
        try:
            if isinstance(outcome, Exception):
                raise outcome
            done[draw.rep] = (_sim2_record(draw, *outcome), draw.attempt)
        except RETRYABLE as exc:
            waiting.appendleft((draw.rep, _next_attempt(draw.rep, draw.attempt, exc)))
    return [done[rep] for rep in reps]


def run_sim2(config: SimConfig) -> MonteCarloSummary:
    """Run study two: classify membership, then integrate."""
    if config.study != "sim2":
        raise ValueError(f"run_sim2 needs study='sim2', not {config.study!r}")
    config = config.resolved()
    seed = substream(config.master_seed, 9)
    try:  # whether big_n can be reached depends on the drawn z1
        pop = generate_population_sim2(config.pop_n, config.big_n, seed)
    except InfeasibleSelectionError as exc:
        exc.args = (f"{exc}; big_n = {config.big_n} cannot be reached at pop_n = {config.pop_n}",)
        raise
    frame = _sim2_frame(pop, config)

    records, summary = _run_study(
        config, _sim2_stack(frame, config), SIM2_ESTIMATORS, f"n_a={config.n_a}"
    )
    iterations = np.sort([rec["em_iterations"] for rec in records])
    return replace(
        summary,
        unconverged=sum(not rec["converged"] for rec in records),
        em_iterations_p50=float(np.median(iterations)),
        # nearest rank: np.percentile would load numpy.ma for this one value
        em_iterations_p90=int(iterations[math.ceil(0.9 * iterations.size) - 1]),
        em_iterations_max=int(iterations[-1]),
    )


def summary_rows(summary: MonteCarloSummary) -> list[dict]:
    """Flatten a summary into CSV-ready dictionaries."""
    out = []
    for row in summary.rows:
        out.append(
            {
                "study": summary.study,
                "scenario": summary.scenario,
                "estimator": row.estimator,
                "bias": row.bias,
                "se": row.se,
                "rmse": row.rmse,
                "var_rel_bias": "" if row.var_rel_bias is None else row.var_rel_bias,
                "failures": summary.failures,
            }
        )
    return out
