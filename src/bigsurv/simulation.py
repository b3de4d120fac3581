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
    _read_only,
    _rows,
    _srs_indices,
    _srs_mask,
    _srs_weights,
    _stratum_pools,
    big_data_inclusion_probabilities,
    draw_srs,
    generate_population_sim1,
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


@dataclass(frozen=True)
class _Sim1Frame:
    """Study-one state that depends only on the population.

    ``pools[h]`` holds the sorted unit indices of stratum ``SIM1_STRATA[h]``
    and ``big_values[h]`` the big source's observed column (``y_star`` in
    scenario 2, ``y`` otherwise) in pool order.
    """

    pop: FinitePopulation
    pools: tuple[np.ndarray, ...]
    big_values: tuple[np.ndarray, ...]
    truth: float

    def membership(self, hits, idx) -> np.ndarray:
        """Big-data ``delta`` of the sorted unit indices ``idx``, given the
        selection mask ``hits[h]`` over each pool."""
        delta = np.zeros(idx.size, np.int64)
        for pool, hit in zip(self.pools, hits):
            # a stratum with no unit selected marks none; skipping it also
            # spares an empty pool the clipped lookup of its last unit
            if not hit.any():
                continue
            at = np.minimum(np.searchsorted(pool, idx), pool.size - 1)
            delta[(pool[at] == idx) & hit[at]] = 1
        return delta


def _sim1_frame(pop: FinitePopulation, config: SimConfig) -> _Sim1Frame:
    """Stratum pools, big-source column and truth of one population.

    Raises ``ValueError`` naming ``stratum_sizes`` when the sizes do not
    fit the population's strata.
    """
    pools = _stratum_pools(pop.stratum, SIM1_STRATA, config.stratum_sizes)
    column = pop.y_star if config.scenario == 2 else pop.y
    return _Sim1Frame(
        pop=pop,
        pools=pools,
        big_values=tuple(column[pool] for pool in pools),
        truth=float(pop.y.mean()),
    )


def _sim1_replicate(frame: _Sim1Frame, config: SimConfig, rep: int, attempt: int):
    seed = (config.master_seed, rep, attempt)
    pop, scen = frame.pop, config.scenario
    rng_b = substream(seed, 1)
    hits = [_srs_mask(pool.size, n_h, rng_b)
            for pool, n_h in zip(frame.pools, config.stratum_sizes)]
    sample = draw_srs(pop, config.n_a, substream(seed, 0))
    sample = replace(sample, delta=frame.membership(hits, sample.indices))
    N = pop.N
    totals = BigDataTotals(
        # einsum, not np.dot: BLAS's own threads make the dots of concurrent
        # replicate threads several times slower
        T_b=float(sum(
            np.einsum("i,i->", vals, hit) for vals, hit in zip(frame.big_values, hits)
        )),
        N_b=int(sum(config.stratum_sizes)),
        N=N,
    )

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
    frame = _sim1_frame(
        generate_population_sim1(config.pop_n, substream(config.master_seed, 9)),
        config,
    )

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
    d, pi = frame.weights
    sample = ProbabilitySample(unit_ids=_read_only(idx + 1), d=d, pi=pi, joint_pi=None,
                               N=pop.N, design="srs", y=_rows(pop.y, idx))
    values = np.compress(member, pop.y)
    cells = classifier._cell_totals(
        frame.cells, np.compress(member, frame.inverse), np.ones(N_b), values, pop.N
    )
    # m, the level frequencies of the big source's rows, from its cells
    m = classifier._frequencies(cells.cells, frame.levels, cells.count)
    index = [col[idx] for col in frame.index]
    u = classifier._smoothed_frequencies(index, d, frame.levels)
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
