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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import classifier
from .calibration import build_controls, regdi_total
from .estimators import BigDataTotals, DegenerateStratumError, pdi_total
from .linalg import SingularControlsError
from .measurement import MeasurementFitError, two_step_regdi
from .population import (
    FinitePopulation,
    _read_only,
    _select_strata,
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
    take each study's default sizes.
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


def _with_attempts(attempt_fn, rep: int):
    failures, last = 0, None
    for attempt in range(MAX_ATTEMPTS):
        try:
            return attempt_fn(rep, attempt), failures
        except RETRYABLE as exc:
            failures, last = failures + 1, exc
    raise RuntimeError(
        f"replicate {rep} failed {MAX_ATTEMPTS} times in a row; "
        f"last error: {type(last).__name__}: {last}"
    ) from last


def _run_study(config: SimConfig, attempt, names, scenario: str):
    """Run every replicate of ``attempt(rep, att) -> record`` and summarise.

    Each record holds an estimate under every name in ``names`` and the
    replicate's ``truth``; a record that also holds ``vhat_<name>``, the
    estimate's variance on the same scale, gives that estimator's row a
    ``var_rel_bias``.  Returns the records and the summary.
    """

    one_replicate = functools.partial(_with_attempts, attempt)
    reps = range(config.replicates)
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(one_replicate, reps))
    else:
        results = [one_replicate(r) for r in reps]
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
    hits = _select_strata(frame.pools, config.stratum_sizes, rng_b)
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

    def attempt(rep, att):
        return _sim1_replicate(frame, config, rep, att)

    _, summary = _run_study(config, attempt, SIM1_ESTIMATORS, str(config.scenario))
    return summary


# ---------------------------------------------------------------------------
# study two
# ---------------------------------------------------------------------------

def _sim2_replicate(pop, probs, levels, config: SimConfig, rep: int, attempt: int):
    seed = (config.master_seed, rep, attempt)
    rng_b = substream(seed, 1)
    delta = (rng_b.random(pop.N) < probs).astype(np.int64)
    N_b = int(delta.sum())
    if N_b == 0 or N_b == pop.N:
        raise DegenerateStratumError("membership draw covered none or all units")
    # one population per replicate: the big source and the design sample
    # (with its delta) are both drawn from it
    pop_r = pop.with_delta(_read_only(delta))
    big = pop_r.big_sample()
    sample = draw_srs(pop_r, config.n_a, substream(seed, 0))
    # no summary reads a study-two variance, so dropping joint_pi spares
    # pdi_total and pdi2_total three O(n) variances per replicate; a
    # var_rel_bias for proposed_di (ROADMAP item 2) would restore it
    sample = replace(sample, joint_pi=None)
    fitted, post = classifier.fit_membership(sample, big, N_b / pop.N, levels)

    big_totals = BigDataTotals(T_b=float(big.values.sum()), N_b=N_b, N=pop.N)
    naive = pdi_total(sample, post.delta_hat, sample.y, big_totals)
    original = pdi_total(sample, sample.delta, sample.y, big_totals)
    proposed = classifier.pdi2_total(sample, big, fitted, post)

    return {
        "mean_a": float(sample.y.mean()),
        "mean_b": float(big.values.mean()),
        "naive_di": naive.mean,
        "proposed_di": proposed.mean,
        "original_di": original.mean,
        "truth": float(pop.y.mean()),
        "em_iterations": post.iterations,
        "converged": post.converged,
    }


def run_sim2(config: SimConfig) -> MonteCarloSummary:
    """Run study two: classify membership, then integrate."""
    if config.study != "sim2":
        raise ValueError(f"run_sim2 needs study='sim2', not {config.study!r}")
    config = config.resolved()
    pop = generate_population_sim2(
        config.pop_n, config.big_n, substream(config.master_seed, 9)
    )
    probs = big_data_inclusion_probabilities(pop.z[:, 0], config.big_n)
    levels = tuple(int(pop.z[:, k].max()) for k in range(pop.z.shape[1]))

    def attempt(rep, att):
        return _sim2_replicate(pop, probs, levels, config, rep, att)

    records, summary = _run_study(
        config, attempt, SIM2_ESTIMATORS, f"n_a={config.n_a}"
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
