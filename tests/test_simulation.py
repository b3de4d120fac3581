"""Tests for the Monte Carlo harness: summary math, configuration
defaults, deterministic seeding, parallel equivalence, and
directionally correct study output at desk scale."""

import functools
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from bigsurv import (
    DegenerateStratumError,
    FinitePopulation,
    MonteCarloSummary,
    SimConfig,
    SingularControlsError,
    generate_population_sim1,
    generate_population_sim2,
    run_sim1,
    run_sim2,
    substream,
    summarize,
    summary_rows,
)
from bigsurv import classifier, simulation
from bigsurv.simulation import SIM1_ESTIMATORS, SIM2_ESTIMATORS, _with_attempts


class TestSummarize:
    def test_hand_computed(self):
        """Estimates (1, 2, 3) against truth 2: bias 0, sample standard
        deviation 1, rmse 1."""
        bias, se, rmse = summarize([1.0, 2.0, 3.0], 2.0)
        assert bias == pytest.approx(0.0)
        assert se == pytest.approx(1.0)
        assert rmse == pytest.approx(1.0)

    def test_constant_estimates_have_pure_bias(self):
        bias, se, rmse = summarize([5.0, 5.0, 5.0], 2.0)
        assert (bias, se) == (3.0, 0.0)
        assert rmse == pytest.approx(3.0)

    def test_symmetric_errors_have_pure_spread(self):
        bias, se, rmse = summarize([-1.0, 1.0], 0.0)
        assert bias == pytest.approx(0.0)
        assert se == pytest.approx(np.sqrt(2.0))
        assert rmse == pytest.approx(np.sqrt(2.0))

    @pytest.mark.parametrize("seed", range(5))
    def test_rmse_decomposition_invariant(self, seed):
        rng = np.random.default_rng(seed)
        estimates = rng.normal(3.0, 2.0, 50)
        bias, se, rmse = summarize(estimates, 3.0)
        assert rmse**2 == pytest.approx(bias**2 + se**2)

    def test_single_estimate_rejected(self):
        with pytest.raises(ValueError, match="two replicates"):
            summarize([1.0], 0.0)


class TestSimConfig:
    def test_study_one_defaults(self):
        config = SimConfig().resolved()
        assert config.pop_n == 1_000_000
        assert config.stratum_sizes == (300_000, 200_000)

    def test_stratum_sizes_scale_with_population(self):
        config = SimConfig(pop_n=100_000).resolved()
        assert config.stratum_sizes == (30_000, 20_000)

    def test_explicit_stratum_sizes_kept(self):
        config = SimConfig(pop_n=1000, stratum_sizes=(100, 50)).resolved()
        assert config.stratum_sizes == (100, 50)

    def test_study_two_defaults(self):
        config = SimConfig(study="sim2").resolved()
        assert config.pop_n == 10_000
        assert config.big_n == 5_000

    def test_study_two_explicit_big_size_kept(self):
        config = SimConfig(study="sim2", pop_n=400, big_n=150, n_a=60).resolved()
        assert config.big_n == 150

    def test_unknown_study_rejected(self):
        with pytest.raises(ValueError, match="study"):
            SimConfig(study="sim3").resolved()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            SimConfig(scenario=4).resolved()

    @pytest.mark.parametrize(
        "setting, value, message",
        [
            ("replicates", 1, "replicates must be at least 2, not 1"),
            ("replicates", 0, "replicates must be at least 2, not 0"),
            ("workers", 0, "workers must be at least 1, not 0"),
            ("workers", -1, "workers must be at least 1, not -1"),
            ("pop_n", 0, "pop_n must be at least 1, not 0"),
        ],
    )
    @pytest.mark.parametrize("study", ["sim1", "sim2"])
    def test_unrunnable_settings_rejected_before_any_replicate(
        self, study, setting, value, message, monkeypatch
    ):
        """Too few replicates for a standard error, no worker, or an empty
        universe (not taken as "use the default size") is refused by name
        before the population is built."""

        def unreachable(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(simulation, f"generate_population_{study}", unreachable)
        config = SimConfig(study=study, **{setting: value})
        with pytest.raises(ValueError, match=f"^{message}$"):
            config.resolved()
        with pytest.raises(ValueError, match=f"^{message}$"):
            (run_sim1 if study == "sim1" else run_sim2)(config)

    @pytest.mark.parametrize("n_a", [0, -1, 201])
    @pytest.mark.parametrize("study", ["sim1", "sim2"])
    def test_sample_size_outside_the_universe_rejected_by_name(
        self, study, n_a, monkeypatch
    ):
        """A design sample of no unit, or of more units than the universe
        holds, is refused by name before the population is built; a
        census of it is allowed."""

        def unreachable(*args, **kwargs):
            raise AssertionError("a population was built")

        monkeypatch.setattr(simulation, f"generate_population_{study}", unreachable)
        config = SimConfig(study=study, n_a=n_a, pop_n=200)
        message = f"^n_a must be between 1 and pop_n = 200, not {n_a}$"
        with pytest.raises(ValueError, match=message):
            config.resolved()
        with pytest.raises(ValueError, match=message):
            (run_sim1 if study == "sim1" else run_sim2)(config)
        assert replace(config, n_a=200).resolved().n_a == 200

    def test_big_size_below_one_rejected_not_defaulted(self, monkeypatch):
        """``big_n = 0`` is a setting, not a missing one: study two refuses
        it by name before the population is built."""

        def unreachable(*args, **kwargs):
            raise AssertionError("a population was built")

        monkeypatch.setattr(simulation, "generate_population_sim2", unreachable)
        config = SimConfig(study="sim2", big_n=0)
        with pytest.raises(ValueError, match="^big_n must be at least 1, not 0$"):
            run_sim2(config)

    def test_study_two_config_rejected_by_study_one_runner(self):
        with pytest.raises(ValueError, match="study='sim1'"):
            run_sim1(SimConfig(study="sim2"))

    def test_study_one_config_rejected_by_study_two_runner(self):
        with pytest.raises(ValueError, match="study='sim2'"):
            run_sim2(SimConfig(study="sim1"))


class TestRetries:
    def test_retryable_failures_are_counted_and_recovered(self, monkeypatch):
        monkeypatch.setattr(simulation, "MAX_ATTEMPTS", 5)
        calls = []

        def attempt(rep, att):
            calls.append((rep, att))
            if att < 2:
                raise DegenerateStratumError("empty stratum")
            return {"value": att}

        record, failures = _with_attempts(attempt, rep=7)
        assert record == {"value": 2}
        assert failures == 2
        assert calls == [(7, 0), (7, 1), (7, 2)]

        # a redraw after a failure outside attempt_fn starts at its attempt,
        # and the budget still counts from attempt 0
        calls.clear()
        assert _with_attempts(attempt, rep=3, attempt=1) == ({"value": 2}, 2)
        assert calls == [(3, 1), (3, 2)]
        monkeypatch.setattr(simulation, "MAX_ATTEMPTS", 2)
        with pytest.raises(RuntimeError, match="failed 2 times"):
            _with_attempts(attempt, rep=3, attempt=1)

    def test_attempt_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(simulation, "MAX_ATTEMPTS", 3)

        def attempt(rep, att):
            raise DegenerateStratumError("always")

        with pytest.raises(RuntimeError, match="failed 3 times"):
            _with_attempts(attempt, rep=0)

    def test_exhaustion_names_and_chains_the_last_error(self, monkeypatch):
        monkeypatch.setattr(simulation, "MAX_ATTEMPTS", 2)

        def attempt(rep, att):
            raise DegenerateStratumError(f"attempt {att} empty")

        with pytest.raises(RuntimeError) as excinfo:
            _with_attempts(attempt, rep=4)
        assert "DegenerateStratumError: attempt 1 empty" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, DegenerateStratumError)

    def test_study_one_exhaustion_reports_singular_controls(self, monkeypatch):
        """One unit per stratum in the big source makes the big and
        big_y controls collinear in every sample that meets it."""
        config = SimConfig(
            scenario=1,
            pop_n=200,
            n_a=30,
            stratum_sizes=(1, 1),
            replicates=3,
        )
        monkeypatch.setattr(simulation, "MAX_ATTEMPTS", 5)
        with pytest.raises(RuntimeError, match="SingularControlsError") as excinfo:
            run_sim1(config)
        assert isinstance(excinfo.value.__cause__, SingularControlsError)

    def test_study_two_redraws_attempts_that_fail_in_or_after_the_stack(self, monkeypatch):
        """A fit that fails in the stack, and a replicate that fails as its
        row leaves, are redrawn on their next attempt stream, and every
        such failure is counted."""
        fits, record = classifier._em_stack, simulation._sim2_record

        def failing_fits(*args, **kwargs):
            for draw, outcome in fits(*args, **kwargs):
                if draw.attempt == 0 and draw.rep % 2 == 0:
                    outcome = classifier.DegenerateFitError("stub")
                yield draw, outcome

        def failing_record(draw, *outcome):
            if draw.attempt == 0 and draw.rep % 2 == 1:
                raise DegenerateStratumError("stub")
            return record(draw, *outcome)

        monkeypatch.setattr(classifier, "_em_stack", failing_fits)
        monkeypatch.setattr(simulation, "_sim2_record", failing_record)
        config = small_sim2()
        assert run_sim2(config).failures == config.replicates

    def test_study_two_exhaustion_names_and_chains_the_last_error(self, monkeypatch):
        monkeypatch.setattr(simulation, "MAX_ATTEMPTS", 3)

        def failing_record(draw, *outcome):
            raise DegenerateStratumError(f"attempt {draw.attempt} empty")

        monkeypatch.setattr(simulation, "_sim2_record", failing_record)
        with pytest.raises(RuntimeError, match=(
            "failed 3 times in a row; last error: DegenerateStratumError: attempt 2 empty"
        )) as excinfo:
            run_sim2(small_sim2())
        assert isinstance(excinfo.value.__cause__, DegenerateStratumError)

    def test_non_retryable_errors_propagate(self, monkeypatch):
        monkeypatch.setattr(simulation, "MAX_ATTEMPTS", 3)

        def attempt(rep, att):
            raise KeyError("bug")

        with pytest.raises(KeyError):
            _with_attempts(attempt, rep=0)


def small_sim1(**overrides) -> SimConfig:
    base = dict(
        study="sim1",
        scenario=1,
        n_a=100,
        replicates=8,
        master_seed=101,
        pop_n=2000,
        stratum_sizes=(600, 400),
    )
    base.update(overrides)
    return SimConfig(**base)


def small_sim2(**overrides) -> SimConfig:
    base = dict(
        study="sim2",
        n_a=60,
        replicates=6,
        master_seed=202,
        pop_n=400,
        big_n=200,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestStudyOneHarness:
    def test_deterministic_given_seed(self):
        first = run_sim1(small_sim1())
        second = run_sim1(small_sim1())
        assert first == second

    def test_row_names_and_metadata(self):
        summary = run_sim1(small_sim1())
        assert tuple(r.estimator for r in summary.rows) == SIM1_ESTIMATORS
        assert summary.study == "sim1"
        assert summary.scenario == "1"
        assert summary.replicates == 8
        assert summary.failures == 0
        assert summary.unconverged == 0
        assert [r.var_rel_bias is not None for r in summary.rows] == [
            name == "regdi" for name in SIM1_ESTIMATORS
        ]

    def test_truth_is_the_population_mean(self):
        config = small_sim1()
        summary = run_sim1(config)
        pop = generate_population_sim1(2000, substream(101, 9))
        assert summary.truth == pytest.approx(float(pop.y.mean()))

    def test_scenarios_share_sampling_draws(self):
        """The scenario is not part of the seed path, so scenarios one
        and three see identical samples; their big-data source holds the
        true outcome in both, so the big-data mean rows agree exactly."""
        plain = run_sim1(small_sim1(scenario=1))
        proxy_in_sample = run_sim1(small_sim1(scenario=3))
        assert plain.row("mean_b") == proxy_in_sample.row("mean_b")
        assert plain.row("mean_a") != proxy_in_sample.row("mean_a")

    def test_parallel_map_matches_serial(self, monkeypatch):
        """One worker runs on the calling thread; two build one pool of
        two."""
        built, pool = [], simulation.ThreadPoolExecutor

        def recording(max_workers):
            built.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(simulation, "ThreadPoolExecutor", recording)
        serial = run_sim1(small_sim1(workers=1))
        assert built == []
        threaded = run_sim1(small_sim1(workers=2))
        assert built == [2]
        assert serial == threaded

    def test_master_seed_changes_results(self):
        assert run_sim1(small_sim1()) != run_sim1(small_sim1(master_seed=102))

    def test_desk_scale_biases_match_design(self):
        """Scenario two at one-twentieth scale: the big-data mean
        carries the proxy shift plus coverage bias (about -1.10), the
        post-stratified estimator inherits roughly half the proxy shift
        (about -0.49), and calibration with proxy controls removes it."""
        config = SimConfig(
            study="sim1",
            scenario=2,
            n_a=500,
            replicates=30,
            master_seed=11,
            pop_n=50_000,
        )
        summary = run_sim1(config)
        assert summary.row("mean_b").bias == pytest.approx(-1.10, abs=0.05)
        assert summary.row("pdi").bias == pytest.approx(-0.49, abs=0.05)
        assert abs(summary.row("regdi").bias) < 0.05
        assert abs(summary.row("mean_a").bias) < 0.05


def sim1_pool_sizes(pop_n=2000, master_seed=101):
    pop = generate_population_sim1(pop_n, substream(master_seed, 9))
    return tuple(int((pop.stratum == label).sum()) for label in (1, 2))


class TestStudyOneStratumSizes:
    @pytest.mark.parametrize("label", [1, 2])
    def test_oversized_stratum_rejected_before_any_replicate(self, monkeypatch, label):
        pool1, pool2 = sim1_pool_sizes()
        sizes = (pool1 + 1, 1) if label == 1 else (1, pool2 + 1)

        def no_replicate(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(simulation, "_sim1_replicate", no_replicate)
        with pytest.raises(
            ValueError, match=rf"stratum_sizes .* stratum {label}, which holds"
        ):
            run_sim1(small_sim1(stratum_sizes=sizes))

    @pytest.mark.parametrize("sizes", [(0, 0), (10,), (10, 10, 10)])
    def test_malformed_sizes_rejected(self, sizes):
        with pytest.raises(ValueError, match="stratum_sizes needs one size"):
            run_sim1(small_sim1(stratum_sizes=sizes))

    def test_whole_stratum_can_be_selected(self):
        """n_h equal to the stratum's size selects all of it."""
        pool1, _ = sim1_pool_sizes()
        summary = run_sim1(small_sim1(stratum_sizes=(pool1, 10)))
        assert summary.failures == 0
        assert all(np.isfinite([r.bias, r.se]).all() for r in summary.rows)

    def test_stratum_asked_for_none(self):
        """A stratum asked for no units still draws its keys, and none of
        its sampled units is marked."""
        pool1, _ = sim1_pool_sizes()
        config = small_sim1(stratum_sizes=(pool1 // 2, 0), replicates=4)
        summary = run_sim1(config)
        assert all(np.isfinite([r.bias, r.se]).all() for r in summary.rows)

        config = config.resolved()
        pop = generate_population_sim1(config.pop_n, substream(101, 9))
        frame = simulation._sim1_frame(pop, config)
        rng = substream(0)
        hits = [simulation._srs_mask(pool.size, n_h, rng)
                for pool, n_h in zip(frame.pools, config.stratum_sizes)]
        idx = np.arange(pop.N)
        delta = frame.membership(hits, idx)
        assert delta.sum() == pool1 // 2
        assert not delta[pop.stratum == 2].any()

    def test_empty_stratum(self):
        """A population without stratum 2 units: its pool is empty, so
        the membership lookup has no unit to read there."""
        pop = generate_population_sim1(600, substream(7, 9))
        one = pop.stratum == 1
        pop = FinitePopulation(
            y=pop.y[one], y_star=pop.y_star[one], stratum=pop.stratum[one]
        )
        config = small_sim1(
            pop_n=pop.N, n_a=40, stratum_sizes=(pop.N // 2, 0)
        ).resolved()
        frame = simulation._sim1_frame(pop, config)
        assert frame.pools[1].size == 0
        record = simulation._sim1_replicate(frame, config, 0, 0)
        assert np.isfinite(record["regdi"]) and np.isfinite(record["pdi"])
        rng = substream((101, 0, 0), 1)
        hits = [simulation._srs_mask(pool.size, n_h, rng)
                for pool, n_h in zip(frame.pools, config.stratum_sizes)]
        delta = frame.membership(hits, np.arange(pop.N))
        assert np.array_equal(delta, hits[0].astype(np.int64))
        assert record["mean_b"] == pytest.approx(pop.y[hits[0]].mean(), rel=1e-12)


class TestStudyTwoHarness:
    def test_deterministic_given_seed(self):
        assert run_sim2(small_sim2()) == run_sim2(small_sim2())

    def test_row_names_and_metadata(self):
        summary = run_sim2(small_sim2())
        assert tuple(r.estimator for r in summary.rows) == SIM2_ESTIMATORS
        assert summary.study == "sim2"
        assert summary.scenario == "n_a=60"
        assert all(r.var_rel_bias is None for r in summary.rows)
        assert summary.failures == 0

    def test_each_row_is_placed_in_the_stack_once(self, monkeypatch):
        """A row keeps its slot from entry to exit: over more replicates
        than the stack has slots, each attempt's row is put there once."""
        placed, put = [], classifier._EmMap.put

        def counting(emap, slot, row):
            placed.append(row.key)
            put(emap, slot, row)

        monkeypatch.setattr(classifier._EmMap, "put", counting)
        summary = run_sim2(small_sim2(replicates=30))
        assert len(placed) == summary.replicates + summary.failures

    def test_em_iterations_summarise_every_fit(self, monkeypatch):
        """The summary's median, 90th percentile (nearest rank) and
        maximum are those of the map evaluations each replicate's fit
        reports."""
        seen, fits = [], classifier._em_stack

        def recording(*args, **kwargs):
            for key, outcome in fits(*args, **kwargs):
                if not isinstance(outcome, Exception):
                    seen.append(outcome[1].iterations)
                yield key, outcome

        monkeypatch.setattr(classifier, "_em_stack", recording)
        summary = run_sim2(small_sim2())
        assert summary.failures == 0
        assert len(seen) == summary.replicates
        assert summary.em_iterations_p50 == np.median(seen)
        assert summary.em_iterations_p90 == sorted(seen)[math.ceil(0.9 * len(seen)) - 1]
        assert summary.em_iterations_max == max(seen) > 0

    def test_fits_stopped_at_max_iter_are_counted(self, monkeypatch, caplog):
        """Capped at one iteration, every fit stops short: the summary
        counts as many as the classifier logs, and its rows keep their
        columns."""
        monkeypatch.setattr(
            classifier, "_em_stack", functools.partial(classifier._em_stack, max_iter=1)
        )
        with caplog.at_level(logging.WARNING, logger="bigsurv.classifier"):
            summary = run_sim2(small_sim2())
        logged = [r for r in caplog.records if r.name == "bigsurv.classifier"]
        assert summary.unconverged == len(logged) == summary.replicates
        assert list(summary_rows(summary)[0]) == [
            "study", "scenario", "estimator", "bias", "se", "rmse",
            "var_rel_bias", "failures",
        ]

    def test_truth_is_the_population_mean(self):
        summary = run_sim2(small_sim2())
        pop = generate_population_sim2(400, 200, substream(202, 9))
        assert summary.truth == pytest.approx(float(pop.y.mean()))

    def test_summary_does_not_depend_on_the_stack_width(self, monkeypatch):
        """Each replicate's fit is a row of its own, and a redrawn attempt
        keeps its stream, so the stack's width moves no digit; the small
        universe makes some attempts fail and be redrawn."""
        config = small_sim2(replicates=12, n_a=8, pop_n=100, big_n=60)
        want = run_sim2(config)
        assert want.failures > 0
        for width in (1, 3):
            monkeypatch.setattr(simulation, "_SIM2_ROWS", width)
            assert run_sim2(config) == want

    def test_parallel_map_matches_serial(self, monkeypatch):
        """Study two runs on the calling thread whatever the workers."""

        def no_pool(*args, **kwargs):
            raise AssertionError("study two built a thread pool")

        monkeypatch.setattr(simulation, "ThreadPoolExecutor", no_pool)
        serial = run_sim2(small_sim2(workers=1))
        threaded = run_sim2(small_sim2(workers=2))
        assert serial == threaded == run_sim2(small_sim2(workers=3))

    def test_default_scale_biases_match_design(self):
        """At the design scale the naive integrator (classified
        membership, true totals) overstates the mean while the proposed
        corrected integrator stays near the truth."""
        config = SimConfig(study="sim2", n_a=500, replicates=40, master_seed=12)
        summary = run_sim2(config)
        assert summary.row("naive_di").bias > 0.05
        assert abs(summary.row("proposed_di").bias) < 0.05
        assert abs(summary.row("mean_b").bias + 0.14) < 0.05


class TestSummaryRows:
    def test_study_one_rows_carry_variance_ratio_on_regdi_only(self):
        summary = run_sim1(small_sim1())
        rows = summary_rows(summary)
        assert [r["estimator"] for r in rows] == list(SIM1_ESTIMATORS)
        by_name = {r["estimator"]: r for r in rows}
        assert by_name["regdi"]["var_rel_bias"] == summary.row("regdi").var_rel_bias
        for name in ("mean_a", "mean_b", "pdi"):
            assert by_name[name]["var_rel_bias"] == ""

    def test_every_estimator_with_a_variance_gets_its_own_ratio(self):
        """Two stub estimators whose records both carry ``vhat_<name>``:
        each row scores its own variance against its own estimates.
        ``a`` takes (1, 3, 5) with variances (4, 4, 4), Var_MC 4, so 0;
        ``b`` takes (0, 2, 0) with variances (1, 2, 3), Var_MC 4/3, so
        2 / (4/3) - 1 = 0.5; ``c`` carries no variance."""
        a, b, c = (1.0, 3.0, 5.0), (0.0, 2.0, 0.0), (7.0, 8.0, 9.0)
        vhat_b = (1.0, 2.0, 3.0)

        def attempt(rep, att):
            return {"a": a[rep], "vhat_a": 4.0, "b": b[rep], "vhat_b": vhat_b[rep],
                    "c": c[rep], "truth": 0.0}

        results = [(attempt(rep, 0), 0) for rep in range(3)]
        config = SimConfig(replicates=3)
        _, summary = simulation._run_study(config, results, ("a", "b", "c"), "stub")
        assert summary.row("a").var_rel_bias == pytest.approx(0.0)
        assert summary.row("b").var_rel_bias == pytest.approx(0.5)
        assert summary.row("c").var_rel_bias is None
        rows = summary_rows(summary)
        assert [r["var_rel_bias"] for r in rows] == [
            summary.row("a").var_rel_bias, summary.row("b").var_rel_bias, ""
        ]

    def test_study_two_rows_have_no_variance_ratio(self):
        rows = summary_rows(run_sim2(small_sim2()))
        assert all(r["var_rel_bias"] == "" for r in rows)

    def test_column_set_is_stable(self):
        rows = summary_rows(run_sim1(small_sim1()))
        expected = {
            "study",
            "scenario",
            "estimator",
            "bias",
            "se",
            "rmse",
            "var_rel_bias",
            "failures",
        }
        assert all(set(r) == expected for r in rows)

    def test_row_lookup(self):
        summary = run_sim1(small_sim1())
        assert summary.row("pdi").estimator == "pdi"
        with pytest.raises(KeyError):
            summary.row("bootstrap")
