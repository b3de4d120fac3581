"""Tests for the proxy measurement model: fitting, inversion, and the
two-step calibration estimator."""

import dataclasses

import numpy as np
import pytest

from bigsurv import (
    BigDataTotals,
    MeasurementFitError,
    MeasurementModel,
    ProbabilitySample,
    SRSJointInclusion,
    build_controls,
    fit_measurement_model,
    regdi_total,
    solve_weights,
    two_step_regdi,
)


def make_sample(n, N, rng, slope=0.9, intercept=2.0, noise=0.5):
    """Equal-weight sample with a linear proxy and a random matched core."""
    y = rng.normal(3.0, 1.0, n)
    y_star = intercept + slope * y + rng.normal(0.0, noise, n)
    delta = np.zeros(n, np.int64)
    covered = rng.choice(n, size=n // 2, replace=False)
    delta[covered] = 1
    return ProbabilitySample(
        unit_ids=np.arange(1, n + 1),
        d=np.full(n, N / n),
        pi=np.full(n, n / N),
        joint_pi=None,
        N=N,
        y=y,
        y_star=y_star,
        delta=delta,
    )


class TestFitMeasurementModel:
    def test_noiseless_fit_recovers_coefficients_exactly(self):
        """With y* = 2 + 0.9 y and no noise the weighted least-squares
        solution is (2, 0.9) up to floating point."""
        y = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        model = fit_measurement_model(y, 2.0 + 0.9 * y)
        assert abs(model.beta0 - 2.0) < 1e-12
        assert abs(model.beta1 - 0.9) < 1e-12
        assert model.sigma2 < 1e-24
        assert model.n_fit == 5

    def test_weighted_fit_hand_computed(self):
        """d = (1, 1, 2), y = (0, 1, 2), y* = (1, 3, 4).

        Weighted means: 1.25 and 3.  Weighted cross moment
        1(-1.25)(-2) + 0 + 2(0.75)(1) = 4; weighted y moment
        1.5625 + 0.0625 + 2(0.5625) = 2.75.  Hence beta1 = 16/11,
        beta0 = 3 - (16/11)(1.25) = 13/11.  Residuals are
        (-2, 4, -1)/11, so sigma2 = (4 + 16 + 2)/121 / 4 = 1/22.
        """
        model = fit_measurement_model(
            [0.0, 1.0, 2.0], [1.0, 3.0, 4.0], d=[1.0, 1.0, 2.0]
        )
        assert abs(model.beta1 - 16.0 / 11.0) < 1e-12
        assert abs(model.beta0 - 13.0 / 11.0) < 1e-12
        assert abs(model.sigma2 - 1.0 / 22.0) < 1e-12

    def test_integer_weights_match_row_replication(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=6)
        y_star = 1.0 + 2.0 * y + rng.normal(size=6)
        d = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 1.0])
        weighted = fit_measurement_model(y, y_star, d=d)
        reps = d.astype(int)
        replicated = fit_measurement_model(np.repeat(y, reps), np.repeat(y_star, reps))
        assert abs(weighted.beta0 - replicated.beta0) < 1e-12
        assert abs(weighted.beta1 - replicated.beta1) < 1e-12
        assert abs(weighted.sigma2 - replicated.sigma2) < 1e-12

    def test_default_weights_are_uniform(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=5)
        y_star = rng.normal(size=5)
        plain = fit_measurement_model(y, y_star)
        ones = fit_measurement_model(y, y_star, d=np.ones(5))
        assert plain.beta0 == ones.beta0
        assert plain.beta1 == ones.beta1

    @pytest.mark.parametrize("seed", range(5))
    def test_noisy_fit_is_consistent(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.normal(3.0, 1.0, 4000)
        y_star = 2.0 + 0.9 * y + rng.normal(0.0, 0.5, 4000)
        model = fit_measurement_model(y, y_star)
        assert abs(model.beta0 - 2.0) < 0.1
        assert abs(model.beta1 - 0.9) < 0.05
        assert abs(model.sigma2 - 0.25) < 0.05

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matched one-dimensional"):
            fit_measurement_model([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            fit_measurement_model(np.ones((2, 2)), np.ones((2, 2)))

    def test_single_matched_unit_rejected(self):
        with pytest.raises(MeasurementFitError, match="two matched"):
            fit_measurement_model([1.0], [2.0])

    def test_constant_outcome_rejected(self):
        with pytest.raises(MeasurementFitError, match="constant"):
            fit_measurement_model([3.0, 3.0, 3.0], [1.0, 2.0, 3.0])


class TestMeasurementModel:
    def test_invert_round_trips_forward(self):
        model = MeasurementModel(beta0=-1.5, beta1=0.8, sigma2=0.0, n_fit=2)
        y = np.linspace(-4.0, 4.0, 9)
        assert np.allclose(model.invert(-1.5 + 0.8 * y), y, atol=1e-12)

    def test_near_zero_slope_refuses_to_invert(self):
        model = MeasurementModel(beta0=0.0, beta1=1e-9, sigma2=0.0, n_fit=2)
        with pytest.raises(MeasurementFitError, match="slope"):
            model.invert([1.0])


class TestTwoStepRegDI:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_manual_composition(self, seed):
        """The estimator is exactly: fit on matched units, invert every
        proxy, calibrate on standard controls, sum weighted inversions;
        its variance is that of the inversions' calibration residuals."""
        rng = np.random.default_rng(seed)
        N = 500
        sample = dataclasses.replace(
            make_sample(60, N, rng), joint_pi=SRSJointInclusion(60, N), design="srs"
        )
        matched = sample.delta > 0
        big = BigDataTotals(T_b=float(rng.normal(3.0, 1.0, 200).sum()), N_b=200, N=N)

        report = two_step_regdi(sample, big)

        model = fit_measurement_model(
            sample.y[matched], sample.y_star[matched], sample.d[matched]
        )
        spec = build_controls(
            "standard",
            delta=sample.delta,
            y=np.where(matched, sample.y, 0.0),
            N=N,
            N_b=big.N_b,
            T_b=big.T_b,
        )
        weights = solve_weights(sample, spec.x, spec.totals, names=spec.names)
        y_hat = model.invert(sample.y_star)
        expected = float(np.dot(weights.w, y_hat))
        assert report.total == pytest.approx(expected, rel=1e-12)
        assert report.variance == regdi_total(sample, y_hat, spec).variance
        assert report.estimator == "two_step_regdi"
        assert report.population_size == N
        assert any(f"{model.n_fit} matched units" in note for note in report.notes)

    def test_no_variance_without_joint_probabilities(self):
        rng = np.random.default_rng(2)
        sample = make_sample(40, 400, rng)
        big = BigDataTotals(T_b=480.0, N_b=160, N=400)
        assert two_step_regdi(sample, big).variance is None

    @pytest.mark.parametrize("seed", range(4))
    def test_noiseless_proxy_reduces_to_direct_calibration(self, seed):
        """When y* is an exact linear image of y, inverting recovers y
        itself, so the two-step total equals the one-step calibration
        total on the true outcome."""
        rng = np.random.default_rng(seed)
        N = 400
        sample = make_sample(50, N, rng, noise=0.0)
        big = BigDataTotals(T_b=float(rng.normal(3.0, 1.0, 160).sum()), N_b=160, N=N)
        report = two_step_regdi(sample, big)
        spec = build_controls(
            "standard",
            delta=sample.delta,
            y=sample.y,
            N=N,
            N_b=big.N_b,
            T_b=big.T_b,
        )
        direct = regdi_total(sample, sample.y, spec)
        assert report.total == pytest.approx(direct.total, rel=1e-9)

    def test_population_size_defaults_to_big_source(self):
        rng = np.random.default_rng(3)
        sample = make_sample(40, 1000, rng)
        big = BigDataTotals(T_b=float(rng.normal(3.0, 1.0, 300).sum()), N_b=300, N=1000)
        assert two_step_regdi(sample, big).population_size == 1000

    def test_missing_columns_rejected(self):
        rng = np.random.default_rng(5)
        base = make_sample(30, 300, rng)
        big = BigDataTotals(T_b=float(rng.normal(3.0, 1.0, 100).sum()), N_b=100, N=300)
        for column in ("y", "y_star", "delta"):
            broken = dataclasses.replace(base, **{column: None})
            with pytest.raises(ValueError, match="must carry"):
                two_step_regdi(broken, big)
