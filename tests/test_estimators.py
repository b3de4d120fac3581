"""Tests for the design-weighted point estimators.

The small oracles are fully hand-computed; the docstrings carry the
arithmetic so a reviewer can re-derive every expected number.
"""

from dataclasses import replace

import numpy as np
import pytest

from bigsurv import (
    BigDataTotals,
    DegenerateStratumError,
    FinitePopulation,
    ProbabilitySample,
    SRSJointInclusion,
    build_controls,
    cost_effective,
    draw_srs,
    effective_sample_size,
    ht_total,
    pdi_total,
    pdi_variance_approx,
    ratio_di_total,
    regdi_total,
)


class PairsOf:
    """Another provider's joint probabilities through ``pairwise`` alone."""

    def __init__(self, joint):
        self.joint = joint

    def pairwise(self, unit_ids):
        return self.joint.pairwise(unit_ids)


def toy_sample(y, delta, N, d=None):
    """Equal-weight sample over a universe of size N."""
    n = len(y)
    weight = N / n if d is None else d
    return ProbabilitySample(
        unit_ids=np.arange(1, n + 1),
        d=np.full(n, weight),
        pi=np.full(n, 1.0 / weight),
        joint_pi=None,
        N=N,
        y=np.asarray(y, float),
        delta=np.asarray(delta),
    )


BIG = BigDataTotals(T_b=2.0, N_b=1, N=6)


def regdi_of(sample, y):
    spec = build_controls(
        "standard", delta=sample.delta, y=sample.y, N=6, N_b=1, T_b=2.0
    )
    return regdi_total(sample, y, spec)


class TestPerUnitArguments:
    """Every per-unit argument is checked for shape (n,) and named."""

    @pytest.mark.parametrize(
        "call, name, shape",
        [
            (lambda s: ht_total(s, [[1.0], [2.0], [3.0]]), "values", r"\(3, 1\)"),
            (lambda s: ht_total(s, [1.0, 2.0]), "values", r"\(2,\)"),
            (lambda s: pdi_total(s, [0, 1], s.y, BIG), "delta", r"\(2,\)"),
            (lambda s: pdi_total(s, s.delta, s.y[:, None], BIG), "y", r"\(3, 1\)"),
            (lambda s: ratio_di_total(s, [[0, 1, 0]], s.y, 3.0), "delta", r"\(1, 3\)"),
            (lambda s: ratio_di_total(s, s.delta, 2.0, 3.0), "y", r"\(\)"),
            (lambda s: regdi_of(s, s.y[:, None]), "y", r"\(3, 1\)"),
            (lambda s: build_controls("standard", delta=s.delta, y=s.y[:, None], N=6,
                                      N_b=1, T_b=2.0), "y", r"\(3, 1\)"),
        ],
    )
    def test_wrong_shape_named(self, call, name, shape):
        sample = toy_sample(y=[1.0, 2.0, 3.0], delta=[0, 1, 0], N=6)
        message = rf"^{name} must have one entry per sampled unit: shape \(3,\), not {shape}$"
        with pytest.raises(ValueError, match=message):
            call(sample)


class TestHTTotal:
    def test_hand_computed(self):
        """d = (2, 4), y = (3, 5): total = 2*3 + 4*5 = 26."""
        sample = ProbabilitySample(
            unit_ids=np.array([1, 2]),
            d=np.array([2.0, 4.0]),
            pi=np.array([0.5, 0.25]),
            joint_pi=None,
            N=6,
        )
        report = ht_total(sample, [3.0, 5.0])
        assert report.total == pytest.approx(26.0)
        assert report.mean == pytest.approx(26.0 / 6)
        assert report.variance is None

    def test_hand_computed_srs_variance(self):
        """SRS of n = 4 from N = 12, y = (1, 2, 6, 9): s^2 = 41/3, so the
        variance is N^2 (1 - n/N) s^2 / n = 144 * (2/3) * (41/3) / 4 = 328."""
        sample = replace(
            toy_sample(y=[1.0, 2.0, 6.0, 9.0], delta=[0, 0, 0, 1], N=12),
            joint_pi=SRSJointInclusion(4, 12),
            design="srs",
        )
        assert ht_total(sample, sample.y).variance == pytest.approx(328.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_unbiased_over_repeated_draws(self, seed):
        """Averaged over many SRS draws the estimator recovers the
        population total to within Monte Carlo noise."""
        rng = np.random.default_rng(seed)
        pop = FinitePopulation(y=rng.normal(5.0, 2.0, size=40))
        truth = pop.y.sum()
        reps = 600
        totals = np.array(
            [ht_total(draw_srs(pop, 8, (seed, r)), draw_srs(pop, 8, (seed, r)).y).total
             for r in range(reps)]
        )
        # SE of the mean of HT totals: sd(HT)/sqrt(reps), generously x5
        slack = 5 * totals.std(ddof=1) / np.sqrt(reps)
        assert abs(totals.mean() - truth) < slack


class TestPDITotal:
    def test_hand_computed(self):
        """N = 6, big source holds 3 units totalling 6.  The sample has
        one uncovered unit (y = 1, d = 3) and one covered (y = 5):
        uncovered mean = 3*1/3 = 1, so total = 6 + (6-3)*1 = 9."""
        sample = toy_sample(y=[1.0, 5.0], delta=[0, 1], N=6)
        big = BigDataTotals(T_b=6.0, N_b=3, N=6)
        report = pdi_total(sample, sample.delta, sample.y, big)
        assert report.total == pytest.approx(9.0)
        assert report.estimator == "pdi"

    def test_empty_big_source_reduces_to_scaled_mean(self):
        """With no big data the estimator is N times the weighted mean:
        y = (1, 5), equal weights, N = 6 -> 6 * 3 = 18."""
        sample = toy_sample(y=[1.0, 5.0], delta=[0, 0], N=6)
        big = BigDataTotals(T_b=0.0, N_b=0, N=6)
        assert pdi_total(sample, sample.delta, sample.y, big).total == 18.0

    @pytest.mark.parametrize("y", [[1.0, 5.0], [3.0]])
    def test_full_coverage_returns_big_total(self, y):
        """No sampled value enters a fully covered estimate, so its
        variance is zero, even from one sampled unit, which holds no pair
        to estimate a variance from; without joint inclusion
        probabilities there is none to report."""
        n = len(y)
        sample = toy_sample(y=y, delta=[1] * n, N=6)
        big = BigDataTotals(T_b=21.0, N_b=6, N=6)
        report = pdi_total(sample, sample.delta, sample.y, big)
        assert report.total == 21.0
        assert report.variance is None
        joint = SRSJointInclusion(n, 6)
        # the SRS provider takes the closed form, one that hands over the
        # same pairs through pairwise alone the double sum
        for provider in (joint, PairsOf(joint)):
            srs = replace(sample, joint_pi=provider)
            assert pdi_total(srs, srs.delta, srs.y, big).variance == 0.0

    def test_no_uncovered_units_raises(self):
        sample = toy_sample(y=[1.0, 5.0], delta=[1, 1], N=6)
        big = BigDataTotals(T_b=6.0, N_b=3, N=6)
        with pytest.raises(DegenerateStratumError):
            pdi_total(sample, sample.delta, sample.y, big)

    def test_hand_computed_srs_variance(self):
        """SRS of n = 4 from N = 12, y = (1, 2, 6, 9), only the last unit
        covered: the uncovered mean is 3, so the residuals are
        (-2, -1, 3, 0) with s^2 = 14/3, and the variance is
        N^2 (1 - n/N) s^2 / n = 144 * (2/3) * (14/3) / 4 = 112."""
        sample = replace(
            toy_sample(y=[1.0, 2.0, 6.0, 9.0], delta=[0, 0, 0, 1], N=12),
            joint_pi=SRSJointInclusion(4, 12),
            design="srs",
        )
        big = BigDataTotals(T_b=30.0, N_b=3, N=12)
        report = pdi_total(sample, sample.delta, sample.y, big)
        assert report.total == pytest.approx(30.0 + 9 * 3.0)
        assert report.variance == pytest.approx(112.0)
        bare = replace(sample, joint_pi=None, design="generic")
        assert pdi_total(bare, bare.delta, bare.y, big).variance is None

    def test_shift_equivariance(self):
        """Adding c to every y (and c*N_b to the big total) must move
        the estimated total by exactly c*N."""
        rng = np.random.default_rng(4)
        y = rng.normal(size=10)
        delta = np.array([0, 1] * 5)
        sample = toy_sample(y=y, delta=delta, N=50)
        big = BigDataTotals(T_b=12.0, N_b=20, N=50)
        base = pdi_total(sample, delta, y, big).total
        c = 2.75
        shifted_big = BigDataTotals(T_b=12.0 + c * 20, N_b=20, N=50)
        shifted = pdi_total(sample, delta, y + c, shifted_big).total
        assert shifted == pytest.approx(base + c * 50)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=10)
        delta = np.array([0, 1] * 5)
        sample = toy_sample(y=y, delta=delta, N=50)
        big = BigDataTotals(T_b=12.0, N_b=20, N=50)
        base = pdi_total(sample, delta, y, big).total
        scaled_big = BigDataTotals(T_b=12.0 * 3, N_b=20, N=50)
        assert pdi_total(sample, delta, 3 * y, scaled_big).total == pytest.approx(
            3 * base
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_unbiased_under_accurate_membership(self, seed):
        """With the big-data column fixed and A redrawn, the mean of the
        estimator matches the population total."""
        rng = np.random.default_rng(seed)
        N = 60
        pop = FinitePopulation(
            y=rng.normal(3.0, 1.0, N), delta=(rng.random(N) < 0.4).astype(int)
        )
        big = BigDataTotals(
            T_b=float(pop.y[pop.delta == 1].sum()), N_b=pop.N_b, N=N
        )
        reps, totals = 500, []
        for r in range(reps):
            sample = draw_srs(pop, 12, (seed, r))
            try:
                totals.append(
                    pdi_total(sample, sample.delta, sample.y, big).total
                )
            except DegenerateStratumError:
                continue
        totals = np.array(totals)
        slack = 5 * totals.std(ddof=1) / np.sqrt(len(totals))
        assert abs(totals.mean() - pop.y.sum()) < slack


class TestRatioDITotal:
    def test_hand_computed(self):
        """d = 2 everywhere, y = (2, 4), delta = (0, 1), T_b = 5:
        T_hat_a = 2*2 + 2*4 = 12, T_hat_b = 2*4 = 8,
        total = 5 * 12 / 8 = 7.5."""
        sample = toy_sample(y=[2.0, 4.0], delta=[0, 1], N=4)
        report = ratio_di_total(sample, sample.delta, sample.y, T_b=5.0)
        assert report.total == pytest.approx(7.5)
        assert report.estimator == "ratio_di"

    def test_zero_big_total_in_sample_raises(self):
        sample = toy_sample(y=[2.0, 4.0], delta=[0, 0], N=4)
        with pytest.raises(DegenerateStratumError):
            ratio_di_total(sample, sample.delta, sample.y, T_b=5.0)

    def test_calibration_identity(self):
        """The implied weights reproduce T_b exactly when applied to
        delta * y."""
        rng = np.random.default_rng(9)
        y = rng.uniform(1.0, 4.0, 12)
        delta = (rng.random(12) < 0.5).astype(int)
        sample = toy_sample(y=y, delta=delta, N=120)
        T_b = 37.5
        report = ratio_di_total(sample, delta, y, T_b)
        t_b_hat = float(np.dot(sample.d * delta, y))
        implied = sample.d * T_b / t_b_hat
        assert np.dot(implied, delta * y) == pytest.approx(T_b)
        assert np.dot(implied, y) == pytest.approx(report.total)

    def test_hand_computed_srs_variance(self):
        """SRS of n = 4 from N = 10 (d = 2.5), y = (2, 4, 6, 8),
        delta = (1, 0, 1, 1), T_b = 30: T_hat_a = 50, T_hat_b = 40,
        R_hat = 1.25, total = 30 * 50 / 40 = 37.5.  The linearized residual
        e = (30 / 40) (y - 1.25 delta y) = (-0.375, 3, -1.125, -1.5) has mean
        0 and s^2 = 12.65625 / 3 = 4.21875, so the variance is
        N^2 (1 - n/N) s^2 / n = 100 * 0.6 * 4.21875 / 4 = 63.28125."""
        sample = replace(
            toy_sample(y=[2.0, 4.0, 6.0, 8.0], delta=[1, 0, 1, 1], N=10),
            joint_pi=SRSJointInclusion(4, 10),
            design="srs",
        )
        report = ratio_di_total(sample, sample.delta, sample.y, T_b=30.0)
        assert report.total == pytest.approx(37.5)
        assert report.variance == pytest.approx(63.28125, rel=1e-12)

    def test_no_variance_without_joint_pi(self):
        sample = toy_sample(y=[2.0, 4.0, 6.0, 8.0], delta=[1, 0, 1, 1], N=10)
        assert ratio_di_total(sample, sample.delta, sample.y, T_b=30.0).variance is None

    @pytest.mark.parametrize("seed", range(6))
    def test_variance_is_the_delta_method(self, seed):
        """The variance equals g' S g: g the gradient of
        f(t_a, t_b) = T_b t_a / t_b by central finite differences, and S
        the SRS covariance N^2 (1 - n/N) / n of the sample covariance of
        (y, delta y).  Steps of 1e-6 relative leave a gradient error of
        about 1e-10."""
        rng = np.random.default_rng(seed)
        N = 500
        pop = FinitePopulation(
            y=rng.gamma(2.0, 3.0, N), delta=(rng.random(N) < 0.4).astype(np.int64)
        )
        sample = draw_srs(pop, 40, (seed, 1))
        T_b = float(pop.y[pop.delta == 1].sum())
        report = ratio_di_total(sample, sample.delta, sample.y, T_b)

        def f(t_a, t_b):
            return T_b * t_a / t_b

        y, delta_y = sample.y, sample.delta * sample.y
        t = np.array([np.dot(sample.d, y), np.dot(sample.d, delta_y)])
        grad = np.empty(2)
        for j in range(2):
            h = np.zeros(2)
            h[j] = 1e-6 * t[j]
            grad[j] = (f(*(t + h)) - f(*(t - h))) / (2 * h[j])
        n = sample.n
        S = N * N * (1 - n / N) / n * np.cov(y, delta_y)
        assert report.variance == pytest.approx(grad @ S @ grad, rel=1e-9)

    def test_scaling_y_leaves_ratio_unchanged(self):
        """Both Horvitz-Thompson totals scale together, so only T_b
        moves the estimate."""
        rng = np.random.default_rng(10)
        y = rng.uniform(1.0, 4.0, 12)
        delta = np.array([1, 0] * 6)
        sample = toy_sample(y=y, delta=delta, N=120)
        a = ratio_di_total(sample, delta, y, T_b=11.0).total
        b = ratio_di_total(sample, delta, 7 * y, T_b=11.0).total
        assert a == pytest.approx(b)


class TestVarianceApproximation:
    def test_hand_computed(self):
        """(1 - 0.5) * (100^2 / 10) * 2 = 1000."""
        assert pdi_variance_approx(0.5, 2.0, N=100, n=10) == pytest.approx(1000.0)

    def test_full_coverage_gives_zero(self):
        assert pdi_variance_approx(1.0, 2.0, N=100, n=10) == 0.0

    def test_invalid_share_rejected(self):
        with pytest.raises(ValueError):
            pdi_variance_approx(1.5, 2.0, N=100, n=10)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_monte_carlo_variance(self, seed):
        """For small n/N, MC variance of the post-stratified total over
        fresh SRS draws should sit within ~15% of the approximation."""
        rng = np.random.default_rng(seed)
        N = 4000
        y = rng.normal(3.0, 1.0, N)
        delta = (rng.random(N) < 0.5).astype(int)
        pop = FinitePopulation(y=y, delta=delta)
        big = BigDataTotals(T_b=float(y[delta == 1].sum()), N_b=pop.N_b, N=N)
        uncovered = y[delta == 0]
        approx = pdi_variance_approx(
            pop.W_b, float(uncovered.var(ddof=1)), N=N, n=40
        )
        totals = []
        for r in range(2500):
            sample = draw_srs(pop, 40, (seed, r))
            try:
                totals.append(pdi_total(sample, sample.delta, sample.y, big).total)
            except DegenerateStratumError:
                continue
        mc = float(np.var(totals, ddof=1))
        assert mc == pytest.approx(approx, rel=0.15)


class TestDesignPlanning:
    def test_effective_sample_size_hand_computed(self):
        """50 * (1 / 0.5) * (3 / 2) = 150."""
        assert effective_sample_size(50, 0.5, 3.0, 2.0) == pytest.approx(150.0)

    def test_cost_rule_threshold(self):
        """n/N = 0.1 and W_b = 0.5 give threshold 0.2; a big source at
        0.15 of the survey's unit cost is worth assembling, 0.25 not."""
        cheap = cost_effective(c_a=1.0, c_b=0.15, n=100, N=1000, W_b=0.5)
        dear = cost_effective(c_a=1.0, c_b=0.25, n=100, N=1000, W_b=0.5)
        assert cheap.cost_effective and cheap.threshold == pytest.approx(0.2)
        assert not dear.cost_effective

    def test_positive_costs_required(self):
        with pytest.raises(ValueError):
            cost_effective(c_a=0.0, c_b=0.1, n=10, N=100, W_b=0.5)


class TestBigDataTotalsValidation:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            BigDataTotals(T_b=1.0, N_b=-1, N=10)

    def test_count_beyond_universe_rejected(self):
        with pytest.raises(ValueError):
            BigDataTotals(T_b=1.0, N_b=11, N=10)
