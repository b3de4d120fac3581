"""Tests for the linearization variance estimators: the
Horvitz-Thompson quadratic form, the regression estimator's residual
variance, the mass-imputation corrector, and the Monte Carlo
relative-bias helper."""

from dataclasses import replace

import numpy as np
import pytest

from bigsurv import (
    BigDataTotals,
    BigSample,
    ClassifierModel,
    ControlSpec,
    PosteriorSet,
    ProbabilitySample,
    SRSJointInclusion,
    build_controls,
    classify,
    ht_total,
    ht_variance_quadratic,
    mass_imputation_total,
    pdi2_total,
    pdi_total,
    posterior,
    regdi_total,
    two_step_regdi,
    variance_relative_bias,
)
from bigsurv.variance import _double_sum


def srs_sample(n, N, rng=None, **columns):
    """Equal-probability sample tagged as SRS with exact joint metadata."""
    ids = np.arange(1, n + 1) if rng is None else np.sort(
        rng.choice(np.arange(1, N + 1), size=n, replace=False)
    )
    return ProbabilitySample(
        unit_ids=ids,
        d=np.full(n, N / n),
        pi=np.full(n, n / N),
        joint_pi=SRSJointInclusion(n, N),
        N=N,
        design="srs",
        **columns,
    )


class PairsOf:
    """Another provider's joint probabilities handed over through
    ``pairwise`` alone, which sends the variance to the double sum."""

    def __init__(self, joint):
        self.joint = joint

    def pairwise(self, unit_ids):
        return self.joint.pairwise(unit_ids)


def pairs_only(sample):
    """The same sample with its SRS pairs behind :class:`PairsOf`."""
    return replace(sample, joint_pi=PairsOf(sample.joint_pi))


class TestHTVarianceQuadratic:
    def test_closed_form_hand_computed(self):
        """n = 2 of N = 4, residuals (1, 3): sample variance 2, so
        V = 16 (1 - 1/2) 2 / 2 = 8."""
        sample = srs_sample(2, 4)
        assert ht_variance_quadratic(sample, [1.0, 3.0]) == pytest.approx(8.0)

    def test_double_sum_hand_computed(self):
        """Same design expanded term by term: diagonal contributions
        0.5 (2 r_i)^2 give 2 + 18, the two cross terms give
        ((1/6 - 1/4) / (1/6)) * 2 * 6 = -6 each, and 20 - 12 = 8."""
        assert _double_sum(srs_sample(2, 4), [1.0, 3.0]) == pytest.approx(8.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_double_sum_matches_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 51))
        N = n + int(rng.integers(1, 200))
        sample = srs_sample(n, N, rng)
        r = rng.normal(size=n) * rng.uniform(0.5, 20.0)
        closed = ht_variance_quadratic(sample, r)
        assert _double_sum(sample, r) == pytest.approx(closed, rel=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_double_sum_without_row_sums(self, seed):
        """A provider other than SRS gets its row sums summed from the
        matrix.  Under Poisson sampling pi_ij = pi_i pi_j
        off the diagonal, so the double sum is sum_i (1 - pi_i) (r_i / pi_i)^2
        and every row sum 1 - pi_i is non-zero."""

        class PoissonPairwise:
            def __init__(self, pi):
                self.pi = pi

            def pairwise(self, unit_ids):
                out = np.outer(self.pi, self.pi)
                np.fill_diagonal(out, self.pi)
                return out

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 51))
        pi = rng.uniform(0.05, 0.9, n)
        sample = ProbabilitySample(
            unit_ids=np.arange(1, n + 1), d=1.0 / pi, pi=pi,
            joint_pi=PoissonPairwise(pi), N=10 * n, design="generic",
        )
        r = rng.normal(size=n) * rng.uniform(0.5, 20.0)
        expected = float(np.sum((1.0 - pi) * (r / pi) ** 2))
        assert ht_variance_quadratic(sample, r) == pytest.approx(expected, rel=1e-10)

    def test_census_variance_is_zero_both_paths(self):
        sample = srs_sample(5, 5)
        r = np.arange(5.0)
        assert ht_variance_quadratic(sample, r) == 0.0
        assert _double_sum(sample, r) == pytest.approx(0.0, abs=1e-12)

    def test_one_unit_raises_under_both_forms(self):
        """n = 1 of N = 4 holds no sampled pair, so neither form has an
        unbiased variance: the closed form and the double sum both raise,
        the double sum naming ``joint_pi``."""
        sample = srs_sample(1, 4)
        with pytest.raises(ValueError, match="need at least two sampled units"):
            ht_variance_quadratic(sample, [2.0])
        with pytest.raises(ValueError, match="^joint_pi: "):
            _double_sum(sample, [2.0])

    def test_provider_without_pairwise_named(self):
        """A provider must hand over the whole matrix; a bare per-pair
        callable is rejected with an error naming ``joint_pi``."""
        sample = replace(srs_sample(2, 4), joint_pi=lambda i, j: 0.5 if i == j else 1.0 / 6.0)
        with pytest.raises(ValueError, match="joint_pi must expose pairwise"):
            ht_variance_quadratic(sample, [1.0, 3.0])

    @pytest.mark.parametrize("design", ["srs", "generic"])
    def test_missing_joint_provider_named(self, design):
        """A sample without joint inclusion probabilities has no variance,
        whatever its design tag: the rule returns ``None``."""
        bare = replace(srs_sample(2, 4), joint_pi=None, design=design)
        assert ht_variance_quadratic(bare, [1.0, 3.0]) is None

    @pytest.mark.parametrize("design", ["srs", "generic"])
    def test_zero_residuals_have_zero_variance(self, design):
        """A residual of zeros is zero under either form, even for n = 1,
        where a non-zero residual has no variance estimator."""
        sample = srs_sample(1, 4)
        if design == "generic":
            sample = pairs_only(sample)
        assert ht_variance_quadratic(sample, [0.0]) == 0.0

    def test_provider_not_tag_picks_the_form(self):
        """An SRS provider takes the closed form N^2 (1 - f) s^2 / n
        exactly, whatever the label; the double sum agrees, and a provider
        that hands over the same pairs through ``pairwise`` alone takes it."""
        tagged = srs_sample(3, 9)
        r = [1.0, 2.0, 4.0]
        closed = 81 * (1 - 3 / 9) * float(np.var(r, ddof=1)) / 3
        assert ht_variance_quadratic(tagged, r) == closed
        assert ht_variance_quadratic(replace(tagged, design="generic"), r) == closed
        assert _double_sum(tagged, r) == pytest.approx(closed)
        assert ht_variance_quadratic(pairs_only(tagged), r) == pytest.approx(closed)

    def test_single_unit_closed_form_rejected(self):
        sample = srs_sample(1, 4)
        with pytest.raises(ValueError, match="two sampled"):
            ht_variance_quadratic(sample, [1.0])

    def test_residual_length_checked(self):
        sample = srs_sample(3, 9)
        with pytest.raises(ValueError, match="one entry per"):
            ht_variance_quadratic(sample, [1.0, 2.0])

    @pytest.mark.parametrize("seed", range(3))
    def test_unbiased_for_ht_total_under_srs(self, seed):
        """Monte Carlo check: the mean of the closed-form estimates
        matches the true design variance N^2 (1 - f) S^2 / n."""
        rng = np.random.default_rng(seed)
        N, n, reps = 50, 10, 2000
        y = rng.normal(5.0, 2.0, N)
        true_var = N * N * (1 - n / N) * float(np.var(y, ddof=1)) / n
        estimates = np.empty(reps)
        for k in range(reps):
            idx = rng.choice(N, size=n, replace=False)
            sample = srs_sample(n, N)
            estimates[k] = ht_variance_quadratic(sample, y[idx])
        assert np.mean(estimates) == pytest.approx(true_var, rel=0.1)


def regdi_variance(sample, y, x):
    """``regdi_total``'s variance on controls ``x`` whose totals the
    design weights already meet."""
    names = tuple(f"x{j}" for j in range(x.shape[1]))
    spec = ControlSpec("standard", x, x.T @ sample.d, names, sample.N)
    return regdi_total(sample, y, spec).variance


class TestRegDIVariance:
    def test_exact_linear_outcome_gives_zero_variance(self):
        rng = np.random.default_rng(2)
        sample = srs_sample(20, 100, rng)
        x = np.column_stack([np.ones(20), rng.normal(size=20)])
        y = x @ np.array([2.0, 3.0])
        assert regdi_variance(sample, y, x) == pytest.approx(0.0, abs=1e-16)

    @pytest.mark.parametrize("seed", range(8))
    def test_variance_of_design_orthogonal_residuals(self, seed):
        """The variance is the quadratic form of the weighted
        least-squares residuals, which are design-orthogonal to every
        control column."""
        rng = np.random.default_rng(seed)
        n = 30
        sample = srs_sample(n, 150, rng)
        x = np.column_stack([np.ones(n), rng.normal(size=n), rng.integers(0, 2, n)])
        y = rng.normal(size=n) * 4.0
        root_d = np.sqrt(sample.d)
        beta = np.linalg.lstsq(x * root_d[:, None], y * root_d, rcond=None)[0]
        resid = y - x @ beta
        assert np.allclose(x.T @ (sample.d * resid), 0.0, atol=1e-8 * np.abs(y).sum())
        assert regdi_variance(sample, y, x) == pytest.approx(
            ht_variance_quadratic(sample, resid), rel=1e-9
        )

    def test_intercept_absorbs_location_shifts(self):
        """With an intercept column the residuals -- hence the variance
        -- are invariant to adding a constant to the outcome."""
        rng = np.random.default_rng(4)
        n = 25
        sample = srs_sample(n, 125, rng)
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.normal(size=n)
        assert regdi_variance(sample, y + 17.5, x) == pytest.approx(
            regdi_variance(sample, y, x)
        )

    def test_outcome_length_mismatch_rejected(self):
        sample = srs_sample(4, 16)
        with pytest.raises(ValueError, match="one entry per"):
            regdi_variance(sample, np.arange(3.0), np.ones((4, 1)))


class TestMassImputation:
    def test_total_hand_computed(self):
        """Proxies (3, 5) of outcomes (2, 4), both matched: the fit is
        y* = 1 + y, the inversions are (2, 4), and with weights (2, 2)
        the total is 12.  The model is exact, so the variance is that of
        the outcomes: 16 (1 - 1/2) 2 / 2 = 8."""
        sample = srs_sample(
            2, 4, y=np.array([2.0, 4.0]), y_star=np.array([3.0, 5.0]),
            delta=np.array([1, 1]),
        )
        report = mass_imputation_total(sample)
        assert report.total == pytest.approx(12.0)
        assert report.variance == pytest.approx(8.0)
        assert report.population_size == 4
        assert any("fitted on 2 matched units" in note for note in report.notes)
        assert any("omitted" in note for note in report.notes)

    def test_exact_model_reduces_to_outcome_variance(self):
        """With a perfectly fitted model and noiseless proxies the
        corrected residual vanishes, so the estimator is exactly the
        design variance of the total of the true outcomes."""
        rng = np.random.default_rng(6)
        n, N = 40, 400
        y = rng.normal(3.0, 1.0, n)
        y_star = 2.0 + 0.9 * y
        delta = (rng.random(n) < 0.5).astype(np.int64)
        delta[:2] = 1
        sample = srs_sample(n, N, y=y, y_star=y_star, delta=delta)
        v = mass_imputation_total(sample).variance
        assert v == pytest.approx(ht_variance_quadratic(sample, y), rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_nonnegative_under_srs(self, seed):
        rng = np.random.default_rng(seed)
        n, N = 50, 1000
        y = rng.normal(3.0, 1.0, n)
        y_star = 2.0 + 0.9 * y + rng.normal(0.0, 0.5, n)
        delta = (rng.random(n) < 0.6).astype(np.int64)
        delta[:2] = 1
        sample = srs_sample(n, N, y=y, y_star=y_star, delta=delta)
        assert mass_imputation_total(sample).variance >= 0.0

    def test_no_variance_without_joint_probabilities(self):
        """The matched pairs (1, 2) and (2, 3.5) fit y* = 0.5 + 1.5 y, so
        the proxies (2, 3.5, 5) invert to (1, 2, 3); weights 10 give 60."""
        sample = replace(
            srs_sample(
                3, 30, y=np.array([1.0, 2.0, 4.0]), y_star=np.array([2.0, 3.5, 5.0]),
                delta=np.array([1, 1, 0]),
            ),
            joint_pi=None, design="generic",
        )
        report = mass_imputation_total(sample)
        assert report.variance is None
        assert report.total == pytest.approx(60.0)

    @pytest.mark.parametrize("column", ["y", "y_star", "delta"])
    def test_missing_column_rejected(self, column):
        sample = srs_sample(
            3, 30, y=np.ones(3), y_star=np.ones(3), delta=np.ones(3, np.int64)
        )
        with pytest.raises(ValueError, match="must carry"):
            mass_imputation_total(replace(sample, **{column: None}))


def _estimators():
    """Every estimator that reports a variance, each applied to a
    12-of-60 SRS with y, a proxy y*, membership flags and one trait."""
    big = BigDataTotals(T_b=100.0, N_b=30, N=60)
    source = BigSample(
        unit_ids=np.arange(1, 31),
        values=np.linspace(2.0, 4.0, 30),
        multiplicity=np.ones(30, np.int64),
        N=60,
        z=np.ones((30, 1), np.int64),
    )
    model = ClassifierModel(pi=0.5, m=(np.array([0.9, 0.1]),), u=(np.array([0.2, 0.8]),))

    def regdi(s):
        spec = build_controls("standard", delta=s.delta, y=s.y, N=60, N_b=30, T_b=100.0)
        return regdi_total(s, s.y, spec)

    def pdi2(s):
        p = posterior(model, s.z)
        return pdi2_total(s, source, model, PosteriorSet(p_hat=p, delta_hat=classify(p)))

    return {
        "ht_total": lambda s: ht_total(s, s.y),
        "pdi_total": lambda s: pdi_total(s, s.delta, s.y, big),
        "pdi_total_full_coverage": lambda s: pdi_total(
            s, s.delta, s.y, BigDataTotals(T_b=100.0, N_b=60, N=60)
        ),
        "regdi_total": regdi,
        "two_step_regdi": lambda s: two_step_regdi(s, big),
        "mass_imputation_total": mass_imputation_total,
        "pdi2_total": pdi2,
    }


class TestEveryEstimatorDefersToOneRule:
    """Each estimator passes its residual to ``ht_variance_quadratic``
    unchecked, so the rule alone decides whether a report has a variance.
    The SRS figures pin the variances these estimators reported when each
    still checked ``joint_pi`` itself."""

    SRS_VARIANCE = {
        "ht_total": 411.7404215812689,
        "pdi_total": 199.8693015680764,
        "pdi_total_full_coverage": 0.0,
        "regdi_total": 199.8693015680764,
        "two_step_regdi": 253.4269094357986,
        "mass_imputation_total": 616.7262421270924,
        # the labels (z = 1 inside) reproduce delta, and so pdi_total's value
        "pdi2_total": 199.8693015680764,
    }

    @staticmethod
    def sample():
        rng = np.random.default_rng(13)
        y = rng.normal(3.0, 1.0, 12)
        return srs_sample(
            12, 60, y=y, y_star=2.0 + 0.9 * y + rng.normal(0.0, 0.3, 12),
            delta=np.array([1, 0] * 6), z=np.array([[1], [2]] * 6),
        )

    @pytest.mark.parametrize("name", sorted(SRS_VARIANCE))
    def test_srs_variance_unchanged(self, name):
        report = _estimators()[name](self.sample())
        assert report.variance == pytest.approx(self.SRS_VARIANCE[name], rel=1e-12)

    @pytest.mark.parametrize("name", sorted(SRS_VARIANCE))
    @pytest.mark.parametrize("design", ["srs", "generic"])
    def test_no_variance_without_joint_pi(self, name, design):
        bare = replace(self.sample(), joint_pi=None, design=design)
        report = _estimators()[name](bare)
        assert report.variance is None
        assert report.total == _estimators()[name](self.sample()).total


class TestVarianceRelativeBias:
    def test_hand_computed_ratio(self):
        """Estimates (1, 2, 3) have sample variance 1; variance
        estimates averaging 1.5 give a relative bias of +0.5."""
        pairs = [(1.0, 1.2), (2.0, 1.5), (3.0, 1.8)]
        assert variance_relative_bias(pairs) == pytest.approx(0.5)

    def test_unbiased_estimator_scores_zero(self):
        rng = np.random.default_rng(1)
        estimates = rng.normal(size=500)
        v = float(np.var(estimates, ddof=1))
        pairs = np.column_stack([estimates, np.full(500, v)])
        assert variance_relative_bias(pairs) == pytest.approx(0.0, abs=1e-12)

    def test_single_pair_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            variance_relative_bias([(1.0, 1.0)])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            variance_relative_bias([(1.0, 1.0, 1.0), (2.0, 2.0, 2.0)])

    def test_constant_estimates_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            variance_relative_bias([(2.0, 1.0), (2.0, 1.0)])
