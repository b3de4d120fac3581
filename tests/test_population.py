"""Tests for population containers, generators, and sampling designs."""

import numpy as np
import pytest

from bigsurv import (
    BigSample,
    FinitePopulation,
    InfeasibleSelectionError,
    ProbabilitySample,
    SRSJointInclusion,
    big_data_inclusion_probabilities,
    draw_srs,
    generate_population_sim1,
    generate_population_sim2,
    select_big_data_stratified,
    substream,
)


class TestFinitePopulation:
    def test_counts_and_shares(self):
        pop = FinitePopulation(y=[1.0, 2.0, 3.0, 4.0], delta=[1, 0, 1, 0])
        assert pop.N == 4
        assert pop.N_b == 2
        assert pop.W_b == 0.5
        assert np.array_equal(pop.ids, [1, 2, 3, 4])

    def test_delta_defaults_to_no_members(self):
        pop = FinitePopulation(y=[1.0, 2.0])
        assert pop.N_b == 0

    def test_columns_are_read_only(self):
        pop = FinitePopulation(y=[1.0, 2.0])
        with pytest.raises(ValueError):
            pop.y[0] = 99.0

    def test_with_delta_keeps_original_untouched(self):
        pop = FinitePopulation(y=[1.0, 2.0])
        marked = pop.with_delta([1, 0])
        assert pop.N_b == 0
        assert marked.N_b == 1

    def test_big_sample_view(self):
        pop = FinitePopulation(y=[1.0, 2.0, 3.0], delta=[0, 1, 1])
        big = pop.big_sample()
        assert np.array_equal(big.unit_ids, [2, 3])
        assert big.total == 5.0
        assert big.N_b == 2
        assert big.W_b == pytest.approx(2 / 3)

    def test_big_sample_proxy_column(self):
        pop = FinitePopulation(y=[1.0, 2.0], y_star=[10.0, 20.0], delta=[1, 1])
        assert pop.big_sample(value="y_star").total == 30.0

    def test_big_sample_counts_duplicates(self):
        """delta >= 2 records a unit captured twice by the big source."""
        pop = FinitePopulation(y=[1.0, 2.0], delta=[2, 1])
        big = pop.big_sample()
        assert big.N_b == 3
        assert big.total == 2 * 1.0 + 2.0

    def test_big_sample_without_values_has_no_total(self):
        big = BigSample(
            unit_ids=[1, 2], values=None, multiplicity=np.ones(2, np.int64), N=5,
        )
        assert big.N_b == 2
        with pytest.raises(ValueError, match=r"without its value column \('y' or 'y_star'\)"):
            big.total

    @pytest.mark.parametrize("ids, bad", [([1, 0, 99, -3], 0), ([4, 21], 21)])
    def test_big_sample_ids_outside_universe_rejected(self, ids, bad):
        with pytest.raises(ValueError, match=rf"unit_ids must lie in 1\.\.20; found {bad}$"):
            BigSample(
                unit_ids=ids, values=np.ones(len(ids)),
                multiplicity=np.ones(len(ids), np.int64), N=20,
            )


class TestProbabilitySampleValidation:
    def test_weight_probability_consistency_enforced(self):
        with pytest.raises(ValueError):
            ProbabilitySample(
                unit_ids=np.array([1]),
                d=np.array([3.0]),
                pi=np.array([0.5]),
                joint_pi=None,
                N=2,
            )

    def test_probabilities_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            ProbabilitySample(
                unit_ids=np.array([1]),
                d=np.array([0.5]),
                pi=np.array([2.0]),
                joint_pi=None,
                N=2,
            )

    @pytest.mark.parametrize(
        "d, pi, name",
        [((np.nan, 2.0), (np.nan, 0.5), "d"), ((2.0, 2.0), (np.nan, 0.5), "pi")],
    )
    def test_non_finite_weights_rejected(self, d, pi, name):
        """A NaN passes every range and reciprocity comparison, so it is
        rejected on its own, naming the column."""
        with pytest.raises(ValueError, match=rf"^{name} must hold finite values"):
            ProbabilitySample(
                unit_ids=np.array([1, 2]),
                d=np.array(d),
                pi=np.array(pi),
                joint_pi=None,
                N=4,
            )

    @pytest.mark.parametrize(
        "d, pi, message",
        [
            ((2.0, 3.0), (0.5, 0.5),
             "design weights must be reciprocal inclusion probabilities"),
            ((0.5, 2.0), (2.0, 0.5), r"inclusion probabilities must lie in \(0, 1\]"),
            ((2.0, 2.0), (0.0, 0.5), r"inclusion probabilities must lie in \(0, 1\]"),
            ((np.inf, 2.0), (0.5, 0.5), "d must hold finite values"),
            ((2.0, 2.0), (0.5, -np.inf), r"inclusion probabilities must lie in \(0, 1\]"),
            # reciprocal, so only the range test catches a negative pi
            ((-2.0, 2.0), (-0.5, 0.5), r"inclusion probabilities must lie in \(0, 1\]"),
            # d * pi off by 1e-6: the tolerance is 1e-9
            ((2.000002, 2.0), (0.5, 0.5),
             "design weights must be reciprocal inclusion probabilities"),
        ],
    )
    def test_each_weight_fault_is_named(self, d, pi, message):
        """Valid weights pass on three reductions; a fault takes the named
        checks, in the order range, finiteness, reciprocity."""
        with pytest.raises(ValueError, match=rf"^{message}$"):
            ProbabilitySample(
                unit_ids=np.array([1, 2]), d=np.array(d), pi=np.array(pi),
                joint_pi=None, N=4,
            )

    @pytest.mark.parametrize("bad, shown", [(2.5, r"2\.5"), (np.inf, "inf")])
    def test_non_integral_z_rejected(self, bad, shown):
        """A level 2.5 would be cast to 2, and an infinite one to a garbage
        integer; every container names the column."""
        z = np.array([[1.0, 1.0], [2.0, bad]])
        message = rf"^z column 2 holds {shown}, which is not a whole number$"
        with pytest.raises(ValueError, match=message):
            ProbabilitySample(
                unit_ids=np.array([1, 2]), d=np.full(2, 2.0), pi=np.full(2, 0.5),
                joint_pi=None, N=4, z=z,
            )
        with pytest.raises(ValueError, match=message):
            FinitePopulation(y=np.zeros(2), z=z)
        with pytest.raises(ValueError, match=message):
            BigSample(unit_ids=np.array([1, 2]), values=np.zeros(2),
                      multiplicity=np.ones(2, np.int64), N=4, z=z)
        whole = FinitePopulation(y=np.zeros(2), z=np.array([[1.0, 1.0], [2.0, 3.0]]))
        assert whole.z.dtype == np.int64 and whole.z.tolist() == [[1, 1], [2, 3]]

    def test_non_integral_ids_and_counts_rejected(self):
        """The int64 cast would truncate 0.5 to 0 and 1.5 to 1, as it
        would a level of z; whole floats still serve."""
        with pytest.raises(ValueError, match=r"^delta holds 0\.5, which is not a whole number$"):
            FinitePopulation(y=np.zeros(2), delta=[1.0, 0.5])
        with pytest.raises(ValueError, match=r"^unit_ids holds 1\.5, which is not a whole number$"):
            ProbabilitySample(
                unit_ids=[1.5, 2.0], d=np.full(2, 2.0), pi=np.full(2, 0.5), joint_pi=None, N=4,
            )
        with pytest.raises(ValueError, match=r"^multiplicity holds nan, which is not a whole"):
            BigSample(unit_ids=[1, 2], values=np.zeros(2), multiplicity=[1.0, np.nan], N=4)
        whole = FinitePopulation(y=np.zeros(2), delta=[1.0, 0.0], stratum=[2.0, 1.0])
        assert whole.delta.tolist() == [1, 0] and whole.stratum.dtype == np.int64

    def test_universe_below_sample_size_rejected(self):
        with pytest.raises(ValueError, match="universe size N = 2"):
            ProbabilitySample(
                unit_ids=np.array([1, 2, 3]),
                d=np.full(3, 2.0),
                pi=np.full(3, 0.5),
                joint_pi=None,
                N=2,
            )

    @pytest.mark.parametrize(
        "name, column",
        [
            ("y", [1.0, 2.0]),
            ("y_star", [1.0, 2.0, 3.0, 4.0]),
            ("delta", [1, 0]),
            ("z", [[1, 2], [2, 1]]),
            ("y", 1.0),
            ("y", [[1.0], [2.0], [3.0]]),
            ("z", [1, 2, 3]),
            ("pi", [[0.5], [0.5], [0.5]]),
        ],
    )
    def test_observed_column_needs_one_row_per_unit(self, name, column):
        with pytest.raises(ValueError, match=rf"^{name} must have one entry per sampled unit: "):
            ProbabilitySample(
                **{
                    "unit_ids": np.array([1, 2, 3]),
                    "d": np.full(3, 2.0),
                    "pi": np.full(3, 0.5),
                    "joint_pi": None,
                    "N": 6,
                    name: column,
                }
            )

    @pytest.mark.parametrize(
        "name, column, shape",
        [
            ("y", [[1.0], [2.0], [3.0]], r"\(3,\), not \(3, 1\)"),
            ("y_star", [1.0, 2.0], r"\(3,\), not \(2,\)"),
            ("z", [1, 2, 3], r"\(3, K\), not \(3,\)"),
            ("z", [[1, 2], [2, 1]], r"\(3, K\), not \(2, 2\)"),
            ("stratum", [[1, 2, 1]], r"\(3,\), not \(1, 3\)"),
        ],
    )
    def test_population_column_needs_one_row_per_unit(self, name, column, shape):
        with pytest.raises(ValueError, match=rf"^{name} must have one entry per unit: shape {shape}$"):
            FinitePopulation(**{"y": np.zeros(3), name: column})

    @pytest.mark.parametrize(
        "name, column, shape",
        [
            ("z", [[1], [2]], r"\(3, K\), not \(2, 1\)"),
            ("z", [1, 2, 3], r"\(3, K\), not \(3,\)"),
            ("values", [1.0, 2.0], r"\(3,\), not \(2,\)"),
            ("multiplicity", [[1, 1, 1]], r"\(3,\), not \(1, 3\)"),
        ],
    )
    def test_big_sample_column_needs_one_row_per_unit(self, name, column, shape):
        """A ``z`` with fewer rows than units would let the classified
        estimator return a total without complaint."""
        columns = {
            "unit_ids": np.array([1, 2, 3]), "values": np.zeros(3),
            "multiplicity": np.ones(3, np.int64), "N": 6,
        }
        with pytest.raises(
            ValueError, match=rf"^{name} must have one entry per big-source unit: shape {shape}$"
        ):
            BigSample(**{**columns, name: column})

    def test_negative_membership_rejected(self):
        """A count below zero has no meaning in a sample or a population."""
        message = r"^delta entries must be at least 0; found -1$"
        with pytest.raises(ValueError, match=message):
            ProbabilitySample(
                unit_ids=np.array([1, 2, 3]), d=np.full(3, 2.0), pi=np.full(3, 0.5),
                joint_pi=None, N=6, delta=np.array([0, -1, 1]),
            )
        with pytest.raises(ValueError, match=message):
            FinitePopulation(y=np.zeros(3), delta=[0, -1, 1])

    @pytest.mark.parametrize("ids, bad", [([1, 0, 3], 0), ([1, 7, 3], 7)])
    def test_sample_ids_outside_universe_rejected(self, ids, bad):
        with pytest.raises(ValueError, match=rf"^unit_ids must lie in 1\.\.6; found {bad}$"):
            ProbabilitySample(
                unit_ids=np.array(ids), d=np.full(3, 2.0), pi=np.full(3, 0.5),
                joint_pi=None, N=6,
            )

    @pytest.mark.parametrize("ids, unit", [([1, 1], 1), ([5, 2, 5, 2], 2), ([3, 1, 3], 3)])
    def test_repeated_unit_ids_rejected(self, ids, unit):
        """A unit drawn twice is not a sample without replacement, and a
        big-source unit listed twice is a multiplicity written wrong:
        both name the first repeated unit."""
        n = len(ids)
        with pytest.raises(ValueError, match=rf"^unit_ids repeats unit {unit}$"):
            ProbabilitySample(
                unit_ids=np.array(ids), d=np.full(n, 2.0), pi=np.full(n, 0.5),
                joint_pi=None, N=6,
            )
        with pytest.raises(ValueError, match=rf"^unit_ids repeats unit {unit}$"):
            BigSample(unit_ids=np.array(ids), values=np.ones(n),
                      multiplicity=np.ones(n, np.int64), N=6)

    def test_range_fault_is_named_before_a_repeat(self):
        with pytest.raises(ValueError, match=r"^unit_ids must lie in 1\.\.6; found 9$"):
            BigSample(unit_ids=np.array([2, 2, 9]), values=np.ones(3),
                      multiplicity=np.ones(3, np.int64), N=6)

    @pytest.mark.parametrize(
        "given, message",
        [
            (dict(d=None), "^d must be given, not None$"),
            (dict(pi=None), "^pi must be given, not None$"),
            (dict(d=None, pi=None), "^d, pi must be given, not None$"),
            (dict(unit_ids=None), "^unit_ids must be given, not None$"),
        ],
    )
    def test_required_sample_column_given_as_none_is_named(self, given, message):
        columns = dict(unit_ids=np.array([1, 2]), d=np.full(2, 2.0), pi=np.full(2, 0.5))
        with pytest.raises(ValueError, match=message):
            ProbabilitySample(**{**columns, **given}, joint_pi=None, N=4)

    def test_required_big_source_and_population_columns_given_as_none_are_named(self):
        with pytest.raises(ValueError, match="^multiplicity must be given, not None$"):
            BigSample(unit_ids=np.array([1, 2]), values=np.ones(2), multiplicity=None, N=4)
        with pytest.raises(ValueError, match="^unit_ids, multiplicity must be given, not None$"):
            BigSample(unit_ids=None, values=np.ones(2), multiplicity=None, N=4)
        with pytest.raises(ValueError, match="^y must be given, not None$"):
            FinitePopulation(y=None)

    @pytest.mark.parametrize("design", ["Srs", "poisson", ""])
    def test_unknown_design_tag_rejected(self, design):
        """``design`` is a label that no computation reads, but only the
        two known labels are accepted."""
        with pytest.raises(ValueError, match=r"^design must be one of \('srs', 'generic'\)"):
            ProbabilitySample(
                unit_ids=np.array([1, 2]),
                d=np.full(2, 2.0),
                pi=np.full(2, 0.5),
                joint_pi=SRSJointInclusion(2, 4),
                N=4,
                design=design,
            )

    @pytest.mark.parametrize("design", ["srs", "generic"])
    def test_srs_provider_needs_equal_probabilities(self, design):
        """SRS joint probabilities on unequal pi would give the closed form
        54.44 for residuals (1, 2, 4) here, and the double sum over the
        same pairs -7.22; under either label the sample is rejected."""
        columns = dict(
            unit_ids=np.array([1, 2, 3]),
            d=1.0 / np.array([0.1, 0.2, 0.3]),
            pi=np.array([0.1, 0.2, 0.3]),
            joint_pi=SRSJointInclusion(3, 10),
            N=10,
            design=design,
        )
        message = r"^joint_pi is an SRS, which needs every pi equal to n / N = 0\.3$"
        with pytest.raises(ValueError, match=message):
            ProbabilitySample(**columns)
        # 1e-6 off n / N is still off: the tolerance is 1e-9 relative
        near = np.array([0.3, 0.3, 0.3 * (1 + 1e-6)])
        with pytest.raises(ValueError, match=message):
            ProbabilitySample(**{**columns, "pi": near, "d": 1.0 / near})

    @pytest.mark.parametrize("design", ["srs", "generic"])
    def test_srs_joint_pi_must_match_the_sample(self, design):
        """A 2-of-4 sample with the joint probabilities of a 3-of-10 SRS
        would give the double sum 44 for residuals (1, 3) where the right
        value is 8, and the closed form would never read them."""
        with pytest.raises(
            ValueError,
            match=r"^joint_pi is an SRS of \(n, N\) = \(3, 10\), "
            r"but the sample has \(n, N\) = \(2, 4\)$",
        ):
            ProbabilitySample(
                unit_ids=np.array([1, 3]),
                d=np.full(2, 2.0),
                pi=np.full(2, 0.5),
                joint_pi=SRSJointInclusion(3, 10),
                N=4,
                design=design,
            )


class TestSRSJointInclusion:
    def test_hand_computed_pairs(self):
        """n=2 of N=4: pi_i = 1/2, pi_ij = n(n-1)/(N(N-1)) = 1/6."""
        joint = SRSJointInclusion(n=2, N=4)
        mat = joint.pairwise(np.array([1, 3]))
        assert mat == pytest.approx(np.array([[0.5, 1 / 6], [1 / 6, 0.5]]))

    def test_pairwise_matrix_of_three_units(self):
        """n=3 of N=10: pi_i = 3/10 on the diagonal, pi_ij = 6/90 off it."""
        joint = SRSJointInclusion(n=3, N=10)
        mat = joint.pairwise(np.array([2, 5, 9]))
        assert mat.shape == (3, 3)
        assert np.diag(mat) == pytest.approx(np.full(3, 0.3))
        assert mat[~np.eye(3, dtype=bool)] == pytest.approx(np.full(6, 6 / 90))

    @pytest.mark.parametrize("N", [1, 4])
    def test_single_unit_design_has_no_pairs(self, N):
        """n = 1 makes every pi_ij zero, so no matrix is handed out."""
        with pytest.raises(ValueError, match="^joint_pi: an SRS of n = 1 holds no pair"):
            SRSJointInclusion(n=1, N=N).pairwise(np.array([1]))


class TestContinuousPopulation:
    def test_deterministic_for_fixed_seed(self):
        a = generate_population_sim1(500, 11)
        b = generate_population_sim1(500, 11)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.y_star, b.y_star)

    def test_seed_changes_output(self):
        a = generate_population_sim1(500, 11)
        b = generate_population_sim1(500, 12)
        assert not np.array_equal(a.y, b.y)

    def test_first_and_second_moments(self):
        """y has mean 3 and unit variance; the proxy is centred at 2.

        y = 3 + 0.7(x-2) + e with Var(e) = 0.51 gives Var(y) =
        0.49 + 0.51 = 1; y* = 2 + 0.9(y-3) + u with Var(u) = 0.25
        gives Var(y*) = 0.81 + 0.25 = 1.06.
        """
        pop = generate_population_sim1(200_000, 3)
        assert pop.y.mean() == pytest.approx(3.0, abs=0.02)
        assert pop.y.var() == pytest.approx(1.0, rel=0.03)
        assert pop.y_star.mean() == pytest.approx(2.0, abs=0.02)
        assert pop.y_star.var() == pytest.approx(1.06, rel=0.03)

    def test_stratum_splits_on_x_threshold(self):
        """Strata are a deterministic function of x; via y's regression
        structure the stratum-1 mean of y must sit below the stratum-2
        mean by roughly 0.7 * E|x-2| * 2."""
        pop = generate_population_sim1(100_000, 5)
        assert set(np.unique(pop.stratum)) == {1, 2}
        gap = pop.y[pop.stratum == 2].mean() - pop.y[pop.stratum == 1].mean()
        assert gap == pytest.approx(2 * 0.7 * np.sqrt(2 / np.pi), abs=0.03)


class TestMembershipProbabilities:
    def test_hand_computed_rates(self):
        """z1 = [1, 1, 15, 15], target 3: c = 3 / (2 + 2*2) = 0.5,
        so rates are [0.5, 0.5, 1.0, 1.0]."""
        probs = big_data_inclusion_probabilities([1, 1, 15, 15], 3)
        assert np.allclose(probs, [0.5, 0.5, 1.0, 1.0])

    def test_expected_size_matches_target(self):
        rng = np.random.default_rng(0)
        z1 = rng.integers(1, 21, size=5000)
        probs = big_data_inclusion_probabilities(z1, 2500)
        assert probs.sum() == pytest.approx(2500.0)

    def test_infeasible_target_raises(self):
        """z1 = [1, 15], target 2 forces 2c = 4/3 > 1."""
        with pytest.raises(InfeasibleSelectionError):
            big_data_inclusion_probabilities([1, 15], 2)


class TestCategoricalPopulation:
    def test_attribute_ranges(self):
        pop = generate_population_sim2(5000, 2500, 17)
        assert pop.z.shape == (5000, 2)
        assert pop.z[:, 0].min() >= 1 and pop.z[:, 0].max() <= 20
        assert pop.z[:, 1].min() >= 1 and pop.z[:, 1].max() <= 10

    def test_outcome_bounds_by_group(self):
        """The low-z1 arm is 6 + 0.3(z2+e) in (6.3, 9.3); the high-z1
        arm is 4 + 0.5(z2+e) in (4.5, 9.5)."""
        pop = generate_population_sim2(20_000, 10_000, 23)
        lo = pop.z[:, 0] <= 10
        assert pop.y[lo].min() > 6.3 - 1e-9 and pop.y[lo].max() < 9.3
        assert pop.y[~lo].min() > 4.5 - 1e-9 and pop.y[~lo].max() < 9.5

    def test_membership_rate_doubles_in_high_group(self):
        pop = generate_population_sim2(100_000, 50_000, 29)
        lo = pop.z[:, 0] <= 10
        rate_lo = pop.delta[lo].mean()
        rate_hi = pop.delta[~lo].mean()
        assert rate_hi / rate_lo == pytest.approx(2.0, rel=0.05)

    def test_realized_size_near_target(self):
        """The Bernoulli draw has SD < sqrt(N)/2, so 4 SD of slack."""
        pop = generate_population_sim2(10_000, 5_000, 31)
        assert abs(pop.N_b - 5_000) < 4 * np.sqrt(10_000) / 2

    def test_big_mean_understates_population_mean(self):
        """Membership is twice as likely exactly where the outcome runs
        lower, so the raw big-data mean needs to fall short."""
        pop = generate_population_sim2(50_000, 25_000, 37)
        big_mean = pop.y[pop.delta == 1].mean()
        assert big_mean < pop.y.mean() - 0.05


class TestDrawSRS:
    def test_design_columns(self):
        pop = generate_population_sim1(1000, 7)
        sample = draw_srs(pop, 100, 99)
        assert sample.n == 100
        assert np.all(sample.d == 10.0)
        assert np.all(sample.pi == 0.1)
        assert sample.design == "srs"
        ids = sample.unit_ids
        assert np.array_equal(ids, np.unique(ids))

    def test_values_align_with_population(self):
        pop = generate_population_sim1(1000, 7)
        sample = draw_srs(pop, 50, 99)
        idx = sample.unit_ids - 1
        assert np.array_equal(sample.y, pop.y[idx])
        assert np.array_equal(sample.y_star, pop.y_star[idx])

    def test_invalid_size_rejected(self):
        pop = generate_population_sim1(10, 7)
        with pytest.raises(ValueError):
            draw_srs(pop, 11, 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_draws_cover_population_uniformly(self, seed):
        """Every unit's inclusion indicator averages to n/N."""
        pop = FinitePopulation(y=np.zeros(20))
        hits = np.zeros(20)
        reps = 400
        for r in range(reps):
            sample = draw_srs(pop, 5, (seed, r))
            hits[sample.unit_ids - 1] += 1
        rates = hits / reps
        # binomial SD per unit is sqrt(.25*.75/400) ~ 0.0217
        assert np.all(np.abs(rates - 0.25) < 5 * 0.0217)


class TestStratifiedSelection:
    def test_exact_sizes_per_stratum(self):
        pop = generate_population_sim1(10_000, 13)
        marked = select_big_data_stratified(pop, {1: 1200, 2: 800}, 55)
        assert marked.N_b == 2000
        assert marked.delta[marked.stratum == 1].sum() == 1200
        assert marked.delta[marked.stratum == 2].sum() == 800

    def test_oversized_request_rejected(self):
        pop = FinitePopulation(y=np.zeros(4), stratum=[1, 1, 2, 2])
        with pytest.raises(
            ValueError, match="stratum_sizes asks 3 units of stratum 1, which holds 2"
        ):
            select_big_data_stratified(pop, {1: 3}, 0)

    def test_nothing_asked_rejected(self):
        pop = FinitePopulation(y=np.zeros(4), stratum=[1, 1, 2, 2])
        with pytest.raises(ValueError, match="at least one unit in all"):
            select_big_data_stratified(pop, {1: 0, 2: 0}, 0)

    def test_stratum_asked_for_none_still_draws_its_keys(self):
        """Strata are drawn in label order from one stream, and every
        stratum draws its uniform keys, even one asked for no units."""
        pop = FinitePopulation(y=np.zeros(7), stratum=[1, 1, 1, 2, 2, 2, 2])
        marked = select_big_data_stratified(pop, {2: 2, 1: 0}, 5)
        rng = substream(5)
        rng.random(3)  # stratum 1's keys
        expected = np.zeros(7, np.int64)
        expected[3 + np.argpartition(rng.random(4), 2)[:2]] = 1
        assert np.array_equal(marked.delta, expected)

    def test_empty_stratum_asked_for_none_accepted(self):
        pop = FinitePopulation(y=np.zeros(3), stratum=[1, 1, 1])
        marked = select_big_data_stratified(pop, {1: 2, 2: 0}, 0)
        assert marked.N_b == 2

    def test_requires_stratum_column(self):
        pop = FinitePopulation(y=np.zeros(4))
        with pytest.raises(ValueError):
            select_big_data_stratified(pop, {1: 1}, 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_within_stratum_selection_is_uniform(self, seed):
        pop = FinitePopulation(y=np.zeros(10), stratum=[1] * 10)
        hits = np.zeros(10)
        reps = 300
        for r in range(reps):
            marked = select_big_data_stratified(pop, {1: 3}, (seed, r))
            hits += marked.delta
        rates = hits / reps
        assert np.all(np.abs(rates - 0.3) < 5 * np.sqrt(0.3 * 0.7 / reps))


class TestSubstream:
    def test_tuple_and_varargs_agree(self):
        a = substream((5, 1, 2)).random(4)
        b = substream(5, 1, 2).random(4)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        assert substream(5).random() != substream(5, 0).random()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert substream(gen) is gen

    def test_generator_path_extension_rejected(self):
        with pytest.raises(ValueError):
            substream(np.random.default_rng(0), 1)
