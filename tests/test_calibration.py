"""Tests for chi-square-distance calibration and the regression
data-integration estimator."""

import numpy as np
import pytest

from bigsurv import (
    BigDataTotals,
    ProbabilitySample,
    SingularControlsError,
    build_controls,
    pdi_total,
    regdi_total,
    solve_weights,
)


def make_sample(d, y=None, delta=None, N=None):
    d = np.asarray(d, float)
    n = d.size
    if N is None:
        N = int(round(d.sum()))
    return ProbabilitySample(
        unit_ids=np.arange(1, n + 1),
        d=d,
        pi=1.0 / d,
        joint_pi=None,
        N=N,
        y=None if y is None else np.asarray(y, float),
        delta=None if delta is None else np.asarray(delta),
    )


def kkt_reference_weights(d, x, totals):
    """Solve the constrained minimisation directly.

    minimise (w-d)' D^-1 (w-d) subject to x'w = totals, via the full
    block system [[2 D^-1, x], [x', 0]] [w; mu] = [2 D^-1 d; totals].
    """
    d = np.asarray(d, float)
    x = np.asarray(x, float)
    n, p = x.shape
    top = np.hstack([2.0 * np.diag(1.0 / d), x])
    bottom = np.hstack([x.T, np.zeros((p, p))])
    rhs = np.concatenate([2.0 * np.ones(n), np.asarray(totals, float)])
    solution = np.linalg.solve(np.vstack([top, bottom]), rhs)
    return solution[:n]


def chi_square_distance(w, d):
    return float(np.sum((w - d) ** 2 / d))


class TestSolveWeights:
    def test_single_control_hand_computed(self):
        """d = (2, 2), control 1, total 6: lambda = (6-4)/4 = 0.5 and
        w = d * 1.5 = (3, 3)."""
        sample = make_sample([2.0, 2.0])
        result = solve_weights(sample, np.ones((2, 1)), [6.0])
        assert np.allclose(result.w, [3.0, 3.0])
        assert result.negative_weights == 0

    def test_two_group_hand_computed(self):
        """d = (1, 2, 3) with group indicators, totals (4, 5).

        The Gram matrix is diag(3, 3), shortfall (1, 2), so lambda =
        (1/3, 2/3) and w = (4/3, 8/3, 5)."""
        sample = make_sample([1.0, 2.0, 3.0])
        x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        result = solve_weights(sample, x, [4.0, 5.0])
        assert np.allclose(result.w, [4 / 3, 8 / 3, 5.0])

    def test_weights_unchanged_when_totals_already_met(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(1.0, 5.0, 8)
        x = rng.normal(size=(8, 3))
        sample = make_sample(d)
        result = solve_weights(sample, x, x.T @ d)
        assert np.allclose(result.w, d, rtol=1e-12, atol=1e-12)

    def test_achieved_totals_reported_exactly(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(1.0, 5.0, 10)
        x = np.column_stack([np.ones(10), rng.normal(size=10)])
        totals = [12.0, 3.0]
        result = solve_weights(make_sample(d), x, totals)
        assert np.allclose(result.achieved_totals, totals, rtol=1e-10)
        assert np.allclose(x.T @ result.w, totals, rtol=1e-10)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_block_kkt_solution(self, seed):
        """The closed-form solution must agree with an independent
        solve of the full KKT system."""
        rng = np.random.default_rng(seed)
        n = rng.integers(3, 9)
        p = rng.integers(1, min(4, n))
        d = rng.uniform(1.0, 6.0, n)
        x = rng.normal(size=(n, p))
        totals = x.T @ d + rng.normal(scale=0.3, size=p)
        got = solve_weights(make_sample(d), x, totals).w
        want = kkt_reference_weights(d, x, totals)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("seed", range(12))
    def test_solution_minimises_chi_square_distance(self, seed):
        """Feasible perturbations (null-space directions of the
        constraints) can only increase the objective."""
        rng = np.random.default_rng(100 + seed)
        n, p = 7, 2
        d = rng.uniform(1.0, 4.0, n)
        x = rng.normal(size=(n, p))
        totals = x.T @ d + rng.normal(scale=0.2, size=p)
        w_star = solve_weights(make_sample(d), x, totals).w
        q_star = chi_square_distance(w_star, d)
        # project random directions onto the constraint null space
        proj = np.eye(n) - x @ np.linalg.solve(x.T @ x, x.T)
        for _ in range(10):
            v = proj @ rng.normal(size=n)
            for eps in (1e-3, 0.1, 1.0):
                q = chi_square_distance(w_star + eps * v, d)
                assert q >= q_star - 1e-12

    def test_projection_form_when_intercept_spanned(self):
        """With an intercept among the controls, the calibrated weights
        also equal the pure projection form d_i * totals' M^-1 x_i."""
        rng = np.random.default_rng(3)
        n = 9
        d = rng.uniform(1.0, 3.0, n)
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        totals = np.array([20.0, 4.0])
        w = solve_weights(make_sample(d), x, totals).w
        gram = x.T @ (x * d[:, None])
        projection = d * (x @ np.linalg.solve(gram, totals))
        assert np.allclose(w, projection, rtol=1e-9)

    def test_collinear_controls_raise_with_names(self):
        sample = make_sample([1.0, 2.0, 3.0])
        x = np.column_stack([np.ones(3), 2 * np.ones(3), [1.0, 0.0, 1.0]])
        with pytest.raises(SingularControlsError) as info:
            solve_weights(sample, x, [6.0, 12.0, 2.0], names=("a", "b", "c"))
        assert "a" in info.value.names and "b" in info.value.names

    def test_negative_weights_are_counted_not_rejected(self):
        """Calibrating two units' total from 4 down to 0.5 forces one
        weight through zero."""
        sample = make_sample([2.0, 2.0])
        x = np.array([[1.0], [3.0]])
        result = solve_weights(sample, x, [0.5])
        assert result.negative_weights >= 1
        assert x.T @ result.w == pytest.approx(0.5)


class TestBuildControls:
    def test_standard_variant(self):
        delta = np.array([0, 1, 1])
        y = np.array([1.0, 2.0, 3.0])
        spec = build_controls(
            "standard", delta=delta, y=y, N=10, N_b=6, T_b=14.0
        )
        assert spec.names == ("uncovered", "big", "big_y")
        assert np.allclose(spec.totals, [4.0, 6.0, 14.0])
        assert np.allclose(spec.x[:, 0], [1.0, 0.0, 0.0])
        assert np.allclose(spec.x[:, 2], [0.0, 2.0, 3.0])

    def test_duplication_variant_keeps_multiplicity(self):
        delta = np.array([0, 2, 1])
        y = np.array([1.0, 2.0, 3.0])
        spec = build_controls(
            "duplication", delta=delta, y=y, N=10, N_b=12, T_b=30.0
        )
        assert spec.names == ("overall", "big_count", "big_y")
        assert np.allclose(spec.x[:, 0], 1.0)
        assert np.allclose(spec.x[:, 1], [0.0, 2.0, 1.0])
        assert np.allclose(spec.x[:, 2], [0.0, 4.0, 3.0])
        assert np.allclose(spec.totals, [10.0, 12.0, 30.0])

    def test_proxy_variant_uses_y_star(self):
        delta = np.array([0, 1])
        spec = build_controls(
            "proxy_ystar", delta=delta, y_star=[9.0, 7.0], N=5, N_b=2, T_b=13.0
        )
        assert spec.names[-1] == "big_y_star"
        assert np.allclose(spec.x[:, 2], [0.0, 7.0])

    def test_aux_z_big_side_totals(self):
        delta = np.array([0, 1])
        spec = build_controls(
            "with_aux_z",
            delta=delta,
            y=[1.0, 2.0],
            z=[[3.0], [4.0]],
            N=5,
            N_b=2,
            T_b=9.0,
            z_totals=[8.0],
        )
        assert spec.names == ("uncovered", "big", "big_y", "big_z1")
        assert np.allclose(spec.x[:, 3], [0.0, 4.0])

    def test_aux_z_population_totals(self):
        delta = np.array([0, 1])
        spec = build_controls(
            "with_aux_z",
            delta=delta,
            y=[1.0, 2.0],
            z=[[3.0], [4.0]],
            N=5,
            N_b=2,
            T_b=9.0,
            z_totals=[40.0],
            z_population_known=True,
        )
        assert spec.names[-1] == "z1"
        assert np.allclose(spec.x[:, 3], [3.0, 4.0])

    def test_missing_pieces_rejected(self):
        with pytest.raises(ValueError):
            build_controls("standard", delta=[0, 1], y=[1.0, 2.0], N=5, N_b=2)
        with pytest.raises(ValueError):
            build_controls("nonsense", delta=[0, 1], N=5)

    @pytest.mark.parametrize("variant, column", [
        ("standard", "y"), ("duplication", "y"), ("proxy_ystar", "y_star"), ("with_aux_z", "z"),
    ])
    def test_missing_value_column_named_with_its_control_set(self, variant, column):
        """Each control set reads its own column; given every other one,
        the error names the set and the column it lacks."""
        given = {"y": [1.0, 2.0], "y_star": [1.5, 2.5], "z": [[1], [2]]}
        del given[column]
        with pytest.raises(ValueError, match=f"^{variant} controls need a {column} column$"):
            build_controls(variant, delta=[0, 1], N=5, N_b=2, T_b=2.0, z_totals=[2.0], **given)


class TestRegressionDataIntegration:
    @pytest.mark.parametrize("seed", range(10))
    def test_equals_post_stratified_with_standard_controls(self, seed):
        """Calibrating on (1-delta, delta, delta*y) and summing w*y is
        algebraically the post-stratified estimator."""
        rng = np.random.default_rng(seed)
        n, N = 12, 120
        y = rng.normal(3.0, 1.0, n)
        delta = (rng.random(n) < 0.5).astype(int)
        if delta.sum() in (0, n):
            delta[0] = 1 - delta[0]
        sample = make_sample(np.full(n, N / n), y=y, delta=delta, N=N)
        N_b, T_b = 55, 160.0
        spec = build_controls("standard", delta=delta, y=y, N=N, N_b=N_b, T_b=T_b)
        regdi = regdi_total(sample, y, spec)
        big = BigDataTotals(T_b=T_b, N_b=N_b, N=N)
        pdi = pdi_total(sample, delta, y, big)
        assert regdi.total == pytest.approx(pdi.total, rel=1e-11)
        # the sample has no joint inclusion probabilities
        assert regdi.variance is None and pdi.variance is None

    def test_report_carries_controls_tag(self):
        y = [1.0, 3.0, 2.0, 4.0]
        delta = [0, 0, 1, 1]
        sample = make_sample([2.0] * 4, y=y, delta=delta)
        spec = build_controls("standard", delta=delta, y=y, N=8, N_b=4, T_b=12.0)
        report = regdi_total(sample, sample.y, spec)
        assert report.estimator == "regdi"
        assert report.controls == "standard"

    @pytest.mark.parametrize("seed", range(6))
    def test_intercept_form_equals_partitioned_form(self, seed):
        """(1, delta, delta*y) against (N, N_b, T_b) and
        (1-delta, delta, delta*y) against (N-N_b, N_b, T_b) describe the
        same constraint set, so the weights must agree exactly."""
        rng = np.random.default_rng(seed)
        n, N = 10, 100
        y = rng.normal(3.0, 1.0, n)
        delta = np.array([0, 1] * 5)
        sample = make_sample(np.full(n, N / n), y=y, delta=delta, N=N)
        N_b, T_b = 40, 120.0
        spec_intercept = build_controls(
            "duplication", delta=delta, y=y, N=N, N_b=N_b, T_b=T_b
        )
        spec_partitioned = build_controls(
            "standard", delta=delta, y=y, N=N, N_b=N_b, T_b=T_b
        )
        w_int = solve_weights(
            sample, spec_intercept.x, spec_intercept.totals
        ).w
        w_part = solve_weights(
            sample, spec_partitioned.x, spec_partitioned.totals
        ).w
        assert np.allclose(w_int, w_part, rtol=1e-9)
