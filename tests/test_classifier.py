"""Tests for the naive-Bayes membership mixture fitted by EM."""

import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigsurv import (
    AscentViolationError,
    BigSample,
    ClassifierModel,
    DegenerateFitError,
    FinitePopulation,
    PosteriorSet,
    ProbabilitySample,
    SRSJointInclusion,
    classify,
    em_fit,
    estimate_m,
    fit_membership,
    initial_u,
    pdi2_total,
    posterior,
)
from bigsurv.classifier import (
    ASCENT_SLACK,
    _EmMap,
    _cell_totals,
    _cells,
    _em_row,
    _em_stack,
    _frequencies,
    _level_index,
    _rank,
    _squarem_points,
)


def make_sample(z, d=None, y=None, N=None):
    z = np.asarray(z)
    n = z.shape[0]
    d = np.full(n, 4.0) if d is None else np.asarray(d, float)
    if N is None:
        N = int(round(d.sum()))
    return ProbabilitySample(
        unit_ids=np.arange(1, n + 1),
        d=d,
        pi=1.0 / d,
        joint_pi=None,
        N=N,
        z=z,
        y=None if y is None else np.asarray(y, float),
    )


@st.composite
def em_problems(draw, max_level=5, max_traits=3):
    """A design sample on one to ``max_traits`` categorical traits, with
    inside tables ``m``, a starting ``u`` and a prior ``pi`` drawn on their
    own rather than fitted, so EM starts anywhere in the parameter space."""
    levels = draw(
        st.lists(st.integers(2, max_level), min_size=1, max_size=max_traits)
    )
    n = draw(st.integers(2, 60))
    z = np.column_stack(
        [draw(st.lists(st.integers(1, D), min_size=n, max_size=n)) for D in levels]
    )
    d = np.array(draw(st.lists(st.floats(1.0, 50.0), min_size=n, max_size=n)))

    def tables():
        out = []
        for D in levels:
            t = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=D, max_size=D)))
            out.append(t / t.sum())
        return tuple(out)

    pi = draw(st.floats(0.05, 0.95))
    return make_sample(z, d=d), ClassifierModel(pi=pi, m=tables(), u=tables())


def reference_em(z, d, pi, m, u0, iters=500, tol=1e-10):
    """Plain per-unit EM loop used as an independent oracle."""
    z = np.asarray(z)
    d = np.asarray(d, float)
    u = [t.astype(float).copy() for t in u0]
    n, K = z.shape
    for _ in range(iters):
        p = np.empty(n)
        for i in range(n):
            a, b = pi, 1.0 - pi
            for k in range(K):
                a *= m[k][z[i, k] - 1]
                b *= u[k][z[i, k] - 1]
            p[i] = a / (a + b)
        new_u, biggest = [], 0.0
        denom = float(np.dot(d, 1.0 - p))
        for k in range(K):
            table = np.zeros_like(u[k])
            for i in range(n):
                table[z[i, k] - 1] += d[i] * (1.0 - p[i])
            table /= denom
            biggest = max(biggest, float(np.max(np.abs(table - u[k]))))
            new_u.append(table)
        u = new_u
        if biggest <= tol:
            break
    return u


def row_sort_em(sample, model, tol=1e-8, max_iter=1000):
    """EM on cells from a row sort, ``np.unique(z, axis=0)``, with one
    table per column: the loop ``em_fit`` ran before its cells came from
    an integer code and its tables from one flat vector.  Returns the
    tables, the posteriors, the log-likelihood trace and ``converged``."""

    def products(tables, rows):
        out = tables[0][rows[:, 0] - 1].copy()
        for k in range(1, rows.shape[1]):
            out *= tables[k][rows[:, k] - 1]
        return out

    z = np.asarray(sample.z, np.int64)
    rows, inverse = np.unique(z, axis=0, return_inverse=True)
    w = np.bincount(inverse, weights=sample.d)
    m_prod = products(model.m, rows)
    u = [t.copy() for t in model.u]
    trace, converged = [], False
    for iteration in range(max_iter + 1):
        a = model.pi * m_prod
        cell_lik = a + (1.0 - model.pi) * products(u, rows)
        p_cells = a / cell_lik
        trace.append(float(np.dot(w, np.log(cell_lik))))
        if converged or iteration == max_iter:
            break
        out_mass = w * (1.0 - p_cells)
        denom = out_mass.sum()
        biggest = 0.0
        new_u = []
        for k, D in enumerate(model.levels):
            table = np.bincount(rows[:, k] - 1, weights=out_mass, minlength=D) / denom
            biggest = max(biggest, float(np.max(np.abs(table - u[k]))))
            new_u.append(table)
        u = new_u
        converged = biggest <= tol
    return u, p_cells[inverse], trace, converged


def stacked_map(sample, model):
    """The stacked EM map with ``sample``'s row alone in its one slot:
    ``(step, inverse, offsets)``, where ``step(u) -> (F(u), p_cells,
    loglik)`` raises the slot's fault, ``inverse`` maps each unit to its
    cell and column k's table sits at ``offsets[k]:offsets[k+1]``."""
    row = _em_row(sample, model)
    emap = _EmMap(model.levels, 1, row.w.size)
    emap.put(0, row)

    def step(u):
        fx, p, ll, faults, _ = emap.step([u])
        if faults[0] is not None:
            raise faults[0]
        return fx[0], p[0].copy(), ll[0]

    return step, row.inverse, emap.offsets


def assert_map_steps_match_row_sort(sample, model, steps):
    """Iterate the stacked EM map ``steps`` times from ``model.u`` and check
    each step against one iteration of ``row_sort_em`` from the same
    tables, to the last bit: the log-likelihood and posteriors at ``u``
    and the next tables ``F(u)``."""
    step, inverse, offsets = stacked_map(sample, model)
    u = np.concatenate(model.u)
    want = row_sort_em(sample, model, tol=0.0, max_iter=0)
    for _ in range(steps + 1):
        new_u, p_cells, ll = step(u)
        _, p_hat, trace, _ = want
        assert np.float64(ll).tobytes() == np.float64(trace[-1]).tobytes()
        assert p_cells[inverse].tobytes() == p_hat.tobytes()
        start = replace(model, u=tuple(np.split(u, offsets[1:-1])))
        want = row_sort_em(sample, start, tol=0.0, max_iter=1)
        assert np.concatenate(want[0]).tobytes() == new_u.tobytes()
        u = new_u


class TestModelValidation:
    def test_tables_must_normalise(self):
        with pytest.raises(ValueError):
            ClassifierModel(pi=0.5, m=(np.array([0.7, 0.7]),), u=(np.array([0.5, 0.5]),))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", ["m", "u"])
    def test_non_finite_entries_rejected(self, side, bad):
        """A NaN entry passes every range and sum test, so it is named as
        non-finite rather than building a model whose posterior is NaN."""
        tables = {"m": (np.array([0.5, 0.5]),), "u": (np.array([0.5, 0.5]),)}
        tables[side] = (np.array([bad, 1.0]),)
        with pytest.raises(ValueError, match=rf"^{side}\[0\] entries must be finite$"):
            ClassifierModel(pi=0.5, **tables)

    @pytest.mark.parametrize(
        "m, u, message",
        [
            ((np.array([0.5, 0.5]), np.array([1.0])), (np.array([0.5, 0.5]), np.array([0.6])),
             r"^u\[1\] must sum to one$"),
            ((np.array([0.5, 0.5]), np.array([1.2, -0.2])),
             (np.array([0.5, 0.5]), np.array([0.5, 0.5])),
             r"^m\[1\] entries must lie in \[0, 1\]$"),
            ((np.array([0.5, 0.5]),), (np.array([0.5, 0.5]), np.array([1.0])),
             "^m and u must have matching shapes$"),
            ((np.array([0.5, 0.5]),), (np.array([1 / 3] * 3),),
             "^m and u must have matching shapes$"),
            ((np.array([]),), (np.array([1.0]),), r"^m\[0\] must be a non-empty vector$"),
            ((np.array([1.0]),), (np.ones((1, 1)),), r"^u\[0\] must be a non-empty vector$"),
        ],
    )
    def test_each_table_fault_names_the_table(self, m, u, message):
        """All tables are checked in one pass, and the first table at
        fault is named."""
        with pytest.raises(ValueError, match=message):
            ClassifierModel(pi=0.5, m=m, u=u)

    def test_pi_must_be_probability(self):
        with pytest.raises(ValueError):
            ClassifierModel(pi=1.5, m=(np.array([1.0]),), u=(np.array([1.0]),))

    def test_tables_are_frozen_copies(self):
        """The model keeps read-only copies: the caller's arrays stay
        writeable, and writing to them leaves the model alone."""
        m, u = np.array([0.5, 0.5]), np.array([0.25, 0.75])
        model = ClassifierModel(pi=0.5, m=(m,), u=(u,))
        m[0] = u[0] = 0.0
        assert model.m[0].tolist() == [0.5, 0.5] and model.u[0].tolist() == [0.25, 0.75]
        assert not model.m[0].flags.writeable and not model.u[0].flags.writeable

    def test_levels_read_from_tables(self):
        model = ClassifierModel(
            pi=0.5,
            m=(np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5])),
            u=(np.array([0.1, 0.9]), np.array([0.6, 0.2, 0.2])),
        )
        assert model.levels == (2, 3)


class TestEstimateM:
    def test_hand_computed_frequencies(self):
        """Four rows with z1 in {1,1,2,2} and z2 in {1,2,2,2}:
        m1 = (0.5, 0.5), m2 = (0.25, 0.75)."""
        big = BigSample(
            unit_ids=np.arange(1, 5),
            values=np.zeros(4),
            multiplicity=np.ones(4, int),
            N=10,
            z=np.array([[1, 1], [1, 2], [2, 2], [2, 2]]),
        )
        m1, m2 = estimate_m(big, (2, 2))
        assert np.allclose(m1, [0.5, 0.5])
        assert np.allclose(m2, [0.25, 0.75])

    def test_explicit_levels_pad_with_zero(self):
        big = BigSample(
            unit_ids=np.array([1]),
            values=np.zeros(1),
            multiplicity=np.ones(1, int),
            N=10,
            z=np.array([[1]]),
        )
        (m1,) = estimate_m(big, levels=(3,))
        assert np.allclose(m1, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("level", [5, 0])
    def test_level_outside_levels_rejected(self, level):
        """A level above the domain would widen the table and a level 0
        would index before it; both are named as out of range."""
        big = BigSample(
            unit_ids=np.array([1, 2]),
            values=np.zeros(2),
            multiplicity=np.ones(2, int),
            N=10,
            z=np.array([[1], [level]]),
        )
        with pytest.raises(ValueError, match=r"z column 1 outside 1\.\.3"):
            estimate_m(big, levels=(3,))

    def test_non_integral_level_rejected(self):
        """A big source cannot hold level 2.5: it was truncated to 2."""
        message = r"^z column 2 holds 2\.5, which is not a whole number$"
        with pytest.raises(ValueError, match=message):
            estimate_m(BigSample(
                unit_ids=np.array([1, 2]),
                values=np.zeros(2),
                multiplicity=np.ones(2, int),
                N=10,
                z=np.array([[1.0, 1.0], [2.0, 2.5]]),
            ), (2, 3))


class TestInitialU:
    def test_weighted_frequencies_with_smoothing(self):
        """Two units with weights (1, 3), z = (1, 2): raw frequencies
        (0.25, 0.75), plus 1/(2*2) each, renormalised ->
        (0.5/1.5, 1.0/1.5) = (1/3, 2/3)."""
        (u,) = initial_u([[1], [2]], [1.0, 3.0], (2,))
        assert np.allclose(u, [1 / 3, 2 / 3])

    def test_unseen_level_gets_support(self):
        (u,) = initial_u([[1], [1]], [1.0, 1.0], (2,))
        assert u[1] > 0.0
        assert u.sum() == pytest.approx(1.0)

    def test_non_integral_level_rejected(self):
        message = r"^z column 1 holds nan, which is not a whole number$"
        with pytest.raises(ValueError, match=message):
            initial_u([[1.0], [np.nan]], [1.0, 3.0], (2,))


class TestPosterior:
    def test_hand_computed_bayes_rule(self):
        """pi = 0.4, one attribute: m = (0.9, 0.1), u = (0.2, 0.8).
        For level 1: p = 0.4*0.9 / (0.4*0.9 + 0.6*0.2) = 0.75.
        For level 2: p = 0.4*0.1 / (0.4*0.1 + 0.6*0.8) = 1/13."""
        model = ClassifierModel(
            pi=0.4, m=(np.array([0.9, 0.1]),), u=(np.array([0.2, 0.8]),)
        )
        p = posterior(model, [[1], [2]])
        assert p[0] == pytest.approx(0.75)
        assert p[1] == pytest.approx(1 / 13)

    def test_factorises_over_attributes(self):
        """With two attributes the products multiply before Bayes."""
        model = ClassifierModel(
            pi=0.5,
            m=(np.array([0.8, 0.2]), np.array([0.6, 0.4])),
            u=(np.array([0.3, 0.7]), np.array([0.5, 0.5])),
        )
        p = posterior(model, [[1, 2]])
        a, b = 0.5 * 0.8 * 0.4, 0.5 * 0.3 * 0.5
        assert p[0] == pytest.approx(a / (a + b))

    def test_zero_mass_level_raises(self):
        model = ClassifierModel(
            pi=0.5, m=(np.array([1.0, 0.0]),), u=(np.array([1.0, 0.0]),)
        )
        with pytest.raises(DegenerateFitError):
            posterior(model, [[2]])

    def test_out_of_range_level_rejected(self):
        model = ClassifierModel(
            pi=0.5, m=(np.array([0.5, 0.5]),), u=(np.array([0.5, 0.5]),)
        )
        with pytest.raises(ValueError):
            posterior(model, [[3]])

    def test_non_integral_level_rejected(self):
        """Levels 1.5 and 2.9 were read as 1 and 2; whole floats still serve."""
        model = ClassifierModel(
            pi=0.4, m=(np.array([0.9, 0.1]),), u=(np.array([0.2, 0.8]),)
        )
        message = r"^z column 1 holds 1\.5, which is not a whole number$"
        with pytest.raises(ValueError, match=message):
            posterior(model, [[1.5], [2.9]])
        whole = posterior(model, [[1.0], [2.0]])
        assert whole.tobytes() == posterior(model, [[1], [2]]).tobytes()


class TestClassify:
    def test_strictly_above_half(self):
        labels = classify(np.array([0.4999, 0.5, 0.5001]))
        assert labels.tolist() == [0, 0, 1]

    def test_accepts_posterior_set(self):
        sample = make_sample([[1], [2]] * 4)
        model = ClassifierModel(
            pi=0.5, m=(np.array([0.9, 0.1]),), u=(np.array([0.5, 0.5]),)
        )
        _, post = em_fit(sample, model)
        assert np.array_equal(classify(post), post.delta_hat)


class TestEMFit:
    def test_separated_levels_classify_perfectly(self):
        """When members only ever show level 1 and the sample is half
        level-1, EM pushes u onto level 2 and the posteriors split."""
        z = np.array([[1]] * 5 + [[2]] * 5)
        sample = make_sample(z)
        model = ClassifierModel(
            pi=0.5,
            m=(np.array([1.0, 0.0]),),
            u=(np.array([0.5, 0.5]),),
        )
        fitted, post = em_fit(sample, model)
        # boundary EM converges harmonically, so the table only nears 0/1
        assert np.allclose(fitted.u[0], [0.0, 1.0], atol=1e-3)
        assert post.delta_hat.tolist() == [1] * 5 + [0] * 5

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_plain_loop_reference(self, seed):
        """The cell-compressed update must agree with a per-unit EM
        loop run from the same start."""
        rng = np.random.default_rng(seed)
        n = 60
        z = np.column_stack(
            [rng.integers(1, 4, n), rng.integers(1, 3, n)]
        )
        d = rng.uniform(1.0, 5.0, n)
        sample = make_sample(z, d=d)
        pi = 0.45
        m = (np.array([0.5, 0.3, 0.2]), np.array([0.7, 0.3]))
        u0 = initial_u(z, d, (3, 2))
        fitted, _ = em_fit(sample, ClassifierModel(pi=pi, m=m, u=u0), tol=1e-12)
        want = reference_em(z, d, pi, m, u0)
        for got_t, want_t in zip(fitted.u, want):
            assert np.allclose(got_t, want_t, atol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(problem=em_problems())
    def test_loglik_never_decreases(self, problem):
        sample, model = problem
        _, post = em_fit(sample, model)
        trace = np.array(post.loglik_trace)
        slack = ASCENT_SLACK * np.maximum(1.0, np.abs(trace[:-1]))
        assert np.all(np.diff(trace) >= -slack)

    @settings(max_examples=60, deadline=None)
    @given(problem=em_problems(max_level=8, max_traits=1))
    def test_reaches_the_plain_loop_loglik(self, problem):
        """Run to a tight ``tol``, the accelerated fit ends no lower than
        the plain loop, up to the ascent slack.  One trait keeps the
        log-likelihood concave in ``u`` (a weighted sum of logs of terms
        affine in ``u``), so both climb to the same maximum; with several
        traits the mixture can have more than one stationary point, and
        the two loops may stop at different ones."""
        sample, model = problem
        _, post = em_fit(sample, model, tol=1e-12, max_iter=20_000)
        _, _, trace, _ = row_sort_em(sample, model, tol=1e-12, max_iter=20_000)
        plain = trace[-1]
        assert post.loglik_trace[-1] >= plain - ASCENT_SLACK * max(1.0, abs(plain))

    def test_returned_posteriors_match_returned_model_bitwise(self):
        rng = np.random.default_rng(77)
        z = rng.integers(1, 4, size=(50, 2))
        sample = make_sample(z)
        m = (np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5]))
        u0 = initial_u(z, sample.d, (3, 3))
        fitted, post = em_fit(sample, ClassifierModel(pi=0.5, m=m, u=u0))
        assert np.array_equal(post.p_hat, posterior(fitted, z))

    @settings(max_examples=100, deadline=None)
    @given(problem=em_problems())
    def test_returned_posteriors_are_the_returned_models_anywhere(self, problem):
        """``pdi2_total`` takes the fit's labels for the design sample, so
        they must be the fitted model's posteriors, bit for bit, wherever
        EM starts."""
        sample, model = problem
        fitted, post = em_fit(sample, model)
        p = posterior(fitted, sample.z)
        assert np.array_equal(post.p_hat, p)
        assert np.array_equal(post.delta_hat, classify(p))

    def test_design_weighted_mean_definition(self):
        z = np.array([[1], [2], [2]])
        sample = make_sample(z, d=[1.0, 2.0, 5.0])
        model = ClassifierModel(
            pi=0.5, m=(np.array([0.8, 0.2]),), u=(np.array([0.4, 0.6]),)
        )
        _, post = em_fit(sample, model)
        want = np.dot(sample.d, post.p_hat) / sample.d.sum()
        assert post.design_weighted_mean == pytest.approx(want)

    def test_all_members_degenerates(self):
        """If the model is certain every unit is a member, there is no
        mass left to estimate the outside tables from."""
        z = np.array([[1], [1]])
        sample = make_sample(z)
        model = ClassifierModel(
            pi=0.999999, m=(np.array([1.0]),), u=(np.array([1.0]),)
        )
        fitted, post = em_fit(sample, model)
        # single-level tables stay valid; posteriors collapse to pi-side
        assert np.all(post.p_hat > 0.99)


    @pytest.mark.parametrize("max_iter", [0, 1, 3])
    def test_max_iter_bounds_the_m_steps(self, max_iter):
        """With ``tol=0`` the fit makes ``max_iter`` map evaluations after
        the one that scores its start."""
        rng = np.random.default_rng(5)
        z = rng.integers(1, 4, size=(40, 2))
        sample = make_sample(z)
        m = (np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5]))
        u0 = initial_u(z, sample.d, (3, 3))
        fitted, post = em_fit(
            sample, ClassifierModel(pi=0.5, m=m, u=u0), tol=0.0, max_iter=max_iter
        )
        assert post.iterations == max_iter
        assert np.array_equal(post.p_hat, posterior(fitted, z))
        if max_iter == 0:
            assert all(np.array_equal(a, b) for a, b in zip(fitted.u, u0))

    @settings(max_examples=100, deadline=None)
    @given(problem=em_problems(max_level=8), steps=st.integers(0, 200))
    def test_bit_identical_to_row_sort_loop(self, problem, steps):
        """Cells from the integer code and the one-vector tables give the
        same log-likelihood, posteriors and next tables to the last bit as
        the row-sort, per-column loop, step after step."""
        sample, model = problem
        assert_map_steps_match_row_sort(sample, model, steps)

    @settings(max_examples=200, deadline=None)
    @given(
        radix=st.integers(1, 50),
        codes=st.lists(st.integers(0, 49), min_size=13, max_size=40),
    )
    def test_dense_rank_equals_unique(self, radix, codes):
        """Both ways ``_rank`` ranks codes agree with ``np.unique``: at
        least 13 codes below a radix of at most 50 take the table, and a
        radix above four times their number the sort."""
        code = np.array([c % radix for c in codes])
        distinct, want = np.unique(code, return_inverse=True)
        for limit in (radix, 4 * code.size + 1):
            ranks, count = _rank(code, limit)
            assert ranks.tolist() == want.tolist()
            assert count == distinct.size

    def test_bit_identical_on_64_binary_columns(self):
        """2^64 cells overflow an int64 code; the partial code is
        re-ranked on the way, and the map still matches bit for bit."""
        rng = np.random.default_rng(64)
        n, levels = 300, (2,) * 64
        z = rng.integers(1, 3, size=(n, 64))
        z[n // 2:, :40] = z[: n - n // 2, :40]  # cells that share a long prefix
        sample = make_sample(z, d=rng.uniform(1.0, 50.0, n))

        def tables():
            t = rng.uniform(0.2, 1.0, size=(len(levels), 2))
            return tuple(t / t.sum(axis=1, keepdims=True))

        model = ClassifierModel(pi=0.4, m=tables(), u=tables())
        assert_map_steps_match_row_sort(sample, model, 50)

    @pytest.mark.parametrize("max_iter", [-1, 2.0, True, "10"])
    def test_bad_max_iter_rejected(self, max_iter):
        sample, model = self.em_problem()
        with pytest.raises(ValueError, match=r"^max_iter must be an integer >= 0"):
            em_fit(sample, model, max_iter=max_iter)

    @pytest.mark.parametrize("tol", [-1e-8, float("nan")])
    def test_bad_tol_rejected(self, tol):
        sample, model = self.em_problem()
        with pytest.raises(ValueError, match=r"^tol must be a number >= 0"):
            em_fit(sample, model, tol=tol)

    def em_problem(self):
        rng = np.random.default_rng(5)
        z = rng.integers(1, 4, size=(40, 2))
        sample = make_sample(z)
        m = (np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5]))
        return sample, ClassifierModel(pi=0.5, m=m, u=initial_u(z, sample.d, (3, 3)))

    def test_stopping_at_max_iter_is_reported(self, caplog):
        """A fit cut off by its iteration limit says so: ``converged`` is
        false and one WARNING goes to the ``bigsurv.classifier`` logger."""
        sample, model = self.em_problem()
        with caplog.at_level(logging.WARNING, logger="bigsurv.classifier"):
            _, post = em_fit(sample, model, max_iter=1)
        assert post.converged is False
        records = [r for r in caplog.records if r.name == "bigsurv.classifier"]
        assert [r.levelno for r in records] == [logging.WARNING]
        assert "max_iter = 1" in records[0].getMessage()

    def test_converged_fit_logs_nothing(self, caplog):
        sample, model = self.em_problem()
        with caplog.at_level(logging.DEBUG, logger="bigsurv.classifier"):
            _, post = em_fit(sample, model)
        assert post.converged is True
        assert not [r for r in caplog.records if r.name == "bigsurv.classifier"]


class TestSquaremFallback:
    """Cases whose first extrapolated point is unusable, so the fit takes
    the second plain step ``u2 = F(F(u0))`` in its place."""

    def plain_steps(self, sample, model):
        step, inverse, _ = stacked_map(sample, model)
        u0 = np.concatenate(model.u)
        u1, _, ll0 = step(u0)
        u2, _, _ = step(u1)
        _, p2, ll2 = step(u2)
        return u0, u1, u2, (ll0, ll2), p2[inverse]

    def assert_took_u2(self, sample, model, max_iter, plain):
        _, _, u2, trace, p_hat = plain
        fitted, post = em_fit(sample, model, max_iter=max_iter)
        assert fitted.u[0].tobytes() == u2.tobytes()
        assert post.loglik_trace == trace
        assert post.p_hat.tobytes() == p_hat.tobytes()
        assert post.iterations == max_iter
        assert post.converged is False

    def test_negative_point(self):
        """Units at levels 1 and 2, pi = 0.9, m = u = (0.6, 0.4): the
        log-likelihood 4 log(0.54 + 0.1 u_1) + 4 log(0.36 + 0.1 u_2) peaks
        off the simplex at u = (-0.4, 1.4), where the extrapolation lands.
        Budget: the start, u1 and u2."""
        sample = make_sample([[1], [2]])
        model = ClassifierModel(
            pi=0.9, m=(np.array([0.6, 0.4]),), u=(np.array([0.6, 0.4]),)
        )
        plain = self.plain_steps(sample, model)
        u0, u1, u2 = plain[:3]
        _, usable = _squarem_points(u0[None], u1[None], u2[None], np.zeros(2, np.int64))
        assert usable == [False]
        self.assert_took_u2(sample, model, 2, plain)

    def test_lower_loglik_point(self):
        """Units at levels 2 and 1, pi = 0.9, m = (0.5, 0.5): the
        log-likelihood is symmetric and concave with its peak at
        u = (0.5, 0.5).  From u = (0.25, 0.75) the extrapolation overshoots
        to about (0.80, 0.20), below the start.  Budget: the start, u1,
        the rejected point and u2."""
        sample = make_sample([[2], [1]])
        model = ClassifierModel(
            pi=0.9, m=(np.array([0.5, 0.5]),), u=(np.array([0.25, 0.75]),)
        )
        plain = self.plain_steps(sample, model)
        u0, u1, u2 = plain[:3]
        x, usable = _squarem_points(u0[None], u1[None], u2[None], np.zeros(2, np.int64))
        assert usable == [True]
        _, _, ll_x = stacked_map(sample, model)[0](x[0])
        assert ll_x < plain[3][0]
        self.assert_took_u2(sample, model, 3, plain)

    def test_rejected_point_on_the_last_evaluation_keeps_u1(self):
        """The sample and model of :meth:`test_lower_loglik_point` with a
        budget of the start, u1 and the rejected point: no evaluation is
        left for u2, so the fit keeps u1, its posteriors computed afresh
        since the map has since evaluated the rejected point."""
        sample = make_sample([[2], [1]])
        model = ClassifierModel(
            pi=0.9, m=(np.array([0.5, 0.5]),), u=(np.array([0.25, 0.75]),)
        )
        step, _, _ = stacked_map(sample, model)
        u0 = np.concatenate(model.u)
        u1, _, ll0 = step(u0)
        _, _, ll1 = step(u1)
        fitted, post = em_fit(sample, model, max_iter=2)
        assert fitted.u[0].tobytes() == u1.tobytes()
        assert post.p_hat.tobytes() == posterior(fitted, sample.z).tobytes()
        assert post.loglik_trace == (ll0, ll1)
        assert post.iterations == 2
        assert post.converged is False


@st.composite
def em_stacks(draw):
    """Two to six EM problems on shared levels, each with its own sample,
    and so its own cells, its own tables and its own prior.  Sometimes one
    row is degenerate: its first unit's first-column level has frequency
    zero in both ``m`` and ``u``, so its posterior is undefined."""
    levels = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))

    def tables():
        out = []
        for D in levels:
            t = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=D, max_size=D)))
            out.append(t / t.sum())
        return out

    rows = []
    for _ in range(draw(st.integers(2, 6))):
        n = draw(st.integers(2, 40))
        z = np.column_stack(
            [draw(st.lists(st.integers(1, D), min_size=n, max_size=n)) for D in levels]
        )
        d = np.array(draw(st.lists(st.floats(1.0, 50.0), min_size=n, max_size=n)))
        model = ClassifierModel(pi=draw(st.floats(0.05, 0.95)), m=tables(), u=tables())
        rows.append((make_sample(z, d=d), model))
    if draw(st.booleans()):
        j = draw(st.integers(0, len(rows) - 1))
        sample, model = rows[j]
        level = int(sample.z[0, 0]) - 1

        def without_level(tables):
            t = tables[0].copy()
            t[level] = 0.0
            return (t / t.sum(), *tables[1:])

        rows[j] = (sample, replace(model, m=without_level(model.m), u=without_level(model.u)))
    return rows


class TestStackedFit:
    """The stacked fit that study two runs: every row's fit is the fit
    ``em_fit`` makes of it alone, whatever else shares the stack."""

    @settings(max_examples=80, deadline=None)
    @given(
        rows=em_stacks(),
        width=st.integers(1, 6),
        max_iter=st.sampled_from([0, 1, 3, 12, 1000]),
    )
    def test_every_row_is_its_one_row_fit(self, rows, width, max_iter):
        """Rows with their own cells, a degenerate row beside healthy
        ones, rows stopped at ``max_iter`` and rows that wait for a free
        slot all give ``em_fit``'s tables, posteriors, log-likelihood
        trace, evaluation count and convergence flag to the last bit, or
        its error."""
        waiting = [_em_row(sample, model, key=j) for j, (sample, model) in enumerate(rows)]
        waiting.reverse()
        cells = max(row.w.size for row in waiting)
        stacked = dict(_em_stack(
            lambda: waiting.pop() if waiting else None, width, cells, max_iter=max_iter
        ))
        assert sorted(stacked) == list(range(len(rows)))
        for j, (sample, model) in enumerate(rows):
            got = stacked[j]
            try:
                fitted, post = em_fit(sample, model, max_iter=max_iter)
            except (DegenerateFitError, AscentViolationError) as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                continue
            got_fitted, got_post = got
            assert np.concatenate(got_fitted.u).tobytes() == np.concatenate(fitted.u).tobytes()
            assert got_post.p_hat.tobytes() == post.p_hat.tobytes()
            assert (
                np.array(got_post.loglik_trace).tobytes()
                == np.array(post.loglik_trace).tobytes()
            )
            assert got_post.iterations == post.iterations
            assert got_post.converged is post.converged

    def test_rows_need_the_stacks_levels(self):
        sample = make_sample([[1, 1], [2, 1]])
        model = ClassifierModel(
            pi=0.5, m=(np.array([0.5, 0.5]),) * 2, u=(np.array([0.5, 0.5]),) * 2
        )
        wide = ClassifierModel(
            pi=0.5, m=(np.array([0.5, 0.5]), np.full(3, 1 / 3)),
            u=(np.array([0.5, 0.5]), np.full(3, 1 / 3)),
        )
        waiting = [_em_row(sample, wide), _em_row(sample, model)]
        cells = max(row.w.size for row in waiting)
        with pytest.raises(ValueError, match=r"levels \(2, 3\) in a stack of \(2, 2\)"):
            list(_em_stack(lambda: waiting.pop() if waiting else None, 2, cells))

    def test_rows_wider_than_the_bound_are_refused(self):
        sample = make_sample([[1, 1], [2, 1], [2, 2]])
        model = ClassifierModel(
            pi=0.5, m=(np.array([0.5, 0.5]),) * 2, u=(np.array([0.5, 0.5]),) * 2
        )
        waiting = [_em_row(sample, model)]
        with pytest.raises(ValueError, match=r"^a row with 3 cells in a stack of 2$"):
            list(_em_stack(lambda: waiting.pop() if waiting else None, 1, 2))

    def test_rows_that_leave_out_of_order_keep_their_one_row_fits(self):
        """Three rows in a stack of five, each keeping its slot: the first
        is degenerate and leaves at the first step, the third converges
        before the second, and the free slot 0 is stepped at its last
        point until the second leaves.  Every row is still ``em_fit``'s to
        the last bit."""
        rows = []
        for seed, n, pi in [(1, 30, 0.3), (2, 12, 0.6), (3, 25, 0.4)]:
            rng = np.random.default_rng(seed)
            z = np.column_stack([rng.integers(1, 4, n), rng.integers(1, 3, n)])
            sample = make_sample(z, d=rng.uniform(1, 5, n))
            m = [np.array([0.5, 0.3, 0.2]), np.array([0.6, 0.4])]
            u = [np.array([0.2, 0.3, 0.5]), np.array([0.3, 0.7])]
            if seed == 1:  # the first unit's first level, in neither source
                for t in (m, u):
                    t[0] = np.where(np.arange(3) == sample.z[0, 0] - 1, 0.0, t[0])
                    t[0] /= t[0].sum()
            rows.append((sample, ClassifierModel(pi=pi, m=m, u=u)))
        waiting = [_em_row(sample, model, key=j) for j, (sample, model) in enumerate(rows)]
        cells = max(row.w.size for row in waiting)
        waiting.reverse()
        left = list(_em_stack(lambda: waiting.pop() if waiting else None, 5, cells))
        assert [key for key, _ in left] == [0, 2, 1]
        with pytest.raises(DegenerateFitError) as excinfo:
            em_fit(*rows[0])
        assert type(left[0][1]) is DegenerateFitError
        assert str(left[0][1]) == str(excinfo.value)
        for j, (got_fitted, got_post) in left[1:]:
            fitted, post = em_fit(*rows[j])
            assert np.concatenate(got_fitted.u).tobytes() == np.concatenate(fitted.u).tobytes()
            assert got_post.p_hat.tobytes() == post.p_hat.tobytes()
            assert (
                np.array(got_post.loglik_trace).tobytes()
                == np.array(post.loglik_trace).tobytes()
            )
            assert (got_post.iterations, got_post.converged) == (post.iterations, post.converged)


class TestFitMembership:
    def sources(self, seed=3):
        rng = np.random.default_rng(seed)
        sample = make_sample(rng.integers(1, 4, size=(30, 2)), d=rng.uniform(1, 3, 30))
        big = BigSample(
            unit_ids=np.arange(1, 21),
            values=np.ones(20),
            multiplicity=np.ones(20, int),
            N=100,
            z=np.column_stack([rng.integers(1, 5, 20), rng.integers(1, 3, 20)]),
        )
        return sample, big

    @pytest.mark.parametrize("levels", [None, (4, 3), (6, 5)])
    def test_equals_the_fit_built_by_hand(self, levels):
        """``levels`` default to the per-column maxima over both sources."""
        sample, big = self.sources()
        fitted, post = fit_membership(sample, big, 0.3, levels)
        start = (4, 3) if levels is None else levels
        want, want_post = em_fit(
            sample,
            ClassifierModel(
                pi=0.3, m=estimate_m(big, start), u=initial_u(sample.z, sample.d, start)
            ),
        )
        assert fitted.levels == start
        assert all(np.array_equal(a, b) for a, b in zip(fitted.u, want.u))
        assert np.array_equal(post.p_hat, want_post.p_hat)
        assert post.loglik_trace == want_post.loglik_trace

    def test_missing_z_names_the_side(self):
        sample, big = self.sources()
        with pytest.raises(ValueError, match="^the probability sample has no z"):
            fit_membership(replace(sample, z=None), big, 0.3)
        with pytest.raises(ValueError, match="^the big source has no z"):
            fit_membership(sample, replace(big, z=None), 0.3)

    def test_width_mismatch_names_both_sides(self):
        sample, big = self.sources()
        narrow = make_sample(sample.z[:, :1], d=sample.d)
        with pytest.raises(
            ValueError, match="big source has 2 z columns, the probability sample 1"
        ):
            fit_membership(narrow, big, 0.3)


def labelled(model, sample):
    """The posteriors that ``em_fit`` returns with ``model`` as its fit."""
    p = posterior(model, sample.z)
    return PosteriorSet(p_hat=p, delta_hat=classify(p))


class TestPDI2:
    @staticmethod
    def model():
        return ClassifierModel(
            pi=0.4, m=(np.array([0.9, 0.1]),), u=(np.array([0.2, 0.8]),)
        )

    @staticmethod
    def big_totals(big, model):
        """The corrected big-data totals ``(T_b2, N_b2)``, read back from
        two estimates whose two sampled units are labelled outside: with
        outside mean 0 the estimate is ``T_b2``, with mean 1 it is
        ``T_b2 + N - N_b2``."""
        outside = PosteriorSet(p_hat=np.zeros(2), delta_hat=np.zeros(2, np.int64))
        zero, one = (
            pdi2_total(make_sample([[1], [1]], y=[v, v], N=big.N), big, model, outside).total
            for v in (0.0, 1.0)
        )
        return zero, big.N - (one - zero)

    def test_corrected_big_totals_hand_computed(self):
        """Members at level 1 have posterior 0.75 (see the Bayes-rule
        oracle above); two such big rows with values (2, 4) give
        N_b2 = 2/0.75 = 8/3 and T_b2 = (2+4)/0.75 = 8.
        A level-2 row has posterior 1/13 < 0.5 and is dropped."""
        big = BigSample(
            unit_ids=np.array([1, 2, 3]),
            values=np.array([2.0, 4.0, 9.0]),
            multiplicity=np.ones(3, int),
            N=10,
            z=np.array([[1], [1], [2]]),
        )
        T_b2, N_b2 = self.big_totals(big, self.model())
        assert T_b2 == pytest.approx(8.0)
        assert N_b2 == pytest.approx(8 / 3)

    def test_multiplicity_scales_contributions(self):
        """One level-1 row counted three times: N_b2 = 3/0.75 = 4 and
        T_b2 = 3 * 2/0.75 = 8."""
        big = BigSample(
            unit_ids=np.array([1]),
            values=np.array([2.0]),
            multiplicity=np.array([3]),
            N=10,
            z=np.array([[1]]),
        )
        T_b2, N_b2 = self.big_totals(big, self.model())
        assert N_b2 == pytest.approx(3 / 0.75)
        assert T_b2 == pytest.approx(8.0)

    def test_posteriors_of_another_length_rejected(self):
        big = BigSample(
            unit_ids=np.array([1]),
            values=np.array([2.0]),
            multiplicity=np.ones(1, int),
            N=10,
            z=np.array([[1]]),
        )
        sample = make_sample([[2], [1]], d=[5.0, 5.0], y=[1.0, 5.0])
        three = PosteriorSet(p_hat=np.zeros(3), delta_hat=np.zeros(3, np.int64))
        with pytest.raises(
            ValueError, match="^posteriors holds 3 labels, the sample 2 units$"
        ):
            pdi2_total(sample, big, self.model(), three)

    def test_hand_computed(self):
        """Universe N = 10.  Big side: two level-1 rows valued (2, 4)
        give the corrected totals (8/3, 8) as above.  Design sample:
        level-2 units are labelled outside; two of them with d = 2.5
        and y = (1, 3) give an outside mean of 2.  Estimate:
        8 + (10 - 8/3) * 2 = 8 + 44/3 = 68/3.  As an SRS of 4 from 10 the
        residuals are (-1, 1, 0, 0), so s^2 = 2/3 and the plug-in variance
        is 100 * (1 - 0.4) * (2/3) / 4 = 10."""
        model = self.model()
        big = BigSample(
            unit_ids=np.array([1, 2]),
            values=np.array([2.0, 4.0]),
            multiplicity=np.ones(2, int),
            N=10,
            z=np.array([[1], [1]]),
        )
        sample = replace(
            make_sample(
                [[2], [2], [1], [1]],
                d=[2.5, 2.5, 2.5, 2.5],
                y=[1.0, 3.0, 5.0, 7.0],
            ),
            joint_pi=SRSJointInclusion(4, 10),
            design="srs",
        )
        report = pdi2_total(sample, big, model, labelled(model, sample))
        assert report.total == pytest.approx(8.0 + (10 - 8 / 3) * 2.0)
        assert report.estimator == "pdi2"
        assert report.variance == pytest.approx(10.0)
        assert report.notes[-1] == (
            "variance treats the classified labels as known, so it is far too "
            "small: its relative bias is about -0.7 in study two"
        )
        bare = replace(sample, joint_pi=None, design="generic")
        assert pdi2_total(bare, big, model, labelled(model, bare)).variance is None

    def test_corrected_size_above_universe_rejected(self):
        """The corrected big-data size 8/3 (see above) exceeds a universe
        of N = 2, which would leave a negative uncovered count."""
        model = self.model()
        big = BigSample(
            unit_ids=np.array([1, 2]),
            values=np.array([2.0, 4.0]),
            multiplicity=np.ones(2, int),
            N=2,
            z=np.array([[1], [1]]),
        )
        sample = make_sample([[2], [1]], d=[1.0, 1.0], y=[1.0, 5.0])
        with pytest.raises(ValueError, match="N_b cannot exceed"):
            pdi2_total(sample, big, model, labelled(model, sample))

    def test_no_outside_units_raises(self):
        model = self.model()
        big = BigSample(
            unit_ids=np.array([1]),
            values=np.array([2.0]),
            multiplicity=np.ones(1, int),
            N=10,
            z=np.array([[1]]),
        )
        sample = make_sample([[1], [1]], d=[5.0, 5.0], y=[1.0, 2.0])
        from bigsurv import DegenerateStratumError

        with pytest.raises(DegenerateStratumError):
            pdi2_total(sample, big, model, labelled(model, sample))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_cell_totals_equal_the_row_totals(self, data):
        """The inverse-propensity totals summed per z cell equal the sums
        over the big rows, ``multiplicity * (1, y) / p`` over the rows
        labelled members, to 1e-12.  Wide domains (up to 60^3 cells for at
        most 40 rows) take the sorted cells, narrow ones the table of
        every cell."""
        draw = data.draw
        levels = draw(st.lists(st.integers(1, 60), min_size=1, max_size=3))
        n = draw(st.integers(1, 40))
        z = np.column_stack(
            [draw(st.lists(st.integers(1, D), min_size=n, max_size=n)) for D in levels]
        )
        big = BigSample(
            unit_ids=np.arange(1, n + 1),
            values=np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))),
            multiplicity=np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))),
            N=10 * n * 3 + 10,
            z=z,
        )

        def tables():
            out = []
            for D in levels:
                t = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=D, max_size=D)))
                out.append(t / t.sum())
            return tuple(out)

        model = ClassifierModel(pi=draw(st.floats(0.05, 0.95)), m=tables(), u=tables())
        sample = make_sample(np.ones((2, len(levels)), np.int64), d=[5.0, 5.0],
                            y=[1.0, 2.0], N=big.N)
        outside = PosteriorSet(p_hat=np.zeros(2), delta_hat=np.zeros(2, np.int64))
        # with both units outside at mean 0 the estimate is T_b, at mean 1
        # it is T_b + N - N_b
        zero, one = (
            pdi2_total(replace(sample, y=np.full(2, v)), big, model, outside).total
            for v in (0.0, 1.0)
        )
        p = posterior(model, big.z)
        keep = p > 0.5
        inv = big.multiplicity[keep] / p[keep]
        assert zero == pytest.approx(float(np.dot(inv, big.values[keep])), rel=1e-12, abs=1e-12)
        assert big.N - (one - zero) == pytest.approx(float(inv.sum()), rel=1e-12, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_population_cells_with_membership_equal_the_big_source(self, data):
        """Summed over a population's cells with the membership as the
        multiplicity, the cell totals, and the inside tables taken from
        them, are bit for bit those of the big source the membership
        selects, as study two takes them."""
        draw = data.draw
        levels = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
        N = draw(st.integers(2, 60))
        z = np.column_stack(
            [draw(st.lists(st.integers(1, D), min_size=N, max_size=N)) for D in levels]
        )
        y = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=N, max_size=N)))
        delta = np.array(draw(st.lists(st.integers(0, 1), min_size=N, max_size=N)))
        if not delta.any():
            delta[0] = 1
        big = FinitePopulation(y=y, z=z, delta=delta).big_sample()
        cells, inverse = _cells(_level_index(z, levels), levels)
        got = _cell_totals(cells, inverse, delta, y, N)
        want = _cell_totals(*_cells(_level_index(big.z, levels), levels),
                            big.multiplicity, big.values, N)
        for name in ("count", "total"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        for a, b in zip(got.cells, want.cells):
            assert a.tobytes() == b.tobytes()
        m = _frequencies(got.cells, levels, got.count)
        for a, b in zip(m, estimate_m(big, levels)):
            assert a.tobytes() == b.tobytes()
