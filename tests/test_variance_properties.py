"""Property test for the variance identity: under simple random sampling
the Horvitz-Thompson double sum over ``joint_pi.pairwise`` equals the
closed form ``N^2 (1 - n/N) s_r^2 / n``."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bigsurv import ProbabilitySample, SRSJointInclusion, ht_variance_quadratic
from bigsurv.variance import _double_sum


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 80),
    extra=st.integers(1, 5000),
    log_scale=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
# two residuals far from zero but close together, where the plain
# quadratic form missed the bound by cancellation
@example(n=2, extra=8, log_scale=2.0, seed=81834)
@example(n=2, extra=84, log_scale=0.0, seed=92)
def test_double_sum_equals_srs_closed_form(n, extra, log_scale, seed):
    N = n + extra
    rng = np.random.default_rng(seed)
    sample = ProbabilitySample(
        unit_ids=np.sort(rng.choice(np.arange(1, N + 1), size=n, replace=False)),
        d=np.full(n, N / n),
        pi=np.full(n, n / N),
        joint_pi=SRSJointInclusion(n, N),
        N=N,
        design="srs",
    )
    r = rng.normal(size=n) * 10.0**log_scale
    closed = ht_variance_quadratic(sample, r)
    assert _double_sum(sample, r) == pytest.approx(closed, rel=1e-9)
