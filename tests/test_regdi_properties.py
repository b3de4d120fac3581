"""Property tests for the regression path (north-star identity 1).

Calibration on the standard controls ``(1 - delta, delta, delta * y)``
is the post-stratified estimator: ``regdi_total`` must reproduce
``pdi_total``, total and variance, the variance must be the
post-stratified SRS variance, and ``pdi_total``'s must be the one the
command line prints for ``--method pdi``.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bigsurv import (
    BigDataTotals,
    BigSample,
    ProbabilitySample,
    SRSJointInclusion,
    build_controls,
    pdi_total,
    regdi_total,
    write_big_data_csv,
    write_sample_csv,
)
from bigsurv.cli import main

values = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


@st.composite
def srs_cases(draw):
    """An SRS with membership flags (both strata present), and a big
    source of ``N_b < N`` rows."""
    n = draw(st.integers(4, 15))
    N = n * draw(st.integers(2, 10))
    delta = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    assume(0 < delta.sum() < n - 1)
    y = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    # distinct matched outcomes keep (delta, delta * y) from being collinear
    assume(np.ptp(y[delta == 1]) > 0.01)
    sample = ProbabilitySample(
        unit_ids=np.arange(1, n + 1),
        d=np.full(n, N / n),
        pi=np.full(n, n / N),
        joint_pi=SRSJointInclusion(n, N),
        N=N,
        design="srs",
        y=y,
        delta=delta,
    )
    n_b = draw(st.integers(1, min(N - 1, 40)))
    big = BigSample(
        unit_ids=np.arange(1, n_b + 1),
        values=np.array(draw(st.lists(values, min_size=n_b, max_size=n_b))),
        multiplicity=np.ones(n_b, np.int64),
        N=N,
    )
    return sample, big


def printed(out: str, label: str) -> float:
    match = re.search(rf"^{label}:\s+(\S+)", out, re.MULTILINE)
    assert match, f"no {label!r} line in output:\n{out}"
    return float(match.group(1))


@settings(max_examples=40, deadline=None)
@given(case=srs_cases())
def test_standard_controls_reproduce_post_stratified_total(case):
    sample, big = case
    totals = BigDataTotals(T_b=big.total, N_b=big.N_b, N=sample.N)
    spec = build_controls(
        "standard", delta=sample.delta, y=sample.y,
        N=totals.N, N_b=totals.N_b, T_b=totals.T_b,
    )
    reg = regdi_total(sample, sample.y, spec)
    pdi = pdi_total(sample, sample.delta, sample.y, totals)
    scale = abs(totals.T_b) + sample.N * float(np.max(np.abs(sample.y)))
    assert reg.total == pytest.approx(pdi.total, rel=1e-9, abs=1e-12 * scale)
    # the residuals vanish in the big stratum and are deviations from
    # the uncovered mean outside it, so the SRS closed form applies
    uncovered = sample.delta == 0
    e = np.where(uncovered, sample.y - sample.y[uncovered].mean(), 0.0)
    n, N = sample.n, sample.N
    expected = N * N * (1 - n / N) * float(np.var(e, ddof=1)) / n
    assert reg.variance == pytest.approx(expected, rel=1e-9, abs=1e-12 * scale**2)
    assert pdi.variance == pytest.approx(reg.variance, rel=1e-9, abs=1e-12 * scale**2)

    with tempfile.TemporaryDirectory() as tmp:
        sample_path, big_path = Path(tmp, "sample.csv"), Path(tmp, "big.csv")
        write_sample_csv(sample_path, sample)
        write_big_data_csv(big_path, big)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([
                "estimate", "--sample-a", str(sample_path), "--big-data",
                str(big_path), "--method", "pdi", "--pop-n", str(sample.N),
            ])
    assert code == 0
    assert printed(out.getvalue(), "total") == pdi.total
    assert printed(out.getvalue(), "variance") == pdi.variance


@st.composite
def count_cases(draw):
    """An SRS whose membership column holds counts 0..3, with
    ``(1, delta, delta * y)`` well conditioned, and big-source totals."""
    n = draw(st.integers(5, 15))
    N = n * draw(st.integers(2, 10))
    delta = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    assume(np.linalg.cond(np.column_stack([np.ones(n), delta, delta * y])) < 1e4)
    sample = ProbabilitySample(
        unit_ids=np.arange(1, n + 1),
        d=np.full(n, N / n),
        pi=np.full(n, n / N),
        joint_pi=SRSJointInclusion(n, N),
        N=N,
        design="srs",
        y=y,
        delta=delta,
    )
    N_b = draw(st.integers(1, 3 * N))
    return sample, N_b, draw(st.floats(-5.0 * N_b, 5.0 * N_b))


@settings(max_examples=60, deadline=None)
@given(case=count_cases())
def test_duplication_and_standard_controls_agree_for_counts(case):
    """``(1, delta, delta y)`` is an invertible linear map of
    ``(1 - delta, delta, delta y)``, and ``(N, N_b, T_b)`` the same map of
    ``(N - N_b, N_b, T_b)``, whatever the membership counts: the two
    control sets are one constraint set, so the calibrated weights, the
    regression residuals and ``regdi_total``'s total and variance agree."""
    sample, N_b, T_b = case
    dup, std = (
        regdi_total(sample, sample.y, build_controls(
            variant, delta=sample.delta, y=sample.y, N=sample.N, N_b=N_b, T_b=T_b,
        ))
        for variant in ("duplication", "standard")
    )
    scale = abs(T_b) + sample.N * float(np.max(np.abs(sample.y)))
    assert dup.total == pytest.approx(std.total, rel=1e-9, abs=1e-12 * scale)
    assert dup.variance == pytest.approx(std.variance, rel=1e-9, abs=1e-12 * scale**2)
