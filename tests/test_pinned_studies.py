"""Small study summaries pinned to the digits the package printed before
its study-two replicate was rebuilt for speed.

A change that only makes the studies faster must leave these numbers
where they are.  Floats are compared to 1e-12 relative, not by ``repr``:
NumPy's vectorised ``log`` may differ by an ulp between CPUs and
versions, which study two's EM would carry into the last digits.
"""

import math

import pytest

from bigsurv.simulation import SimConfig, run_sim1, run_sim2

# (estimator, bias, se, rmse, var_rel_bias) per summary row
PINNED = {
    ("sim1", 1): (2.9979381309454007, [
        ("mean_a", 0.013097219647615432, 0.04755788587389661, 0.04932838606008166, None),
        ("mean_b", -0.10763342557667777, 0.005155406932634912, 0.10775682123193545, None),
        ("pdi", 0.006498174289141179, 0.03271591488254211, 0.03335501994743514, None),
        ("regdi", 0.00649817428914119, 0.03271591488254203, 0.03335501994743506,
         0.38663157616469634),
    ]),
    ("sim1", 2): (2.9979381309454007, [
        ("mean_a", 0.013097219647615432, 0.04755788587389661, 0.04932838606008166, None),
        ("mean_b", -1.093878146784336, 0.005236309700989764, 1.0938906796163947, None),
        ("pdi", -0.4866241863146879, 0.032833018889437134, 0.4877305668459034, None),
        ("regdi", 0.004267062439137248, 0.036056967760501726, 0.03630857675455424,
         0.4381852974384355),
    ]),
    ("sim1", 3): (2.9979381309454007, [
        ("mean_a", -0.9764523092907517, 0.04861577710165589, 0.9776618055863897, None),
        ("mean_b", -0.10763342557667777, 0.005155406932634912, 0.10775682123193545, None),
        ("pdi", -0.49384973617681516, 0.036977434991026244, 0.4952321603252615, None),
        ("regdi", 0.00682989028756299, 0.04829790392855076, 0.048778426842526056,
         0.07067408189225777),
    ]),
    ("sim2", None): (7.359831445077435, [
        ("mean_a", -0.011987607742460105, 0.09533668662555116, 0.09608739020353105, None),
        ("mean_b", -0.13940063196545177, 0.02010789560678779, 0.14084340118763394, None),
        ("naive_di", 0.05331425189713172, 0.12718919692702058, 0.13791120792122458, None),
        ("proposed_di", -0.005971386465896011, 0.09982027414594369, 0.09999872292632762,
         None),
        ("original_di", -0.005057686154101182, 0.06555685656007566, 0.06575166637638716,
         None),
    ]),
}


def _summary(study, scenario):
    if study == "sim1":
        return run_sim1(SimConfig(
            study="sim1", scenario=scenario, n_a=300, replicates=40, master_seed=7,
            pop_n=20_000, stratum_sizes=(6_000, 4_000),
        ))
    return run_sim2(SimConfig(
        study="sim2", n_a=200, replicates=40, master_seed=7, pop_n=4_000
    ))


def _close(got, want):
    if want is None:
        return got is None
    return got is not None and math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("study, scenario", list(PINNED))
def test_summary_matches_pinned_digits(study, scenario):
    truth, rows = PINNED[study, scenario]
    summary = _summary(study, scenario)
    assert summary.failures == 0
    assert _close(summary.truth, truth)
    assert [r.estimator for r in summary.rows] == [name for name, *_ in rows]
    for got, (name, *want) in zip(summary.rows, rows):
        fields = (got.bias, got.se, got.rmse, got.var_rel_bias)
        assert all(map(_close, fields, want)), (name, fields, want)
