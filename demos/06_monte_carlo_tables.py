"""
Monte Carlo studies at desk scale
=================================

Both bundled studies, shrunk to run in seconds.  Study one varies
where the measurement-error proxy lives (nowhere / big source /
probability sample); study two replaces known membership with
classified membership.  Full-scale runs (the shipped defaults)
reproduce the package's reference tables and are also available from
the command line:

    bigsurv simulate1 --scenario 2 --reps 1000 --seed 18 --out table2_s2.csv
    bigsurv simulate2 --n-a 1000 --reps 1000 --seed 18 --out table3_n1000.csv
"""

from bigsurv import SimConfig, run_sim1, run_sim2


def show(summary):
    print(
        f"\nstudy={summary.study} scenario={summary.scenario} "
        f"replicates={summary.replicates} truth={summary.truth:.4f}"
    )
    print(f"  {'estimator':<14}{'bias':>9}{'se':>9}{'rmse':>9}")
    for row in summary.rows:
        print(f"  {row.estimator:<14}{row.bias:>+9.4f}{row.se:>9.4f}{row.rmse:>9.4f}")
    # each estimator whose replicates carry a variance reports its bias
    for row in summary.rows:
        if row.var_rel_bias is not None:
            print(f"  variance relative bias ({row.estimator}): {row.var_rel_bias:+.4f}")


# Study one at one-twentieth scale: 200 replicates on a universe of
# 50,000.  The signature pattern survives shrinking: the big-data mean
# is badly biased, post-stratification fixes scenario 1 but not the
# proxy scenarios, calibration fixes all three.
for scenario in (1, 2, 3):
    config = SimConfig(
        study="sim1",
        scenario=scenario,
        n_a=500,
        replicates=200,
        master_seed=20_250_816,
        pop_n=50_000,
    )
    show(run_sim1(config))

# Study two at full population scale but 200 replicates: classified
# membership inflates the naive integrator; the propensity-corrected
# integrator is unbiased and still beats the plain sample mean on SE.
config = SimConfig(
    study="sim2", n_a=1_000, replicates=200, master_seed=20_250_816
)
show(run_sim2(config))
