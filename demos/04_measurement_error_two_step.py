"""
Measurement error: fitting, inverting, and the two-step estimator
=================================================================

When the probability sample only observes a distorted proxy
y* = b0 + b1 y + e, averaging proxies estimates the wrong quantity.
The matched units -- sampled units that also appear in the big source,
where the true value is on record -- identify the distortion, and
inverting it before calibration restores the true scale.
"""

import numpy as np

from bigsurv import (
    BigDataTotals,
    draw_srs,
    fit_measurement_model,
    generate_population_sim1,
    ht_total,
    mass_imputation_total,
    select_big_data_stratified,
    two_step_regdi,
)

pop = generate_population_sim1(100_000, seed=20_250_816)
marked = select_big_data_stratified(pop, {1: 30_000, 2: 20_000}, seed=11)
big = marked.big_sample()
sample = draw_srs(marked, n=1_000, seed=7)
truth = pop.y.mean()

print(f"truth:                 {truth:.4f}")
print(f"naive proxy mean:      {ht_total(sample, sample.y_star).mean:.4f}")

# Step one: fit the distortion on the matched units.  The generating
# process used y* = -0.7 + 0.9 y + noise.
matched = sample.delta > 0
model = fit_measurement_model(
    sample.y[matched], sample.y_star[matched], sample.d[matched]
)
print(
    f"\nfitted distortion:     y* = {model.beta0:.3f} + {model.beta1:.3f} y"
    f"  (on {model.n_fit} matched units)"
)
print(f"residual variance:     {model.sigma2:.3f}")

# Inverting the fitted map takes every sampled proxy back to the true
# scale; the design-weighted mean of the inversions is the
# mass-imputation estimator.  It makes the same fit itself, and its
# report carries a variance that accounts for the estimated coefficients.
imputed = mass_imputation_total(sample)
print(f"\nmass-imputation mean:  {imputed.mean:.4f}")
print(f"standard error:        {np.sqrt(imputed.variance) / imputed.population_size:.4f}")

# Step two: calibrate the inverted values on the standard controls so
# the big stratum is also pinned to its exact total.  Only the big
# source's totals enter; the report carries the linearized variance.
totals = BigDataTotals(T_b=big.total, N_b=big.N_b, N=big.N)
two_step = two_step_regdi(sample, totals)
print(f"two-step calibrated:   {two_step.mean:.4f}")
print(f"standard error:        {np.sqrt(two_step.variance) / totals.N:.4f}")
print(f"error vs truth:        {two_step.mean - truth:+.4f}")
