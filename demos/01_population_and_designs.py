"""
Finite populations, probability samples, and big-data selections
=================================================================

The package's basic objects: a finite universe of N units, a small
probability sample with known design weights, and a large
non-probability selection with no weights at all.
"""

import numpy as np

from bigsurv import (
    draw_srs,
    generate_population_sim1,
    ht_total,
    select_big_data_stratified,
)

# A synthetic universe of 100,000 units.  Each unit carries a true
# outcome y, a distorted proxy y*, and a stratum label derived from the
# latent covariate that drives both.
pop = generate_population_sim1(100_000, seed=20_250_816)
print(f"universe:      N = {pop.N:,}")
print(f"true mean:     {pop.y.mean():.4f}")
print(f"proxy mean:    {pop.y_star.mean():.4f}  (distorted scale)")
print(f"stratum sizes: {np.bincount(pop.stratum)[1:]}")

# A probability sample: simple random sampling without replacement.
# Every unit gets design weight N/n, and the sample object carries the
# joint inclusion probabilities needed for design-based variance.
sample = draw_srs(pop, n=1_000, seed=7)
print(f"\nprobability sample: n = {sample.n}, weight = {sample.d[0]:.0f}")

report = ht_total(sample, sample.y)  # carries its variance: the sample has joint_pi
print(f"design-weighted total: {report.total:,.0f}")
print(f"as a mean:             {report.mean:.4f}")
print(f"standard error (mean): {np.sqrt(report.variance) / pop.N:.4f}")

# A big-data selection: half the universe, but chosen by a mechanism
# that over-represents one stratum.  We mark it with a membership
# column delta; the big source has no design weights.
marked = select_big_data_stratified(pop, {1: 30_000, 2: 20_000}, seed=11)
big = marked.big_sample()
print(f"\nbig-data source: N_b = {big.N_b:,} units ({marked.W_b:.0%} coverage)")
print(f"big-data mean:   {big.values.mean():.4f}")
print(
    "coverage bias:   "
    f"{big.values.mean() - pop.y.mean():+.4f} "
    "(the big mean is NOT the population mean)"
)
