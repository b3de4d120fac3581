"""
Repairing selection bias by post-stratification
===============================================

The big source's mean is biased because its units were not chosen at
random.  Splitting the universe into the covered stratum (where the
big source IS a census) and the uncovered stratum (estimated from the
probability sample) removes that bias, and usually beats the
probability sample alone on variance.
"""

import numpy as np

from bigsurv import (
    BigDataTotals,
    cost_effective,
    draw_srs,
    effective_sample_size,
    generate_population_sim1,
    ht_total,
    pdi_total,
    pdi_variance_approx,
    ratio_di_total,
    select_big_data_stratified,
)

pop = generate_population_sim1(100_000, seed=20_250_816)
marked = select_big_data_stratified(pop, {1: 30_000, 2: 20_000}, seed=11)
big = marked.big_sample()
truth = pop.y.mean()

# The probability sample observes y and, for each unit, whether it also
# belongs to the big source.
sample = draw_srs(marked, n=1_000, seed=7)
totals = BigDataTotals(T_b=big.total, N_b=big.N_b, N=pop.N)

print(f"truth                {truth:.4f}")
print(f"big-data mean        {big.values.mean():.4f}  (selection-biased)")
print(f"sample mean          {ht_total(sample, sample.y).mean:.4f}")

# Post-stratified integration: keep the big stratum's exact total and
# estimate only the uncovered remainder from the weighted sample.
pdi = pdi_total(sample, sample.delta, sample.y, totals)
print(f"post-stratified      {pdi.mean:.4f}")

# A ratio variant for when only the big total (not its unit count) can
# be trusted.
ratio = ratio_di_total(sample, sample.delta, sample.y, totals.T_b)
print(f"ratio-adjusted       {ratio.mean:.4f}")

# Why integration pays: only the uncovered half contributes variance.
s_full = float(np.var(pop.y, ddof=1))
s_out = float(np.var(pop.y[marked.delta == 0], ddof=1))
approx = pdi_variance_approx(W_b=marked.W_b, S_c2=s_out, N=pop.N, n=sample.n)
print(f"\napprox SE (mean):    {np.sqrt(approx) / pop.N:.4f}  (planning formula)")
print(f"estimated SE (mean): {np.sqrt(pdi.variance) / pop.N:.4f}  (pdi_total's own)")
n_star = effective_sample_size(n=sample.n, W_b=marked.W_b, S2=s_full, S_c2=s_out)
print(f"effective n:         {n_star:.0f}  (from n = {sample.n})")

# The same arithmetic prices the big source: acquiring it is worth it
# while its per-unit cost stays below this multiple of the survey's.
decision = cost_effective(c_a=1.0, c_b=0.002, n=sample.n, N=pop.N, W_b=marked.W_b)
print(
    f"cost rule:           big/survey unit-cost ratio 0.0020 <= "
    f"{decision.threshold:.4f} -> "
    f"{'worth it' if decision.cost_effective else 'not worth it'}"
)
