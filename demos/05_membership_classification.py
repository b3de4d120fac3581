"""
Classifying big-data membership when records cannot be matched
==============================================================

Integration needs to know which sampled units belong to the big
source.  Without a record linkage, membership is inferred from shared
categorical traits: a two-component mixture whose member side is
estimated from the big source itself and whose non-member side is
fitted by EM on the design-weighted sample.  The corrected integrator
then weights classified members by their inverse estimated propensity.
"""

import numpy as np

from bigsurv import (
    BigDataTotals,
    big_data_inclusion_probabilities,
    classify,
    draw_srs,
    fit_membership,
    generate_population_sim2,
    pdi2_total,
    pdi_total,
    substream,
)

# A categorical universe: two traits, an outcome that depends on them,
# and a big source whose inclusion rate depends on the first trait.
pop = generate_population_sim2(10_000, 5_000, seed=20_250_816)
probs = big_data_inclusion_probabilities(pop.z[:, 0], 5_000)
rng = substream(20_250_816, 1)
marked = pop.with_delta((rng.random(pop.N) < probs).astype(np.int64))
big = marked.big_sample()
truth = pop.y.mean()
print(f"truth:           {truth:.4f}")
print(f"big-data mean:   {big.values.mean():.4f}  (coverage-biased)")

sample = draw_srs(marked, n=1_000, seed=3)
levels = tuple(int(pop.z[:, k].max()) for k in range(pop.z.shape[1]))

# Fit the mixture: member-side trait tables come from the big source;
# the non-member side starts from smoothed sample frequencies and is
# refined by SQUAREM-accelerated EM, which is guaranteed non-decreasing
# in the weighted log-likelihood.
fitted, post = fit_membership(sample, big, big.N_b / pop.N, levels)
print(
    f"\nEM: {post.iterations} map evaluations, "
    f"log-likelihood {post.loglik_trace[0]:.1f} -> {post.loglik_trace[-1]:.1f}"
)

labels = classify(post)
accuracy = float(np.mean(labels == sample.delta))
print(f"label accuracy vs true membership: {accuracy:.1%}")
print(f"design-weighted member share:      {post.design_weighted_mean:.3f}")
print(f"true coverage:                     {marked.W_b:.3f}")

# Integrate three ways: pretending the labels are exact (naive),
# propensity-correcting the classified members (proposed), and using
# the true flags (an oracle available only in a simulation).  Both
# classified integrators take the same fit: the proposed one reuses its
# sample labels and scores only the big-data rows with the fitted model.
totals = BigDataTotals(T_b=big.total, N_b=big.N_b, N=pop.N)
naive = pdi_total(sample, labels, sample.y, totals)
proposed = pdi2_total(sample, big, fitted, post)
oracle = pdi_total(sample, sample.delta, sample.y, totals)
print(f"\nnaive integration (labels as truth): {naive.mean:.4f}")
print(f"propensity-corrected integration:    {proposed.mean:.4f}")
print(f"oracle integration (true flags):     {oracle.mean:.4f}")
