"""Property tests for study one's replicate.

The replicate selects the big source from stratum pools cached once per
population and looks up the sampled units' membership instead of
building a full-N column.  These tests check it against a full-N
reference drawn from the same substreams, and check that summaries do
not depend on the number of workers.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigsurv import (
    ProbabilitySample,
    SimConfig,
    generate_population_sim1,
    run_sim1,
    substream,
)
from bigsurv import population, simulation
from bigsurv.population import _srs_positions

seeds = st.integers(0, 2**32 - 1)


def reference_delta(pop, sizes, rng):
    """Full-N membership: per stratum, the ``n_h`` units with the smallest
    of ``pool.size`` uniform keys, or the whole stratum when ``n_h`` is
    its size."""
    delta = np.zeros(pop.N, np.int64)
    for label, n_h in zip((1, 2), sizes):
        pool = np.flatnonzero(pop.stratum == label)
        if n_h == pool.size:
            delta[pool] = 1
            continue
        keys = rng.random(pool.size)
        delta[pool[np.argpartition(keys, n_h)[:n_h]]] = 1
    return delta


@st.composite
def sim1_cases(draw, min_share=0.0, max_share=1.0):
    """A population and stratum sizes that fit it."""
    pop_n = draw(st.integers(60, 600))
    seed = draw(seeds)
    pop = generate_population_sim1(pop_n, substream(seed, 9))
    pools = [int((pop.stratum == label).sum()) for label in (1, 2)]
    sizes = tuple(
        draw(st.integers(max(1, int(min_share * size)), int(max_share * size)))
        for size in pools
    )
    return pop, seed, sizes


@settings(max_examples=60, deadline=None)
@given(
    case=sim1_cases(),
    scenario=st.sampled_from((1, 2, 3)),
    n_a=st.integers(10, 50),
    rep=st.integers(0, 1000),
)
def test_replicate_matches_full_n_reference(case, scenario, n_a, rep):
    pop, seed, sizes = case
    config = SimConfig(
        scenario=scenario,
        pop_n=pop.N,
        n_a=n_a,
        stratum_sizes=sizes,
        master_seed=seed,
    ).resolved()
    frame = simulation._sim1_frame(pop, config)
    chosen, samples = [], []

    def recording_positions(m, k, rng):
        chosen.append(_srs_positions(m, k, rng))
        return chosen[-1]

    class RecordedSample(ProbabilitySample):
        """Records every instance, including the copy that ``replace``
        makes when the replicate fills in ``delta``."""

        def __post_init__(self):
            super().__post_init__()
            samples.append(self)

    real_draw = simulation.draw_srs

    def recording_draw(*args):
        drawn = real_draw(*args)
        return RecordedSample(**{f.name: getattr(drawn, f.name) for f in fields(drawn)})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(population, "_srs_positions", recording_positions)
        mp.setattr(simulation, "draw_srs", recording_draw)
        try:
            record = simulation._sim1_replicate(frame, config, rep, 0)
        except simulation.RETRYABLE:
            record = None  # the draws made before the failure are still checked

    ref = reference_delta(pop, sizes, substream((seed, rep, 0), 1))
    selected = np.concatenate([pool[pos] for pool, pos in zip(frame.pools, chosen)])
    assert np.array_equal(np.sort(selected), np.flatnonzero(ref))

    idx = np.sort(substream((seed, rep, 0), 0).choice(pop.N, size=n_a, replace=False))
    _, sample = samples  # the draw, then the copy carrying membership
    assert np.array_equal(sample.unit_ids, idx + 1)
    assert np.array_equal(sample.delta, ref[idx])

    if record is not None:
        column = pop.y_star if scenario == 2 else pop.y
        assert record["mean_b"] == pytest.approx(column[ref == 1].mean(), rel=1e-12)
        assert record["mean_a"] == float(
            (sample.y_star if scenario == 3 else sample.y).mean()
        )
        assert record["truth"] == float(pop.y.mean())


@settings(max_examples=12, deadline=None)
@given(
    # big enough a source that a 30-unit sample meets it within the
    # attempt budget, small enough to fit a regenerated population
    case=sim1_cases(min_share=0.2, max_share=0.6),
    scenario=st.sampled_from((1, 2, 3)),
    regenerate=st.booleans(),
)
def test_summaries_do_not_depend_on_workers(case, scenario, regenerate):
    pop, seed, sizes = case
    summaries = [
        run_sim1(
            SimConfig(
                scenario=scenario,
                pop_n=pop.N,
                n_a=30,
                replicates=5,
                stratum_sizes=sizes,
                master_seed=seed,
                regenerate_population=regenerate,
                workers=workers,
            )
        )
        for workers in (1, 2, 3)
    ]
    assert summaries[0] == summaries[1] == summaries[2]
