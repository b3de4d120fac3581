"""Property tests for study two: summaries do not depend on the number
of worker threads, because every replicate draws from streams keyed by
``(master_seed, replicate, attempt, role)`` alone, and one attempt's
private draw is the public path's."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigsurv import (
    BigDataTotals,
    ClassifierModel,
    DegenerateStratumError,
    SimConfig,
    draw_srs,
    estimate_m,
    generate_population_sim2,
    initial_u,
    pdi_total,
    run_sim2,
    substream,
)
from bigsurv.classifier import _cell_totals, _cells, _em_row, _level_index
from bigsurv.simulation import _sim2_draw, _sim2_frame


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pop_n=st.integers(200, 800),
    big_share=st.floats(0.2, 0.6),
    n_a=st.integers(30, 100),
)
def test_summaries_do_not_depend_on_workers(seed, pop_n, big_share, n_a):
    summaries = [
        run_sim2(
            SimConfig(
                study="sim2",
                pop_n=pop_n,
                big_n=int(big_share * pop_n),
                n_a=n_a,
                replicates=6,
                master_seed=seed,
                workers=workers,
            )
        )
        for workers in (1, 2, 3)
    ]
    assert summaries[0] == summaries[1] == summaries[2]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pop_n=st.integers(20, 400),
    big_share=st.floats(0.05, 0.5),
    n_share=st.floats(0.05, 0.6),
    rep=st.integers(0, 50),
    attempt=st.integers(0, 3),
)
def test_draw_is_the_public_path(seed, pop_n, big_share, n_share, rep, attempt):
    """One study-two attempt, which builds neither the population with
    the drawn membership nor its big source, gives bit for bit what the
    public path gives: ``with_delta``, ``draw_srs``, ``big_sample``,
    ``estimate_m`` and ``initial_u``, and the big source's cell totals."""
    n_a = max(2, int(n_share * pop_n))
    config = SimConfig(study="sim2", pop_n=pop_n, big_n=max(1, int(big_share * pop_n)),
                       n_a=n_a, master_seed=seed).resolved()
    pop = generate_population_sim2(pop_n, config.big_n, substream(seed, 9))
    frame = _sim2_frame(pop, config)
    stream = (seed, rep, attempt)
    delta = (substream(stream, 1).random(pop_n) < frame.probs).astype(np.int64)
    if delta.sum() in (0, pop_n):
        with pytest.raises(DegenerateStratumError):
            _sim2_draw(frame, config, rep, attempt)
        return
    levels = tuple(int(pop.z[:, k].max()) for k in range(pop.z.shape[1]))
    marked = pop.with_delta(delta)
    big = marked.big_sample()
    sample = draw_srs(marked, n_a, substream(stream, 0))
    model = ClassifierModel(
        pi=big.N_b / pop_n, m=estimate_m(big, levels), u=initial_u(sample.z, sample.d, levels)
    )
    want_row = _em_row(sample, model)
    want_cells = _cell_totals(*_cells(_level_index(big.z, levels), levels),
                              big.multiplicity, big.values, pop_n)
    totals = BigDataTotals(T_b=float(big.values.sum()), N_b=big.N_b, N=pop_n)
    try:
        original_di = pdi_total(sample, sample.delta, sample.y, totals).mean
    except DegenerateStratumError:
        # a sample with no unit outside the big source fails both paths alike
        with pytest.raises(DegenerateStratumError):
            _sim2_draw(frame, config, rep, attempt)
        return

    row = _sim2_draw(frame, config, rep, attempt)
    draw = row.key
    assert row.model.pi == model.pi
    for got, want in [*zip(row.model.u, model.u), *zip(row.model.m, model.m),
                      (row.w, want_row.w), (row.a, want_row.a),
                      *zip(row.cells, want_row.cells),
                      (draw.cells.count, want_cells.count), (draw.cells.total, want_cells.total),
                      *zip(draw.cells.cells, want_cells.cells),
                      (draw.sample.unit_ids, sample.unit_ids), (draw.sample.y, sample.y)]:
        assert got.tobytes() == want.tobytes()
    assert draw.totals == totals
    assert draw.record["mean_a"] == float(sample.y.mean())
    assert draw.record["mean_b"] == float(big.values.mean())
    assert draw.record["original_di"] == original_di
