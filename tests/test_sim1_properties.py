"""Property tests for study one's replicate and its big-data selection.

The replicate selects the big source as a mask over each stratum's
contiguous slice of the universe, held in stratum order, one stratum at
a time, and reads the sampled units' membership from each mask at their
positions, found from the frame's stratum-1 membership bits and counts
rather than a full-N map or column.  These tests check the mask against
``argpartition`` over the same keys, check the replicate against a full-N
reference drawn from the same substreams and its design sample against
``draw_srs``, and check that summaries do not depend on the number of
workers.  The keys and the universe are drawn in blocks, so the mask,
the generator and the stratum-order frame are checked at sizes either
side of a block; the universe and the frame are checked bit for bit
against the plain expressions, the positions against the inverse of a
stable sort by stratum at sizes either side of a 64-unit word and of a
block, and the peak memory of building the universe and of a study run
is bounded.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bigsurv import (
    ProbabilitySample,
    SimConfig,
    draw_srs,
    generate_population_sim1,
    run_sim1,
    select_big_data_stratified,
    substream,
)
from bigsurv import population, simulation
from bigsurv.population import _BLOCK, _srs_mask

seeds = st.integers(0, 2**32 - 1)
# sizes either side of the block the keys and the universe are drawn in
BLOCK_EDGES = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)


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


def argpartition_mask(m, k, rng):
    """The k units with the smallest of m uniform keys, by ``argpartition``;
    all m units, with no draw, when k is m."""
    hit = np.zeros(m, bool)
    if k == m:
        hit[:] = True
    else:
        hit[np.argpartition(rng.random(m), k)[:k]] = True
    return hit


@st.composite
def pool_and_size(draw):
    m = draw(st.integers(1, 5000))
    return m, draw(st.integers(0, m))


@settings(max_examples=200, deadline=None)
@given(case=pool_and_size(), seed=seeds)
@example(case=(1, 0), seed=0)
@example(case=(1, 1), seed=0)
@example(case=(300, 0), seed=1)
@example(case=(300, 300), seed=1)
@example(case=(300_000, 150_000), seed=2)
@example(case=(_BLOCK - 1, 1), seed=3)
@example(case=(_BLOCK, _BLOCK // 2), seed=4)
@example(case=(_BLOCK + 1, _BLOCK), seed=5)
@example(case=(2 * _BLOCK + 1, 0), seed=6)
@example(case=(2 * _BLOCK + 1, _BLOCK + 1), seed=7)
def test_mask_matches_argpartition_and_leaves_same_stream(case, seed):
    m, k = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    hit = _srs_mask(m, k, rng)
    assert hit.dtype == bool and hit.shape == (m,)
    assert np.array_equal(hit, argpartition_mask(m, k, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class StubGenerator:
    """Hands out fixed keys in place of uniform draws, in order, a block
    into ``out`` or whole, with its read position as a restorable state."""

    def __init__(self, keys):
        self.keys = np.asarray(keys, float)
        self.bit_generator = self
        self.state = 0  # keys handed out so far

    def random(self, size=None, out=None):
        n = out.size if out is not None else size
        assert self.state + n <= self.keys.size
        drawn = self.keys[self.state:self.state + n]
        self.state += n
        if out is None:
            return drawn.copy()
        out[...] = drawn
        return out


def test_mask_keeps_the_first_keys_tied_at_the_threshold():
    keys = [0.5, 0.1, 0.5, 0.7, 0.5, 0.2]
    hit = _srs_mask(6, 3, StubGenerator(keys))
    # 0.1 and 0.2 lie below the third-smallest key 0.5, and of the three
    # keys tied at 0.5 only the first is kept
    assert hit.tolist() == [True, True, False, False, False, True]
    picked = np.argpartition(keys, 3)[:3]
    assert np.array_equal(np.sort(np.asarray(keys)[hit]), np.sort(np.take(keys, picked)))


@pytest.mark.parametrize("m, k", [(2, 1), (5000, 1), (5000, 4999), (2 * _BLOCK + 1, _BLOCK)])
def test_band_miss_redraws_the_keys_and_ends_in_the_same_state(m, k, monkeypatch):
    """A band of width zero never holds the k-th key, so every selection
    takes the path that puts a real generator back and partitions all m
    keys: the mask and the generator's end state are those of one draw."""
    monkeypatch.setattr(population, "_BAND_SDS", 0.0)
    partitioned = []
    real_partition = np.partition

    def recording_partition(a, kth):
        partitioned.append(np.asarray(a).size)
        return real_partition(a, kth)

    monkeypatch.setattr(np, "partition", recording_partition)
    rng, ref_rng = np.random.default_rng(m + k), np.random.default_rng(m + k)
    hit = _srs_mask(m, k, rng)
    assert partitioned == [m]
    assert np.array_equal(hit, argpartition_mask(m, k, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("low", [True, False])
def test_mask_partitions_every_key_when_the_band_misses(low, monkeypatch):
    """Keys bunched far from k / m put every key below the band around
    it (low) or leave the band and the keys below it empty (high), so
    every key is partitioned."""
    m, k = 2000, 1000
    keys = np.linspace(0.0, 0.1, m) if low else np.linspace(0.9, 1.0, m)
    keys = np.random.default_rng(3).permutation(keys)
    partitioned = []
    real_partition = np.partition

    def recording_partition(a, kth):
        partitioned.append(np.asarray(a).size)
        return real_partition(a, kth)

    monkeypatch.setattr(np, "partition", recording_partition)
    hit = _srs_mask(m, k, StubGenerator(keys))
    assert partitioned == [m]
    assert np.array_equal(np.flatnonzero(hit), np.sort(np.argpartition(keys, k)[:k]))


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


@settings(max_examples=30, deadline=None)
@given(case=sim1_cases())
def test_select_big_data_stratified_matches_full_n_reference(case):
    pop, seed, sizes = case
    marked = select_big_data_stratified(pop, dict(zip((1, 2), sizes)), (seed, 8))
    assert np.array_equal(marked.delta, reference_delta(pop, sizes, substream(seed, 8)))


def recorded_replicate(pop, config, rep):
    """``_sim1_replicate(frame, config, rep, 0)`` on the frame of ``pop``:
    its record (``None`` if the attempt failed retryably), the masks it
    drew and every design sample it built.  The frame is drawn from
    ``config``'s stream, and its ``y`` and strata are checked to be
    ``pop``'s on the way."""
    masks, samples = [], []

    def pop_outcome(N, rng):
        y, low = outcome(N, rng)
        assert y.tobytes() == pop.y.tobytes() and np.array_equal(low, pop.stratum == 1)
        return y, low

    def recording_mask(m, k, rng):
        masks.append(_srs_mask(m, k, rng))
        return masks[-1]

    def recording_post_init(sample):
        post_init(sample)
        samples.append(sample)

    post_init, outcome = ProbabilitySample.__post_init__, simulation._sim1_outcome
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "_sim1_outcome", pop_outcome)
        mp.setattr(simulation, "_srs_mask", recording_mask)
        mp.setattr(ProbabilitySample, "__post_init__", recording_post_init)
        frame = simulation._sim1_frame(config)
        try:
            record = simulation._sim1_replicate(frame, config, rep, 0)
        except simulation.RETRYABLE:
            record = None  # the draws made before the failure are still checked
    return record, masks, samples


def sim1_config(pop, seed, sizes, **fields):
    return SimConfig(pop_n=pop.N, stratum_sizes=sizes, master_seed=seed, **fields).resolved()


@settings(max_examples=60, deadline=None)
@given(
    case=sim1_cases(),
    scenario=st.sampled_from((1, 2, 3)),
    n_a=st.integers(10, 50),
    rep=st.integers(0, 1000),
)
def test_replicate_matches_full_n_reference(case, scenario, n_a, rep):
    pop, seed, sizes = case
    config = sim1_config(pop, seed, sizes, scenario=scenario, n_a=n_a)
    record, chosen, samples = recorded_replicate(pop, config, rep)

    ref = reference_delta(pop, sizes, substream((seed, rep, 0), 1))
    pools = [np.flatnonzero(pop.stratum == label) for label in (1, 2)]
    selected = np.concatenate([pool[hit] for pool, hit in zip(pools, chosen)])
    assert np.array_equal(np.sort(selected), np.flatnonzero(ref))

    idx = np.sort(substream((seed, rep, 0), 0).choice(pop.N, size=n_a, replace=False))
    (sample,) = samples  # built once, with its membership
    assert np.array_equal(sample.unit_ids, idx + 1)
    assert np.array_equal(sample.delta, ref[idx])

    if record is not None:
        column = pop.y_star if scenario == 2 else pop.y
        assert record["mean_b"] == pytest.approx(column[ref == 1].mean(), rel=1e-12)
        assert record["mean_a"] == float(
            (sample.y_star if scenario == 3 else sample.y).mean()
        )
        assert record["truth"] == float(pop.y.mean())


@settings(max_examples=40, deadline=None)
@given(case=sim1_cases(), n_a=st.integers(1, 60), rep=st.integers(0, 1000))
def test_replicate_sample_is_draw_srs(case, n_a, rep):
    """The design sample gathered through the frame's stratum order is
    the public draw of the same stream, bit for bit."""
    pop, seed, sizes = case
    _, _, samples = recorded_replicate(pop, sim1_config(pop, seed, sizes, n_a=n_a), rep)
    want = draw_srs(pop, n_a, substream((seed, rep, 0), 0))
    (got,) = samples
    for name in ("unit_ids", "d", "pi", "y", "y_star"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.joint_pi == want.joint_pi and got.design == want.design


@settings(max_examples=12, deadline=None)
@given(
    # big enough a source that a 30-unit sample meets it within the
    # attempt budget
    case=sim1_cases(min_share=0.2, max_share=0.6),
    scenario=st.sampled_from((1, 2, 3)),
)
def test_summaries_do_not_depend_on_workers(case, scenario):
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
                workers=workers,
            )
        )
        for workers in (1, 2, 3)
    ]
    assert summaries[0] == summaries[1] == summaries[2]


def expression_population(N, seed):
    """Study one's universe as plain expressions: the reference that the
    in-place generator must reproduce bit for bit."""
    rng = substream(seed)
    x = rng.normal(2.0, 1.0, N)
    e = rng.normal(0.0, math.sqrt(0.51), N)
    y = 3.0 + 0.7 * (x - 2.0) + e
    u = rng.normal(0.0, 0.5, N)
    y_star = 2.0 + 0.9 * (y - 3.0) + u
    stratum = np.where(x <= 2.0, 1, 2).astype(np.int64)
    return y, y_star, stratum


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, 5_000), seed=st.one_of(seeds, st.tuples(seeds, st.integers(0, 99))))
@example(N=1, seed=0)
@example(N=10**5, seed=18)
@example(N=BLOCK_EDGES[0], seed=18)
@example(N=BLOCK_EDGES[1], seed=19)
@example(N=BLOCK_EDGES[2], seed=(20, 9))
@example(N=BLOCK_EDGES[3], seed=21)
def test_generator_is_the_expression_form_bit_for_bit(N, seed):
    pop = generate_population_sim1(N, seed)
    for got, want in zip((pop.y, pop.y_star, pop.stratum), expression_population(N, seed)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 5_000), seed=seeds)
@example(N=1, seed=0)
@example(N=BLOCK_EDGES[0], seed=18)
@example(N=BLOCK_EDGES[1], seed=19)
@example(N=BLOCK_EDGES[2], seed=20)
@example(N=BLOCK_EDGES[3], seed=21)
def test_frame_is_the_expression_form_in_stratum_order(N, seed):
    """Study one's frame, drawn straight into stratum order, holds the
    expression form's columns bit for bit: stratum 1's units, then
    stratum 2's, each in unit order, and the truth as the mean of ``y``
    in unit order."""
    y, y_star, stratum = expression_population(N, substream(seed, 9))
    cut = int(np.count_nonzero(stratum == 1))
    config = SimConfig(pop_n=N, n_a=1, master_seed=seed, stratum_sizes=(cut, N - cut)).resolved()
    frame = simulation._sim1_frame(config)
    order = np.argsort(stratum, kind="stable")
    at, _ = simulation._sim1_positions(frame, np.arange(N))
    assert frame.cut == cut and frame.words.dtype == bool
    # no N-long integer array: a bool per unit and a count per 64 units
    assert frame.words.shape == (-(-N // 64), 64) and frame.before.shape == (-(-N // 64),)
    assert np.array_equal(at[order], np.arange(N))
    assert frame.y.tobytes() == y[order].tobytes()
    assert frame.y_star.tobytes() == y_star[order].tobytes()
    assert frame.truth == float(y.mean())


@st.composite
def stratum_splits(draw):
    """A universe size, by its edges of a 64-unit word and of a block or
    at random, and a stratum-1 membership over it: all of it, or each
    unit in stratum 1 with a drawn probability."""
    N = draw(st.sampled_from((1, 63, 64, 65, *BLOCK_EDGES)) | st.integers(1, 5_000))
    share = draw(st.just(1.0) | st.floats(0.0, 1.0))
    return np.random.default_rng(draw(seeds)).random(N) < share


@settings(max_examples=40, deadline=None)
@given(one=stratum_splits(), seed=seeds)
@example(one=np.ones(1, bool), seed=0)
@example(one=np.ones(2 * _BLOCK + 1, bool), seed=1)
@example(one=np.arange(65) % 3 == 0, seed=2)
@example(one=np.arange(_BLOCK - 1) % 5 != 0, seed=3)
@example(one=np.arange(_BLOCK + 1) % 7 == 0, seed=4)
@example(one=np.arange(2 * _BLOCK + 1) % 2 == 0, seed=5)
def test_positions_invert_the_stable_stratum_order(one, seed):
    """Each unit's position, found from the frame's membership words and
    counts, is its place in the stable sort by stratum: the inverse of
    ``np.argsort(stratum, kind="stable")``, for every unit and for a
    sorted sample of them, and ``y`` is read back through it bit for
    bit."""
    N, cut = one.size, int(np.count_nonzero(one))
    y = np.random.default_rng(seed).normal(size=N)
    config = SimConfig(pop_n=N, n_a=1, master_seed=seed, stratum_sizes=(cut, N - cut)).resolved()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "_sim1_outcome", lambda N, rng: (y.copy(), one.copy()))
        frame = simulation._sim1_frame(config)
    inverse = np.empty(N, np.int64)
    inverse[np.argsort(np.where(one, 1, 2), kind="stable")] = np.arange(N)
    at, first = simulation._sim1_positions(frame, np.arange(N))
    assert np.array_equal(at, inverse) and np.array_equal(first, one)
    assert frame.y[at].tobytes() == y.tobytes()
    idx = np.sort(np.random.default_rng(seed).choice(N, size=min(N, 50), replace=False))
    at, first = simulation._sim1_positions(frame, idx)
    assert np.array_equal(at, inverse[idx]) and np.array_equal(first, one[idx])


def test_generator_peak_stays_under_three_and_a_half_columns():
    """The expression form peaks at seven N-length float columns; the
    build that writes ``y`` over ``x`` and draws ``e`` and ``u`` in blocks
    holds ``x``, ``y*`` and the int64 stratum at its peak (3.17 columns
    at N = 2*10^5, where a block's temporaries weigh most)."""
    N = 200_000
    generate_population_sim1(N, 1)  # one-off allocations stay out of the peak
    tracemalloc.start()
    try:
        generate_population_sim1(N, 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 8 * N


@pytest.mark.parametrize("workers", [1, 2])
def test_study_peak_stays_under_two_and_a_half_columns(workers):
    """Study one draws its universe straight into stratum order and
    holds it once, with a membership bool per unit, and each worker holds
    one stratum's mask at a time and draws its selection keys in blocks;
    at N = 10^6 a run stays under 2.5 N-length float columns (2.24 at one
    worker and 2.34 at two)."""
    N = 1_000_000
    config = SimConfig(pop_n=N, replicates=3, workers=workers)
    run_sim1(config)  # one-off allocations stay out of the peak
    tracemalloc.start()
    try:
        run_sim1(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * N
