"""Property test for study two: summaries do not depend on the number
of worker threads, because every replicate draws from streams keyed by
``(master_seed, replicate, attempt, role)`` alone."""

from hypothesis import given, settings
from hypothesis import strategies as st

from bigsurv import SimConfig, run_sim2


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
