"""The CSV writers' float text is ``repr``'s, bit for bit.

``fileio._shortest_cells`` computes the shortest round-trip digits in NumPy
for ``1e-4 <= |x| < 1e15`` and hands every other value, and every rounding
too close to call, to ``repr``.  These tests hold its text to ``repr`` on
arbitrary bit patterns, on the fast range, on constructed ties and on the
edges where a kernel slip would show: powers of two and of ten and their
neighbours, signed zeros, the range ends and subnormals.  A last test
checks that the kernel, not ``repr``, writes nearly every ordinary value.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bigsurv import BigSample, write_big_data_csv
from bigsurv.fileio import _BLOCK_ROWS, _CHUNK, _shortest_cells, _shortest_digits


def texts(values) -> list:
    """The cells ``_shortest_cells`` writes, as strings."""
    cells = _shortest_cells(np.array(values, np.float64))
    return [bytes(row[row != 0]).decode() for row in cells]


def assert_repr(values):
    values = [float(v) for v in values]
    assert texts(values) == [repr(v) for v in values]


def neighbours(x: float) -> list:
    """``x`` and the doubles either side of it, of both signs."""
    near = [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    return near + [-v for v in near]


POWERS = sorted({v for e in range(-16, 52) for v in neighbours(2.0**e)}
                | {v for e in range(-5, 17) for v in neighbours(10.0**e)})
EDGES = [0.0, -0.0, *neighbours(1e-4), *neighbours(1e15), 5e-324, -5e-324,
         2.5e-320, 2.2250738585072014e-308, math.nextafter(2.2250738585072014e-308, 0.0)]


def tie(m: int, shift: int) -> float:
    """``(2^17 + odd) / 2^17``, times ``2^shift``: an exact double whose
    decimal expansion ends in a 5.  At shift 0 that 5 is the 18th digit,
    so the two 17-digit roundings lie equally near it and both read back;
    shifts 1 and 2 put the tie at 16 and 15 digits."""
    return (2**17 + 2 * m + 1) / 2**17 * 2.0**shift


bit_patterns = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=50)
fast_floats = st.lists(
    st.builds(lambda x, negative: -x if negative else x,
              st.floats(1e-4, 1e15), st.booleans()),
    min_size=1, max_size=50,
)
ties = st.lists(st.builds(tie, st.integers(0, 2**16 - 1), st.integers(-3, 3)),
                min_size=1, max_size=50)


@settings(max_examples=200, deadline=None)
@given(bit_patterns)
def test_any_bit_pattern_is_written_as_repr(bits):
    assert_repr(np.array(bits, np.int64).view(np.float64))


@settings(max_examples=200, deadline=None)
@given(fast_floats)
@example([1e-4, -1e-4, 999999999999999.9, 0.1, 0.30000000000000004, 9.999999999999998])
def test_fast_range_is_written_as_repr(values):
    assert_repr(values)


@settings(max_examples=100, deadline=None)
@given(ties)
@example([(2**17 + 1) / 2**17])
def test_seventeen_digit_ties_are_written_as_repr(values):
    assert_repr(values)


def test_powers_edges_and_subnormals_are_written_as_repr():
    assert_repr(POWERS)
    assert_repr(EDGES)
    # a block all of whose values leave the fast range
    assert_repr([5e-324, -1e300, 1e-5])


def test_blocks_wider_than_a_chunk_are_written_as_repr():
    rng = np.random.default_rng(30)
    values = np.concatenate([
        rng.uniform(1.0, 10.0, _CHUNK), rng.normal(0.0, 1e6, _CHUNK),
        10.0 ** rng.uniform(-6.0, 17.0, 100), POWERS,
    ])
    rng.shuffle(values)
    assert_repr(values)


def test_kernel_writes_nearly_every_ordinary_value():
    """At least 99% of uniform draws in [1, 10) take the fast path, so a
    kernel that quietly sent every value to ``repr`` would fail here."""
    values = np.random.default_rng(7).uniform(1.0, 10.0, 100_000)
    fast = np.concatenate([
        _shortest_digits(values[start:start + _CHUNK])[3]
        for start in range(0, values.size, _CHUNK)
    ])
    assert fast.mean() >= 0.99


def test_big_data_write_memory_is_bounded_by_its_block(tmp_path):
    """Four blocks of distinct floats: the writer's tracemalloc peak stays
    under 12 MiB, well under the 25 MiB that formatting a block's floats
    in one pass took."""
    n = 4 * _BLOCK_ROWS
    rng = np.random.default_rng(3)
    big = BigSample(
        unit_ids=np.arange(1, n + 1, dtype=np.int64),
        values=rng.uniform(4.5, 10.0, n),
        multiplicity=np.ones(n, np.int64),
        N=2 * n,
        z=rng.integers(1, 21, (n, 2)),
    )
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_big_data_csv(path, big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20, f"{peak / 2**20:.2f} MiB"
