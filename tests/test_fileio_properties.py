"""Property test for the north-star identity "a CSV write/read round trip
is bit-exact".

Sample and big-data files are written with the package's
writers and read back; every array must come back with the same dtype
and the same bytes (so -0.0, subnormals and +-1e308 survive), and every
optional column left out must come back as ``None``.  The written bytes
must also equal a row-by-row ``csv.writer`` + ``repr`` reference kept
here, so the block writer, which formats each distinct value once, cannot
drift from the documented format.  The writers take any int as a ``z``
level, but the readers refuse a level below 1, naming its column, so a
file holding one is checked for that error instead of read back.
"""

import csv
import functools
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from bigsurv import (
    BigSample,
    ProbabilitySample,
    read_big_data_csv,
    read_sample_csv,
    write_big_data_csv,
    write_labels_csv,
    write_sample_csv,
)
from bigsurv.fileio import _BLOCK_ROWS, _read_columns

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1e308]
floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
# a posterior takes one value per z cell, so a labels column repeats a few
few_floats = st.sampled_from([-0.0, 0.0, 0.5, 0.1 + 0.2, 5e-324, 1.0, 1 - 2**-53])
# the ends of the digit-grid range 0..10^18-1, just past them, and int64's own
EDGE_INTS = [0, 9, 10, 10**18 - 1, 10**18, -1, -(2**63), 2**63 - 1]
ints = st.integers(-(2**62), 2**62) | st.integers(0, 10**18) | st.sampled_from(EDGE_INTS)
# membership counts: a negative delta is no sample
counts = st.integers(0, 2**62) | st.sampled_from([e for e in EDGE_INTS if e >= 0])
# z levels a reader takes back: they start at 1
levels = st.integers(1, 2**62) | st.sampled_from([e for e in EDGE_INTS if e >= 1])


def float_col(draw, n, elements=floats):
    return np.array(draw(st.lists(elements, min_size=n, max_size=n)), np.float64)


def int_col(draw, n, elements=ints):
    return np.array(draw(st.lists(elements, min_size=n, max_size=n)), np.int64)


def maybe(draw, make):
    """The column ``make()`` builds, or ``None`` (an absent optional column)."""
    return make() if draw(st.booleans()) else None


def z_matrix(draw, n):
    """``None``, or 1-3 columns of valid levels or of any ints."""
    k = draw(st.integers(0, 3))
    if k == 0:
        return None
    elements = draw(st.sampled_from([ints, levels]))
    return np.column_stack([int_col(draw, n, elements) for _ in range(k)])


@st.composite
def samples(draw):
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(1, 2**62), min_size=n, max_size=n, unique=True))
    pi = float_col(draw, n, st.floats(1e-300, 1.0))
    return ProbabilitySample(
        unit_ids=np.array(ids, np.int64),
        d=1.0 / pi,
        pi=pi,
        joint_pi=None,
        N=2**62,
        y=maybe(draw, lambda: float_col(draw, n)),
        y_star=maybe(draw, lambda: float_col(draw, n)),
        delta=maybe(draw, lambda: int_col(draw, n, counts)),
        z=z_matrix(draw, n),
    )


@st.composite
def big_extracts(draw):
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(1, 2**62), min_size=n, max_size=n, unique=True))
    return BigSample(
        unit_ids=np.array(ids, np.int64),
        values=float_col(draw, n),
        multiplicity=int_col(draw, n, st.integers(1, 2**62)),
        N=2**62,
        z=z_matrix(draw, n),
    )


@st.composite
def label_sets(draw):
    """``(ids, p_hat, delta_hat)`` with few distinct ``p_hat`` values,
    ``-0.0`` and ``0.0`` among them."""
    n = draw(st.integers(0, 30))
    p_hat = np.array(
        draw(st.permutations([-0.0, 0.0, *draw(st.lists(few_floats, min_size=n, max_size=n))]))
    )
    ids = draw(st.lists(ints, min_size=n + 2, max_size=n + 2, unique=True))
    return np.array(ids, np.int64), p_hat, (p_hat > 0.5).astype(np.int64)


def reference_bytes(columns: dict, n: int) -> bytes:
    """What the format promises: one ``csv.writer`` row per unit, floats
    by ``repr``, ints by ``str``, an absent column empty."""

    def cell(col, i):
        if col is None:
            return ""
        if col.dtype.kind == "f":
            return repr(float(col[i]))
        return str(int(col[i]))

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for i in range(n):
        writer.writerow([cell(col, i) for col in columns.values()])
    return buf.getvalue().encode()


def z_layout(z) -> dict:
    k = 0 if z is None else z.shape[1]
    return {f"z{j + 1}": z[:, j] for j in range(k)}


def assert_read_back(read, path, original, names):
    """``read(path)`` gives ``original``'s columns ``names`` bit for bit, or,
    where ``original.z`` holds a level below 1, the reader's error naming
    the first such column."""
    z = original.z
    if z is not None and (z < 1).any():
        k = int(np.flatnonzero((z < 1).any(axis=0))[0])
        message = f"column 'z{k + 1}' holds {z[:, k].min()}; z levels start at 1"
        with pytest.raises(ValueError) as excinfo:
            read(path)
        assert str(excinfo.value) == f"{path}: {message}"
    else:
        assert_same(read(path), original, names)


def assert_same(back, original, names):
    for name in names:
        a, b = getattr(back, name), getattr(original, name)
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


@settings(max_examples=150, deadline=None)
@given(samples())
# z is drawn from ints, so the sample writer still meets negative ints
@example(ProbabilitySample(
    unit_ids=np.array([1, 2]), d=np.full(2, 2.0), pi=np.full(2, 0.5), joint_pi=None,
    N=4, delta=np.array([0, 2**63 - 1]), z=np.array([[-1, -(2**63)], [-10, 10**18]]),
))
def test_sample_round_trip_is_bit_exact(sample):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "sample.csv")
        write_sample_csv(path, sample)
        written = path.read_bytes()
        assert_read_back(functools.partial(read_sample_csv, N=sample.N), path, sample,
                         ("unit_ids", "d", "pi", "y", "y_star", "delta", "z"))
    layout = {
        "id": sample.unit_ids, "d": sample.d, "pi": sample.pi, "y": sample.y,
        "y_star": sample.y_star, "delta": sample.delta, **z_layout(sample.z),
    }
    assert written == reference_bytes(layout, sample.n)


# a strategy check takes the first draw that shows the property: shrinking
# it, as find does by default, took from under 1 s to 40 s
ANY_DRAW = settings(database=None, phases=(Phase.generate,))


def test_sample_strategy_still_draws_negative_ints():
    """``delta`` is drawn non-negative, so ``z`` is the sample column that
    takes negative ints through the writer."""
    sample = find(samples(), lambda s: s.z is not None and (s.z < 0).any(), settings=ANY_DRAW)
    assert (sample.z < 0).any()


@pytest.mark.parametrize("draws", [samples(), big_extracts()], ids=["sample", "big"])
def test_strategies_still_draw_z_that_reads_back(draws):
    """Half the z matrices hold valid levels only, so the z columns are
    read back, not just refused."""
    found = find(draws, lambda s: s.z is not None and (s.z >= 1).all(), settings=ANY_DRAW)
    assert (found.z >= 1).all()


@settings(max_examples=150, deadline=None)
@given(big_extracts())
def test_big_data_round_trip_is_bit_exact(big):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "big.csv")
        write_big_data_csv(path, big)
        written = path.read_bytes()
        assert_read_back(functools.partial(read_big_data_csv, N=big.N), path, big,
                         ("unit_ids", "values", "multiplicity", "z"))
    layout = {
        "id": big.unit_ids, "y": big.values, **z_layout(big.z),
        "multiplicity": big.multiplicity,
    }
    assert written == reference_bytes(layout, len(big))


def edge_labels(ids):
    """``(ids, p_hat, delta_hat)`` for fixed ids, ``p_hat`` all signed zeros."""
    ids = np.array(ids, np.int64)
    return ids, np.where(ids % 2 == 0, 0.0, -0.0), ids % 2


@settings(max_examples=150, deadline=None)
@given(label_sets())
@example(edge_labels([0, 9, 10, 10**18 - 1]))  # the widest digit grid
@example(edge_labels([10**18, 1]))  # one cell too wide for it
@example(edge_labels([-1, 0]))
@example(edge_labels([-(2**63), 2**63 - 1]))
def test_labels_round_trip_keeps_signed_zeros(labels):
    ids, p_hat, delta_hat = labels
    layout = {"id": ids, "p_hat": p_hat, "delta_hat": delta_hat}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "labels.csv")
        write_labels_csv(path, ids, p_hat, delta_hat)
        written = path.read_bytes()
        table = _read_columns(path, layout)
        back = {name: table[name] for name in layout}
    assert written == reference_bytes(layout, ids.size)
    for name, col in layout.items():
        assert back[name].dtype == col.dtype and back[name].tobytes() == col.tobytes(), name


@pytest.mark.parametrize("kind", ["labels", "sample", "distinct", "distinct-then-repeated"])
def test_file_longer_than_one_block_matches_reference(tmp_path, kind):
    """70,000 rows cross a block boundary; the bytes must still be one
    ``csv.writer`` row per unit.  Floats repeat a few values, take a new
    value on every row, or switch from the one to the other at the block
    boundary."""
    n = 70_000
    assert n > _BLOCK_ROWS
    rng = np.random.default_rng(6)
    ids = np.arange(1, n + 1, dtype=np.int64) * 3
    pool = np.concatenate([[-0.0, 0.0, 5e-324, -1e308], rng.normal(size=196)])
    values = pool[rng.integers(0, pool.size, n)]
    if kind == "distinct":
        values = rng.normal(size=n)
    elif kind == "distinct-then-repeated":
        values[:_BLOCK_ROWS] = rng.normal(size=_BLOCK_ROWS)
    path = tmp_path / f"{kind}.csv"
    if kind != "sample":
        layout = {"id": ids, "p_hat": values, "delta_hat": (values > 0.5).astype(np.int64)}
        write_labels_csv(path, *layout.values())
    else:
        z = rng.integers(1, 21, size=(n, 2))
        sample = ProbabilitySample(
            unit_ids=ids, d=np.full(n, 4.0), pi=np.full(n, 0.25), joint_pi=None,
            N=4 * n, y=values, y_star=None, delta=rng.integers(0, 2, n), z=z,
        )
        write_sample_csv(path, sample)
        layout = {
            "id": ids, "d": sample.d, "pi": sample.pi, "y": values, "y_star": None,
            "delta": sample.delta, **z_layout(z),
        }
    assert path.read_bytes() == reference_bytes(layout, n)
    table = _read_columns(path, (), layout, z=False)
    for name, col in layout.items():
        back = table[name]
        if col is None:
            assert back is None, name
        else:
            assert back.dtype == col.dtype and back.tobytes() == col.tobytes(), name
