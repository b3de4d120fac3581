"""CSV and text serialisation for samples, big-data extracts, and results.

All tabular formats are plain CSV with a header row.  A reader names the
columns it uses, and no other column is parsed: one ``np.loadtxt`` pass
over every column reads them, a big-data extract read for classification
leaving its value column out, and copies the others as text.  A column
empty in the first data row, or a fault, adds one ``csv.reader`` scan,
which names the first fault by data row.  A table of arrays is written
in blocks of rows, so a write takes bounded memory however long the file
is, and each block is assembled as bytes in NumPy;
the one-row estimate and summary tables go through ``csv.writer``.  A
column's type follows from its name: ``id``, ``delta``, ``multiplicity``,
``delta_hat`` and ``z1..zK`` hold int64, every other numeric column
float64.  Floats are written as ``repr``'s shortest round-trip text, so a
write/read cycle reproduces the array bit for bit: computed in NumPy for
``1e-4 <= |x| < 1e15`` and by ``repr`` elsewhere.

An optional column is either absent or empty on every row, and comes
back as ``None``; one that is empty on some rows only is an error.  A
byte-order mark is skipped.  The readers reject repeated column names,
non-finite floats, repeated ids in a sample or big-data file, z levels
below 1, a row shorter or longer than the header and a file with no data
rows, naming file and column or data row.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import re
import sys
from pathlib import Path

import numpy as np

from .classifier import ClassifierModel
from .estimators import EstimateReport
from .population import (
    BigSample,
    EmptyPopulationError,
    ProbabilitySample,
    SRSJointInclusion,
    _equal_pi,
    _read_only,
)

__all__ = [
    "write_sample_csv",
    "read_sample_csv",
    "write_big_data_csv",
    "read_big_data_csv",
    "write_labels_csv",
    "write_estimate_csv",
    "write_classifier_model",
    "read_classifier_model",
    "write_summary_csv",
]

_INT_COLUMNS = {"id", "delta", "multiplicity", "delta_hat"}
_is_z = re.compile(r"z\d+").fullmatch  # z1, z2, ...: categorical covariates


# rows formatted and written at a time: large enough that NumPy does the
# per-row work, small enough that a block's bytes stay a few MB
_BLOCK_ROWS = 1 << 16

# a float block is probed at about this many evenly spaced rows to decide
# whether formatting each distinct value once pays for the np.unique
_PROBE_ROWS = 512

# floats formatted at a time by _shortest_cells: its temporaries stay
# near 100 kB each
_CHUNK = 1 << 14

# 10^0..10^20 in float64, each exact, and their Dekker splits: the high
# 26 bits and the rest
_POW10 = np.array([10**k for k in range(21)], np.float64)
_SPLIT = 2.0**27 + 1
_POW10_HIGH = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LOW = _POW10 - _POW10_HIGH

# a rounding whose residual lies this close to a tie or to the round-trip
# bound, in units of the 17th digit, is left to repr; the residuals carry
# errors near 1e-14
_MARGIN = 1e-9

# a word holding the sign, and one holding a lone zero
_MINUS, _ZERO = np.frombuffer(b"\0\0\0-0\0\0\0", np.uint32)


@functools.cache
def _words() -> tuple:
    """``(lead, trail, point, head)``: text as ``uint32`` words of four
    ASCII bytes in memory order, built on the first write.

    ``lead`` and ``trail`` hold 0000..9999, ``point`` 000..999 and a point;
    each holds every digit, then again with the leading zeros (the last
    digit stays) or the trailing zeros NUL, and ``lead`` ends in one
    all-NUL word.  ANDed with a word, ``head[20 + b]`` makes its first
    ``b`` bytes NUL, ``b`` clipped to 0..4.
    """
    n = np.arange(10_000)[:, None]
    place = 10 ** np.arange(3, -1, -1)
    text = (n // place % 10 + ord("0")).astype(np.uint8)
    lead = (n >= place) | (place == 1)
    point = np.column_stack([text[:1000, 1:], np.full(1000, ord("."), np.uint8)])
    point_lead = np.column_stack([lead[:1000, 1:], np.ones(1000, bool)])
    return tuple(np.asarray(t, np.uint8).view(np.uint32).ravel() for t in (
        np.concatenate([text, text * lead, np.zeros((1, 4))]),
        np.concatenate([text, text * (n % (10 * place) != 0)]),
        np.concatenate([point, point * point_lead]),
        255 * (np.arange(4) >= np.arange(-20, 25)[:, None]),
    ))


def _text_cells(text) -> np.ndarray:
    """ASCII strings as a rows x width ``uint8`` matrix padded with NULs."""
    cells = np.array(text, dtype="S")
    return cells.view(np.uint8).reshape(cells.size, cells.itemsize)


def _whole_words(values: np.ndarray, point: bool, out: np.ndarray) -> None:
    """Write non-negative int64 ``values`` into the ``uint32`` words of
    ``out``, right-aligned with leading zeros NUL; with ``point`` each is
    followed by a point.

    The last word holds the last four digits, or three and the point, and
    each word before it four more; a word that no digit stands before is
    trimmed, and one with no digit before or in it is NUL.
    """
    lead, _, table, _ = _words()
    table, size = (table, 1000) if point else (lead, 10_000)
    if out.shape[1] == 1:  # every value is below size
        out[:, 0] = np.take(table, values + size)
        return
    rest = values // size
    out[:, -1] = np.take(table, values - rest * size + size * (values < size))
    for j in range(out.shape[1] - 2, -1, -1):
        group = rest
        rest = rest // 10_000
        group = group - 10_000 * rest
        size *= 10_000  # past int64 only above 10^18, where every value lies below it
        row = np.add(values < min(size, 10**18), values < size // 10_000, dtype=np.intp)
        out[:, j] = np.take(lead, group + 10_000 * row)


def _int_cells(block: np.ndarray) -> np.ndarray:
    """``str`` of each int64 as a :func:`_text_cells` matrix: integers in
    0..10^18-1 by :func:`_whole_words`, any other block by ``str``."""
    if block.min() < 0 or block.max() >= 10**18:
        return _text_cells(list(map(str, block.tolist())))
    digits = len(str(block.max()))
    words = np.empty((block.size, (digits + 3) // 4), np.uint32)
    _whole_words(block, False, words)
    return words.view(np.uint8)[:, 4 * words.shape[1] - digits:]


def _shortest_digits(values: np.ndarray):
    """Each float's shortest round-trip digits, as ``repr`` picks them.

    Returns ``(whole, fraction, k, fast)``: for a fast value ``x``, its
    shortest digits read ``|x| = whole + fraction * 10^-k``, and its
    fraction's text is ``fraction``'s ``k`` digits, left-padded with zeros,
    less their trailing zeros.  A value is fast when finite with
    ``1e-4 <= |x| < 1e15``, its mantissa is not a power of two, and no
    rounding below lies within :data:`_MARGIN` of a tie or of the
    round-trip bound; any other value's ``whole``, ``fraction`` and ``k``
    are 0, and its text is ``repr``'s to give.

    One exact Dekker product gives ``|x| * 10^k = n17 + r17``, with ``k``
    putting 17 digits before the point, ``n17`` an integer and
    ``|r17| <= 1/2``; the 15- and 16-digit roundings and their residuals
    follow from ``n17``'s last digits.  The shortest rounding whose
    residual is below half an ulp of ``x``, scaled by 10^k, reads back as
    ``x``: no two decimals of 15 digits or fewer read back as one double,
    so a passing 15-digit rounding is the shortest text once its trailing
    zeros go, and a passing 16- or 17-digit one is the nearest of its
    length.
    """
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e15)  # False for NaN
    a[~fast] = 1.0  # before any cast to int
    mantissa, exponent = np.frexp(a)
    k = np.minimum(16 - np.floor(np.log10(a)).astype(np.int64), 20)
    product = a * _POW10[k]
    high = _SPLIT * a
    high -= high - a
    low = a - high
    error = (high * _POW10_HIGH[k] - product) + high * _POW10_LOW[k] + low * _POW10_HIGH[k]
    error += low * _POW10_LOW[k]
    # log10 can miss by one next to a power of ten, leaving k one off
    fast &= (product >= 1e16) & (product < 1e17) & (mantissa != 0.5)
    product[~fast] = 1e16
    nearest = np.rint(error)
    n17 = product.astype(np.int64) + nearest.astype(np.int64)
    r17 = error - nearest
    half = np.ldexp(_POW10[k], exponent - 54)  # 10^k ulp(x) / 2
    digits = np.zeros_like(n17)
    done = np.zeros(a.size, bool)
    for unit in (100, 10, 1):  # shortest first
        q = n17 // unit
        excess = n17 - q * unit + r17  # |x| 10^k - q unit, in -1/2..unit - 1/2
        up = excess > unit / 2
        size = np.abs(excess - unit * up)
        passes = size < half
        # a tie matters only when both neighbours read back as x
        unclear = (np.abs(size - half) < _MARGIN) | (np.abs(size - unit / 2) < _MARGIN) & passes
        fast &= done | ~unclear
        digits = np.where(done | ~passes, digits, (q + up) * unit)
        done |= passes
    fast &= done
    k[~fast] = 0
    digits[~fast] = 0
    unit = 10 ** np.minimum(k, 18)
    whole = digits // unit
    return whole, digits - whole * unit, k, fast


def _shortest_cells(block: np.ndarray) -> np.ndarray:
    """``repr`` of each float as a :func:`_text_cells` matrix.

    The fast values of :func:`_shortest_digits`, found ``_CHUNK`` at a
    time, are written as ``uint32`` words: a sign word when the block holds
    a negative value, the digits before the point and the point
    (:func:`_whole_words`), and the fraction, its bytes before its ``k``
    digits and its trailing zeros NUL.  The other values go through
    ``repr``, as does every value where ``repr`` is not the shortest round
    trip.
    """
    if sys.float_repr_style != "short":
        return _text_cells(list(map(repr, block.tolist())))
    whole, fraction, k, fast = map(np.concatenate, zip(*(
        _shortest_digits(block[start:start + _CHUNK]) for start in range(0, block.size, _CHUNK)
    )))
    if not fast.any():
        return _text_cells(list(map(repr, block.tolist())))
    negative = np.signbit(block)
    sign = int(negative.any())
    digits = len(str(whole.max()))
    point = sign + (digits + 4) // 4
    words = np.empty((block.size, point + (int(k.max()) + 3) // 4), np.uint32)
    words[:, 0] = np.where(negative, _MINUS, 0)  # overwritten when no sign
    _whole_words(whole, True, words[:, sign:point])
    _, trail, _, head = _words()
    width, rest = 4 * (words.shape[1] - point), fraction
    trailing = np.ones(block.size, bool)  # no digit after the word is non-zero
    for j in range(words.shape[1] - point - 1, -1, -1):
        group = rest
        rest = rest // 10_000
        group = group - 10_000 * rest
        words[:, point + j] = np.take(trail, group + 10_000 * trailing)
        words[:, point + j] &= np.take(head, width + 20 - 4 * j - k)
        trailing &= group == 0
    words[fraction == 0, point] = _ZERO
    cells = words.view(np.uint8)[:, 3 if sign else 4 * point - digits - 1:]  # cut common NULs
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = _text_cells(list(map(repr, block[slow].tolist())))
        if text.shape[1] > cells.shape[1]:
            cells = np.pad(cells, ((0, 0), (0, text.shape[1] - cells.shape[1])))
        cells[slow] = 0
        cells[slow, :text.shape[1]] = text
    return cells


def _float_cells(block: np.ndarray) -> np.ndarray:
    """``repr`` of each float as a :func:`_text_cells` matrix.

    When a strided probe of the block finds at least a quarter of its
    values repeated, each distinct value is formatted once by ``repr``;
    otherwise each row is, by :func:`_shortest_cells`.  Values are told
    apart by bit pattern, so ``-0.0`` and ``0.0`` keep their own text.
    """
    bits = block.view(np.int64)
    probe = np.sort(bits[:: max(1, block.size // _PROBE_ROWS)])
    if 4 * np.count_nonzero(probe[1:] == probe[:-1]) < probe.size:
        return _shortest_cells(block)
    keys, inverse = np.unique(bits, return_inverse=True)
    return _text_cells(list(map(repr, keys.view(np.float64).tolist())))[inverse.ravel()]


def _write_table(path, columns: dict) -> None:
    """Write ``{name: column}`` as CSV, one row per entry.

    A column is a float64 or integer array, or ``None`` for a column left
    empty on every row.  Rows go out in blocks of ``_BLOCK_ROWS``: each
    column of a block becomes a NUL-padded ``uint8`` matrix of its cells,
    the matrices are stacked side by side with the separators, and the
    NULs are dropped.  Numbers never need quoting, so the bytes are those
    of one ``csv.writer`` row per entry.
    """
    n = max(len(col) for col in columns.values() if col is not None)
    seps = [b","] * (len(columns) - 1) + [b"\r\n"]  # csv.writer's line terminator
    with open(path, "wb") as fh:
        fh.write(",".join(columns).encode() + b"\r\n")
        for start in range(0, n, _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, n - start)
            parts = []
            for col, sep in zip(columns.values(), seps):
                if col is not None:
                    block = col[start:start + rows]
                    cells = _float_cells if block.dtype.kind == "f" else _int_cells
                    parts.append(cells(block))
                parts.append(np.broadcast_to(np.frombuffer(sep, np.uint8), (rows, len(sep))))
            table = np.hstack(parts).ravel()
            fh.write(table[table != 0])


def _write_cells(path, columns: dict) -> None:
    """Write ``{name: list of cells}`` through ``csv.writer``, which
    formats each cell and quotes where it must."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*columns.values(), strict=True))


def _read_columns(path, required, optional=(), z=True) -> dict:
    """The columns a reader uses, by name: each int64 or float64 by name,
    read-only, and checked finite and, for ``z1..zK``, at least 1.

    A ``required`` column must be present; an ``optional`` one absent or
    empty on every row comes back as ``None``.  With ``z`` the file's
    ``z1..zK`` columns follow, required, in numeric order.  No other
    column is parsed.  One structured ``np.loadtxt`` pass holds every
    column of the file, so a row with more or fewer fields than the header
    fails it; it parses the columns non-empty in the first data row and
    copies each other column as one character of text.  Any other column
    the reader uses, and every one when that pass fails, goes through one
    :func:`_scan`.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:  # skips a byte-order mark
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        first = next(filter(None, reader), None)  # blank lines hold no row
        if first is None:
            raise EmptyPopulationError(f"{path}: no data rows")
    names = [name.strip() for name in header]
    index = {name: j for j, name in enumerate(names)}
    if len(index) < len(names):
        # the index keeps a name's last position, so the first name whose
        # position differs is the first repeated one
        repeated = next(n for j, n in enumerate(names) if index[n] != j)
        raise ValueError(f"{path}: column {repeated!r} appears more than once")
    for name in required:
        if name not in index:
            raise ValueError(f"{path}: missing column {name!r}")
    wanted = [*required, *(name for name in optional if name in index)]
    if z:
        wanted += sorted(filter(_is_z, names), key=lambda name: int(name[1:]))
    dtypes = {n: np.int64 if n in _INT_COLUMNS or _is_z(n) else np.float64 for n in wanted}
    present = [n for n in wanted if index[n] < len(first) and first[index[n]]]
    columns, error = {}, None
    if present:
        # a column not parsed is copied as U1: S1 fails on a character
        # outside Latin-1, in a column the reader does not use
        parsed = {index[n]: dtypes[n] for n in present}
        try:
            records = np.loadtxt(
                path, delimiter=",", skiprows=1, comments=None, quotechar='"', ndmin=1,
                dtype=[(f"c{j}", parsed.get(j, "U1")) for j in range(len(names))],
            )
        except ValueError as exc:
            error = exc
        else:
            columns = {n: np.ascontiguousarray(records[f"c{index[n]}"]) for n in present}
    if len(columns) < len(wanted):
        empty = _scan(path, [n for n in wanted if n not in columns], index, dtypes, optional)
        if error is not None:
            raise ValueError(f"{path}: {error}") from error
        columns.update(dict.fromkeys(empty))
    for name in wanted:
        values = columns[name]
        if values is None:
            continue
        if values.dtype.kind == "f" and not np.isfinite(values).all():
            row = np.flatnonzero(~np.isfinite(values))[0] + 1
            raise ValueError(f"{path}: column {name!r} holds a non-finite value in data row {row}")
        if _is_z(name) and (low := values.min()) < 1:
            raise ValueError(f"{path}: column {name!r} holds {low}; z levels start at 1")
        values.setflags(write=False)
    return {name: columns[name] for name in wanted}


def _parse(text: str, dtype):
    """``text`` as a ``dtype`` scalar, read as ``np.loadtxt`` reads a cell;
    else a ``ValueError`` saying it ``holds {text!r}, which is not a
    number`` (or ``an integer``)."""
    cell = text.strip()
    try:  # Python's parse also takes "1_5" and non-ASCII digits; loadtxt does not
        if cell.isascii() and "_" not in cell:
            return dtype(cell)
    except (ValueError, OverflowError):
        pass
    kind = "an integer" if dtype is np.int64 else "a number"
    raise ValueError(f"holds {text!r}, which is not {kind}")


def _length(k: int, row: list, fields: int) -> str:
    """The fault of data row ``k``, ``row``, whose field count is not the
    header's ``fields``."""
    return f"data row {k} has {len(row)} field{'' if len(row) == 1 else 's'}; the header has {fields}"


def _scan(path, names, index, dtypes, optional) -> list:
    """One ``csv.reader`` pass over columns ``names`` of a file.

    The first row short of one of them or cell that is not a number, by
    data row and then in ``names``' order, and then a row whose field count
    is not the header's, is a ``ValueError``; so is, after the pass, a
    column empty on some rows only, or on every row unless it is
    ``optional``.  Otherwise returns the columns empty on every row.
    """
    blank = dict.fromkeys(names, 0)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        fields = len(next(reader))
        for k, row in enumerate(filter(None, reader), 1):  # blank lines hold no row
            for name in names:
                j = index[name]
                if len(row) <= j:
                    raise ValueError(f"{path}: column {name!r}: {_length(k, row, fields)}")
                if row[j] == "":
                    blank[name] += 1
                    continue
                try:
                    _parse(row[j], dtypes[name])
                except ValueError as exc:
                    raise ValueError(f"{path}: column {name!r}: data row {k} {exc}") from None
            if len(row) != fields:
                raise ValueError(f"{path}: {_length(k, row, fields)}")
    for name in names:
        if blank[name] and (blank[name] < k or name not in optional):
            fault = "is empty" if blank[name] == k else "mixes present and missing values"
            raise ValueError(f"{path}: column {name!r} {fault}")
    return [name for name in names if blank[name] == k]


@contextlib.contextmanager
def _named(path):
    """Prefix ``{path}: `` to a ``ValueError`` raised inside, so that a data
    class's error about a column says which file holds it."""
    try:
        yield
    except ValueError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _z_columns(z) -> dict:
    """``{"z1": z[:, 0], ...}``, the columns :func:`_stacked_z` stacks back."""
    return {} if z is None else {f"z{j + 1}": col for j, col in enumerate(z.T)}


def _stacked_z(columns: dict) -> np.ndarray | None:
    """The ``z1..zK`` columns of a :func:`_read_columns` result, stacked in
    their order there and read-only, or ``None`` when it has none."""
    z = [values for name, values in columns.items() if _is_z(name)]
    return _read_only(np.column_stack(z)) if z else None


def write_sample_csv(path, sample: ProbabilitySample) -> None:
    """Write a sample as ``id,d,pi,y,y_star,delta`` plus any z columns."""
    _write_table(path, {
        "id": sample.unit_ids, "d": sample.d, "pi": sample.pi, "y": sample.y,
        "y_star": sample.y_star, "delta": sample.delta, **_z_columns(sample.z),
    })


def read_sample_csv(path, N: int | None = None) -> ProbabilitySample:
    """Read a sample written by :func:`write_sample_csv`.

    When every inclusion probability equals ``n / N`` the joint
    probabilities of simple random sampling are attached, which enables
    exact variance computation downstream.  ``N`` defaults to the
    rounded sum of the design weights; every id must lie in ``1..N``.
    """
    columns = _read_columns(path, ("id", "d", "pi"), ("y", "y_star", "delta"))
    ids, d, pi = columns["id"], columns["d"], columns["pi"]
    n = ids.size
    if N is None:
        N = int(round(float(d.sum())))
    # N below n is no design at all; ProbabilitySample names the fault
    srs = N >= n and _equal_pi(pi, N)
    with _named(path):
        return ProbabilitySample(
            unit_ids=ids,
            d=d,
            pi=pi,
            joint_pi=SRSJointInclusion(n=n, N=N) if srs else None,
            N=N,
            design="srs" if srs else "generic",
            y=columns.get("y"),
            y_star=columns.get("y_star"),
            delta=columns.get("delta"),
            z=_stacked_z(columns),
        )


def write_big_data_csv(path, big: BigSample) -> None:
    """Write a big-data extract as ``id,y,z1..zK,multiplicity``."""
    _write_table(path, {
        "id": big.unit_ids, "y": big.values, **_z_columns(big.z),
        "multiplicity": big.multiplicity,
    })


def read_big_data_csv(path, N: int, *, values: bool = True, z: bool = True) -> BigSample:
    """Read a big-data extract.

    The value column is ``y`` when present and non-empty, else
    ``y_star`` (a proxy-valued source); each is read and checked when
    present.  With ``values=False`` neither is
    read or checked, and the extract's ``values`` is ``None``: a caller
    that uses only ids, ``z`` and multiplicities skips parsing the one
    float column.  With ``z=False`` the ``z1..zK`` columns are likewise
    neither read nor checked, and ``z`` is ``None``.  ``multiplicity``
    defaults to one per row.  ``N`` is the universe size the extract was
    drawn from, which the file itself cannot know.
    """
    optional = ("y", "y_star", "multiplicity") if values else ("multiplicity",)
    columns = _read_columns(path, ("id",), optional, z=z)
    ids, multiplicity = columns["id"], columns.get("multiplicity")
    value_col = columns.get("y")
    if value_col is None:
        value_col = columns.get("y_star")
    if values and value_col is None:
        raise ValueError(f"{path}: needs a non-empty 'y' or 'y_star' column")
    with _named(path):
        return BigSample(
            unit_ids=ids,
            values=value_col,
            multiplicity=np.ones(ids.size, np.int64) if multiplicity is None else multiplicity,
            N=N,
            z=_stacked_z(columns),
        )


def write_labels_csv(path, unit_ids, p_hat, delta_hat) -> None:
    """Write classification output as ``id,p_hat,delta_hat``.

    A column that is not 1-D, or not as long as ``id``, is a ``ValueError``
    naming it, raised before the file is opened.
    """
    columns = {
        "id": np.asarray(unit_ids, np.int64),
        "p_hat": np.asarray(p_hat, np.float64),
        "delta_hat": np.asarray(delta_hat, np.int64),
    }
    rows = columns["id"].shape
    for name, col in columns.items():
        if col.ndim != 1 or col.shape != rows:
            raise ValueError(
                f"{path}: column {name!r} has shape {col.shape}; labels need one 1-D row per id"
            )
    _write_table(path, columns)


def write_estimate_csv(path, report: EstimateReport) -> None:
    """Write one estimate as a one-row CSV; an absent variance is empty."""
    _write_cells(path, {
        "estimator": [report.estimator], "total": [report.total],
        "mean": [report.mean], "variance": [report.variance],
        "population_size": [report.population_size],
        "controls": [report.controls], "notes": ["; ".join(report.notes)],
    })


def write_classifier_model(path, model: ClassifierModel) -> None:
    """Dump a fitted mixture as readable ``key=value`` lines."""
    lines = [f"pi={model.pi!r}", f"levels={','.join(map(str, model.levels))}"]
    for name, tables in (("m", model.m), ("u", model.u)):
        for k, table in enumerate(tables):
            joined = ",".join(repr(float(v)) for v in table)
            lines.append(f"{name}{k + 1}={joined}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_classifier_model(path) -> ClassifierModel:
    """Read a mixture written by :func:`write_classifier_model`.

    Every fault is a ``ValueError`` that names the file, and the line or
    key at fault: a line that is not ``key=value``, a repeated or missing
    key, a key the model does not use (``pi``, ``levels`` and ``m1``,
    ``u1`` up to one table pair per ``levels`` entry are used), an entry
    that is not a number, a table whose length is not its ``levels``
    entry, and the faults :class:`ClassifierModel` finds.
    """
    values = {}
    for k, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"{path}: line {k} is not 'key=value': {line!r}")
        if key in values:
            raise ValueError(f"{path}: key {key!r} appears more than once")
        values[key] = rest.strip()

    def entry(key):
        if key not in values:
            raise ValueError(f"{path}: missing key {key!r}")
        return values[key]

    def numbers(key, texts, dtype=np.float64):
        try:
            return [_parse(text, dtype) for text in texts]
        except ValueError as exc:
            raise ValueError(f"{path}: {key} {exc}") from None

    levels = tuple(int(v) for v in numbers("levels", entry("levels").split(","), np.int64))
    used = ["pi", "levels", *(f"{name}{k}" for k in range(1, len(levels) + 1) for name in "mu")]
    unused = next((key for key in values if key not in used), None)
    if unused is not None:
        raise ValueError(f"{path}: key {unused!r} is not one of {', '.join(used)}")

    def tables(name):
        out = []
        for k, level in enumerate(levels):
            key = f"{name}{k + 1}"
            table = np.array(numbers(key, entry(key).split(",")))
            if table.size != level:
                raise ValueError(
                    f"{path}: {key} has {table.size} entries, but levels gives {level}"
                )
            out.append(table)
        return tuple(out)

    (pi,) = numbers("pi", [entry("pi")])
    m, u = tables("m"), tables("u")
    with _named(path):
        return ClassifierModel(pi=float(pi), m=m, u=u)


def write_summary_csv(path, rows: list[dict]) -> None:
    """Write Monte Carlo summary rows produced by ``summary_rows``: their
    keys, in their order, are the columns."""
    _write_cells(path, {col: [row[col] for row in rows] for col in rows[0]})
