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
float64.  Floats are written with ``repr`` so a write/read
cycle reproduces the array bit for bit.

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
import re
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


def _text_cells(text) -> np.ndarray:
    """ASCII strings as a rows x width ``uint8`` matrix padded with NULs."""
    cells = np.array(text, dtype="S")
    return cells.view(np.uint8).reshape(cells.size, cells.itemsize)


def _int_cells(block: np.ndarray) -> np.ndarray:
    """``str`` of each int64 as a :func:`_text_cells` matrix.

    Integers in 0..10^18-1 give up one digit per ``// 10`` over the
    column, right to left; a position whose remaining quotient is 0 is a
    leading zero, NUL.  Any other block goes through ``str``.
    """
    if block.min() < 0 or block.max() >= 10**18:
        return _text_cells(list(map(str, block.tolist())))
    cells = np.empty((len(str(block.max())), block.size), np.uint8)  # returned transposed
    q = block
    for j, row in enumerate(cells[::-1]):
        rest = q // 10
        np.subtract(q, 10 * rest, out=row, casting="unsafe")
        row += ord("0")
        if j:
            row[q == 0] = 0  # a 0 keeps its last digit
        q = rest
    return cells.T


def _float_cells(block: np.ndarray) -> np.ndarray:
    """``repr`` of each float as a :func:`_text_cells` matrix.

    When a strided probe of the block finds at least a quarter of its
    values repeated, each distinct value is formatted once; otherwise each
    row is.  Values are told apart by bit pattern, so ``-0.0`` and ``0.0``
    keep their own text.
    """
    bits = block.view(np.int64)
    probe = np.sort(bits[:: max(1, block.size // _PROBE_ROWS)])
    if 4 * np.count_nonzero(probe[1:] == probe[:-1]) < probe.size:
        return _text_cells(list(map(repr, block.tolist())))
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
    """Write classification output as ``id,p_hat,delta_hat``."""
    _write_table(path, {
        "id": np.asarray(unit_ids, np.int64),
        "p_hat": np.asarray(p_hat, np.float64),
        "delta_hat": np.asarray(delta_hat, np.int64),
    })


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
