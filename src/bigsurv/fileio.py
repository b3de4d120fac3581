"""CSV and text serialisation for samples, big-data extracts, and results.

All tabular formats are plain CSV with a header row.  A file is read in
one pass over the columns its reader uses, where it can be; a big-data
extract read for classification leaves its value column out.  A table of
arrays is written in blocks of rows, so a write takes bounded memory
however long the file is, and each block is assembled as bytes in NumPy;
the one-row estimate and summary tables go through ``csv.writer``.  A
column's type follows from its name: ``id``, ``delta``, ``multiplicity``,
``delta_hat`` and ``z1..zK`` hold int64, every other numeric column
float64.  Floats are written with ``repr`` so a write/read
cycle reproduces the array bit for bit.

An optional column is either absent or empty on every row, and comes
back as ``None``; one that is empty on some rows only is an error.  A
byte-order mark is skipped.  The readers reject repeated column names,
non-finite floats, repeated ids in a sample or big-data file, z levels
below 1, short rows and a file with no data rows, naming file and column.
"""

from __future__ import annotations

import contextlib
import csv
import functools
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


class _Table:
    """A headered CSV file, read in one pass where it can be.

    The constructor reads every column that is non-empty in the first
    data row, except those named in ``skip`` and, with ``z=False``, the
    ``z1..zK`` columns, with one structured ``np.loadtxt`` pass.  A column
    left out of it, or every column when that pass fails, is read on its
    own when asked for, which tells an all-empty optional column from a
    bad one and names the column at fault.
    """

    def __init__(self, path, skip=(), z=True):
        self.path = path
        with open(path, newline="", encoding="utf-8-sig") as fh:  # skips a byte-order mark
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            first = next(filter(None, reader), None)  # blank lines hold no row
            if first is None:
                raise EmptyPopulationError(f"{path}: no data rows")
        self.names = [name.strip() for name in header]
        self._index = {name: j for j, name in enumerate(self.names)}
        if len(self._index) < len(self.names):
            # the index keeps a name's last position, so the first name
            # whose position differs is the first repeated one
            repeated = next(n for j, n in enumerate(self.names) if self._index[n] != j)
            raise ValueError(f"{path}: column {repeated!r} appears more than once")
        z_names = (name for name in self.names if name[:1] == "z" and name[1:].isdigit())
        z_names = sorted(z_names, key=lambda name: int(name[1:]))
        self._z_names = z_names if z else []
        if not z:
            skip = (*skip, *z_names)
        self._read = functools.partial(
            np.loadtxt, path, delimiter=",", skiprows=1, comments=None,
            quotechar='"', ndmin=1,
        )
        self._values = self._read_together(first, skip)

    def _read_together(self, first: list[str], skip) -> dict:
        """Every column non-empty in ``first``, the first data row, and not
        in ``skip``, by one structured pass; ``{}`` when that pass fails."""
        present = sorted(
            (j, name) for name, j in self._index.items()
            if j < len(first) and first[j] != "" and name not in skip
        )
        if not present:
            return {}
        dtype = np.dtype([(f"c{j}", self._dtype(name)) for j, name in present])
        try:
            records = self._read(usecols=[j for j, _ in present], dtype=dtype)
        except ValueError:
            return {}  # column() then reads each column alone and names the fault
        return {name: np.ascontiguousarray(records[f"c{j}"]) for j, name in present}

    def _dtype(self, name: str):
        return np.int64 if name in _INT_COLUMNS or name in self._z_names else np.float64

    def column(self, name: str, optional: bool = False) -> np.ndarray | None:
        """Column ``name``, int64 or float64 by name, and read-only.

        An optional column that is absent or empty on every row comes
        back as ``None``.
        """
        if name not in self._index:
            if optional:
                return None
            raise ValueError(f"{self.path}: missing column {name!r}")
        values = self._values.get(name)
        if values is None:
            values = self._read_alone(name, optional)
            if values is None:
                return None
        if values.dtype.kind == "f" and not np.isfinite(values).all():
            row = np.flatnonzero(~np.isfinite(values))[0] + 1
            raise ValueError(
                f"{self.path}: column {name!r} holds a non-finite value in data row {row}"
            )
        values.setflags(write=False)
        return values

    def _read_alone(self, name: str, optional: bool) -> np.ndarray | None:
        """Column ``name`` by a pass of its own, ``None`` if it is optional
        and empty on every row; else the first fault, found by one
        ``csv.reader`` pass over the column."""
        j, dtype = self._index[name], self._dtype(name)
        try:
            return self._read(usecols=j, dtype=dtype)
        except ValueError as exc:
            error = exc
        at, blank = f"{self.path}: column {name!r}", 0
        kind = "an integer" if dtype is np.int64 else "a number"
        with open(self.path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            fields = len(next(reader))
            for k, row in enumerate(filter(None, reader), 1):  # blank lines hold no row
                if len(row) <= j:
                    raise ValueError(f"{at}: data row {k} has {len(row)} field"
                                     f"{'' if len(row) == 1 else 's'}; the header has {fields}")
                if row[j] == "":
                    blank += 1
                    continue
                try:  # a cell only NumPy refuses ("1_000") gets NumPy's message below
                    dtype(row[j])
                except (ValueError, OverflowError):
                    raise ValueError(
                        f"{at}: data row {k} holds {row[j]!r}, which is not {kind}"
                    ) from None
        if blank == k and optional:
            return None
        if blank:
            fault = "is empty" if blank == k else "mixes present and missing values"
            raise ValueError(f"{at} {fault}")
        raise ValueError(f"{at}: {error}") from error

    def z(self) -> np.ndarray | None:
        """The ``z1..zK`` columns stacked in numeric order, read-only, or
        ``None`` (also for a table read with ``z=False``)."""
        if not self._z_names:
            return None
        columns = [self.column(name) for name in self._z_names]
        for name, col in zip(self._z_names, columns):
            if (low := col.min()) < 1:
                raise ValueError(f"{self.path}: column {name!r} holds {low}; z levels start at 1")
        z = np.column_stack(columns)
        z.setflags(write=False)
        return z


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
    """``{"z1": z[:, 0], ...}``, the columns :meth:`_Table.z` stacks back."""
    return {} if z is None else {f"z{j + 1}": col for j, col in enumerate(z.T)}


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
    table = _Table(path)
    ids = table.column("id")
    d = table.column("d")
    pi = table.column("pi")
    n = ids.size
    if N is None:
        N = int(round(float(d.sum())))
    # N below n is no design at all; ProbabilitySample names the fault
    srs = N >= n and _equal_pi(pi, N)
    columns = {
        name: table.column(name, optional=True) for name in ("y", "y_star", "delta")
    }
    z = table.z()
    with _named(path):
        return ProbabilitySample(
            unit_ids=ids,
            d=d,
            pi=pi,
            joint_pi=SRSJointInclusion(n=n, N=N) if srs else None,
            N=N,
            design="srs" if srs else "generic",
            z=z,
            **columns,
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
    ``y_star`` (a proxy-valued source).  With ``values=False`` neither is
    read or checked, and the extract's ``values`` is ``None``: a caller
    that uses only ids, ``z`` and multiplicities skips parsing the one
    float column.  With ``z=False`` the ``z1..zK`` columns are likewise
    neither read nor checked, and ``z`` is ``None``.  ``multiplicity``
    defaults to one per row.  ``N`` is the universe size the extract was
    drawn from, which the file itself cannot know.
    """
    table = _Table(path, skip=() if values else ("y", "y_star"), z=z)
    ids = table.column("id")
    value_col = None
    if values:
        value_col = table.column("y", optional=True)
        if value_col is None:
            value_col = table.column("y_star", optional=True)
        if value_col is None:
            raise ValueError(f"{path}: needs a non-empty 'y' or 'y_star' column")
    multiplicity = table.column("multiplicity", optional=True)
    z = table.z()
    with _named(path):
        return BigSample(
            unit_ids=ids,
            values=value_col,
            multiplicity=np.ones(ids.size, np.int64) if multiplicity is None else multiplicity,
            N=N,
            z=z,
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

    A missing key, or a table whose length is not its ``levels`` entry,
    is a ``ValueError`` that names the file and the key.
    """
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition("=")
        values[key.strip()] = rest.strip()

    def entry(key):
        if key not in values:
            raise ValueError(f"{path}: missing key {key!r}")
        return values[key]

    levels = tuple(int(v) for v in entry("levels").split(","))

    def tables(name):
        out = []
        for k, level in enumerate(levels):
            key = f"{name}{k + 1}"
            table = np.array([float(v) for v in entry(key).split(",")])
            if table.size != level:
                raise ValueError(
                    f"{path}: {key} has {table.size} entries, but levels gives {level}"
                )
            out.append(table)
        return tuple(out)

    return ClassifierModel(pi=float(entry("pi")), m=tables("m"), u=tables("u"))


def write_summary_csv(path, rows: list[dict]) -> None:
    """Write Monte Carlo summary rows produced by ``summary_rows``."""
    header = ("study", "scenario", "estimator", "bias", "se", "rmse",
              "var_rel_bias", "failures")
    _write_cells(path, {col: [row.get(col, "") for row in rows] for col in header})
