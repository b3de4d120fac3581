"""CSV and text serialisation for populations, samples, and results.

All tabular formats are plain CSV with a header row.  Missing optional
columns are written as empty fields and come back as ``None`` arrays.
Floats are written with ``repr`` so a write/read cycle reproduces the
array bit for bit.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .classifier import ClassifierModel
from .population import (
    BigSample,
    FinitePopulation,
    ProbabilitySample,
    SRSJointInclusion,
)

__all__ = [
    "write_population_csv",
    "read_population_csv",
    "write_sample_csv",
    "read_sample_csv",
    "write_big_data_csv",
    "read_big_data_csv",
    "write_labels_csv",
    "write_classifier_model",
    "read_classifier_model",
    "write_summary_csv",
]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _z_names(k: int) -> list[str]:
    return [f"z{j + 1}" for j in range(k)]


def write_population_csv(path, pop: FinitePopulation) -> None:
    """Write a population as ``id,y,y_star,z1..zK,delta,stratum``."""
    k = 0 if pop.z is None else pop.z.shape[1]
    header = ["id", "y", "y_star", *_z_names(k), "delta", "stratum"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        ids = pop.ids  # the property builds arange(N) on every access
        for i in range(pop.N):
            row = [str(ids[i]), _fmt(pop.y[i])]
            row.append("" if pop.y_star is None else _fmt(pop.y_star[i]))
            for j in range(k):
                row.append(str(pop.z[i, j]))
            row.append(str(pop.delta[i]))
            row.append("" if pop.stratum is None else str(pop.stratum[i]))
            writer.writerow(row)


def _read_table(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = [row for row in reader if row]
    return [h.strip() for h in header], rows


def _column(rows, idx, kind=float):
    return np.array([kind(row[idx]) for row in rows])


def _optional_column(rows, idx, kind=float):
    cells = [row[idx] for row in rows]
    present = [c != "" for c in cells]
    if not any(present):
        return None
    if not all(present):
        raise ValueError("column mixes present and missing values")
    return np.array([kind(c) for c in cells])


def read_population_csv(path) -> FinitePopulation:
    header, rows = _read_table(path)
    cols = {name: i for i, name in enumerate(header)}
    for required in ("id", "y"):
        if required not in cols:
            raise ValueError(f"{path}: missing column {required!r}")
    z_cols = [name for name in header if name.startswith("z") and name[1:].isdigit()]
    z_cols.sort(key=lambda name: int(name[1:]))
    z = None
    if z_cols:
        z = np.column_stack(
            [_column(rows, cols[name], int) for name in z_cols]
        ).astype(np.int64)
    ids = _column(rows, cols["id"], int)
    if not np.array_equal(ids, np.arange(1, len(rows) + 1)):
        raise ValueError(f"{path}: ids must be 1..N in order")
    delta = None
    if "delta" in cols:
        delta = _optional_column(rows, cols["delta"], int)
    stratum = None
    if "stratum" in cols:
        stratum = _optional_column(rows, cols["stratum"], int)
    y_star = None
    if "y_star" in cols:
        y_star = _optional_column(rows, cols["y_star"])
    return FinitePopulation(
        y=_column(rows, cols["y"]),
        y_star=y_star,
        z=z,
        delta=delta,
        stratum=stratum,
    )


def write_sample_csv(path, sample: ProbabilitySample) -> None:
    """Write a sample as ``id,d,pi,y,y_star,delta`` plus any z columns."""
    k = 0 if sample.z is None else sample.z.shape[1]
    header = ["id", "d", "pi", "y", "y_star", "delta", *_z_names(k)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(sample.n):
            row = [
                str(sample.unit_ids[i]),
                _fmt(sample.d[i]),
                _fmt(sample.pi[i]),
                "" if sample.y is None else _fmt(sample.y[i]),
                "" if sample.y_star is None else _fmt(sample.y_star[i]),
                "" if sample.delta is None else str(sample.delta[i]),
            ]
            for j in range(k):
                row.append(str(sample.z[i, j]))
            writer.writerow(row)


def read_sample_csv(path, N: int | None = None) -> ProbabilitySample:
    """Read a sample written by :func:`write_sample_csv`.

    When every inclusion probability equals ``n / N`` the joint
    probabilities of simple random sampling are attached, which enables
    exact variance computation downstream.  ``N`` defaults to the
    rounded sum of the design weights.
    """
    header, rows = _read_table(path)
    cols = {name: i for i, name in enumerate(header)}
    for required in ("id", "d", "pi"):
        if required not in cols:
            raise ValueError(f"{path}: missing column {required!r}")
    d = _column(rows, cols["d"])
    pi = _column(rows, cols["pi"])
    n = len(rows)
    if N is None:
        N = int(round(float(d.sum())))
    z_cols = [name for name in header if name.startswith("z") and name[1:].isdigit()]
    z_cols.sort(key=lambda name: int(name[1:]))
    z = None
    if z_cols:
        z = np.column_stack(
            [_column(rows, cols[name], int) for name in z_cols]
        ).astype(np.int64)
    joint = None
    design = "generic"
    if np.allclose(pi, n / N, rtol=1e-9, atol=0.0):
        joint = SRSJointInclusion(n=n, N=N)
        design = "srs"
    delta = None
    if "delta" in cols:
        delta = _optional_column(rows, cols["delta"], int)
    return ProbabilitySample(
        unit_ids=_column(rows, cols["id"], int),
        d=d,
        pi=pi,
        joint_pi=joint,
        N=N,
        design=design,
        y=_optional_column(rows, cols["y"]) if "y" in cols else None,
        y_star=_optional_column(rows, cols["y_star"]) if "y_star" in cols else None,
        delta=delta,
        z=z,
    )


def write_big_data_csv(path, big: BigSample) -> None:
    """Write a big-data extract as ``id,y,z1..zK,multiplicity``."""
    k = 0 if big.z is None else big.z.shape[1]
    header = ["id", "y", *_z_names(k), "multiplicity"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(big.values)):
            row = [str(int(big.unit_ids[i])), _fmt(big.values[i])]
            for j in range(k):
                row.append(str(big.z[i, j]))
            row.append(str(int(big.multiplicity[i])))
            writer.writerow(row)


def read_big_data_csv(path, N: int) -> BigSample:
    """Read a big-data extract.

    The value column is ``y`` when present and non-empty, else
    ``y_star`` (a proxy-valued source).  ``multiplicity`` defaults to
    one per row.  ``N`` is the universe size the extract was drawn
    from, which the file itself cannot know.
    """
    header, rows = _read_table(path)
    cols = {name: i for i, name in enumerate(header)}
    if "id" not in cols:
        raise ValueError(f"{path}: missing column 'id'")
    values = None
    for candidate in ("y", "y_star"):
        if candidate in cols:
            values = _optional_column(rows, cols[candidate])
            if values is not None:
                break
    if values is None:
        raise ValueError(f"{path}: needs a non-empty 'y' or 'y_star' column")
    z_cols = [name for name in header if name.startswith("z") and name[1:].isdigit()]
    z_cols.sort(key=lambda name: int(name[1:]))
    z = None
    if z_cols:
        z = np.column_stack(
            [_column(rows, cols[name], int) for name in z_cols]
        ).astype(np.int64)
    if "multiplicity" in cols:
        multiplicity = _column(rows, cols["multiplicity"], int)
    else:
        multiplicity = np.ones(len(rows), np.int64)
    return BigSample(
        unit_ids=_column(rows, cols["id"], int),
        values=values,
        multiplicity=multiplicity,
        N=N,
        z=z,
    )


def write_labels_csv(path, unit_ids, p_hat, delta_hat) -> None:
    """Write classification output as ``id,p_hat,delta_hat``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "p_hat", "delta_hat"])
        for i in range(len(p_hat)):
            writer.writerow(
                [str(int(unit_ids[i])), _fmt(p_hat[i]), str(int(delta_hat[i]))]
            )


def write_classifier_model(path, model: ClassifierModel) -> None:
    """Dump a fitted mixture as readable ``key=value`` lines."""
    lines = [f"pi={model.pi!r}", f"levels={','.join(map(str, model.levels))}"]
    for name, tables in (("m", model.m), ("u", model.u)):
        for k, table in enumerate(tables):
            joined = ",".join(repr(float(v)) for v in table)
            lines.append(f"{name}{k + 1}={joined}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_classifier_model(path) -> ClassifierModel:
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition("=")
        values[key.strip()] = rest.strip()
    levels = tuple(int(v) for v in values["levels"].split(","))

    def tables(name):
        return tuple(
            np.array([float(v) for v in values[f"{name}{k + 1}"].split(",")])
            for k in range(len(levels))
        )

    return ClassifierModel(pi=float(values["pi"]), m=tables("m"), u=tables("u"))


def write_summary_csv(path, rows: list[dict]) -> None:
    """Write Monte Carlo summary rows produced by ``summary_rows``."""
    header = [
        "study",
        "scenario",
        "estimator",
        "bias",
        "se",
        "rmse",
        "var_rel_bias",
        "failures",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row.get(col, "") for col in header])
