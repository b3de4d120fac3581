"""Finite populations, synthetic study populations, and sampling designs.

The package works with three kinds of objects:

* :class:`FinitePopulation` -- a columnar store of every unit in the
  universe (ids are implicitly ``1..N``),
* :class:`ProbabilitySample` -- a design sample with weights and a
  joint-inclusion-probability provider, and
* :class:`BigSample` -- the non-probability ("big data") source: a large
  subset of the universe observed without design weights.

Two synthetic populations are bundled.  ``generate_population_sim1``
builds a continuous-outcome universe with a proxy measurement and two
strata split on the latent covariate; ``generate_population_sim2``
builds a categorical-covariate universe where big-data membership is a
Bernoulli draw whose rate depends on the first covariate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .rng import substream

__all__ = [
    "EmptyPopulationError",
    "InfeasibleSelectionError",
    "FinitePopulation",
    "BigSample",
    "ProbabilitySample",
    "SRSJointInclusion",
    "generate_population_sim1",
    "generate_population_sim2",
    "big_data_inclusion_probabilities",
    "draw_srs",
    "select_big_data_stratified",
]


class EmptyPopulationError(ValueError):
    """Raised when an operation requires a non-empty population."""


class InfeasibleSelectionError(ValueError):
    """Raised when requested big-data inclusion rates leave ``(0, 1]``."""


# the design labels a ProbabilitySample accepts
_DESIGNS = ("srs", "generic")
# the least value of each count column
_LEAST = {"delta": 0, "multiplicity": 1}

# reductions called as ufuncs: ndarray.min, .max and .sum reach the same
# ufunc through a Python wrapper that costs about 1.3 us a call, more than
# the reduction itself over a few hundred entries
_min, _max, _sum = np.minimum.reduce, np.maximum.reduce, np.add.reduce


def _frozen(a, dtype) -> np.ndarray:
    out = np.asarray(a, dtype=dtype)
    if out is a and out.flags.writeable:
        out = out.copy()
    out.setflags(write=False)
    return out


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a`` marked read-only: a freshly built array that :func:`_frozen`
    then keeps without a copy."""
    a.setflags(write=False)
    return a


def _whole(a, name: str = "z"):
    """``a`` as an array of integer values, not yet cast.

    An ``a`` of non-integer dtype must hold whole numbers: a value that a
    cast to int64 would truncate is a ``ValueError`` naming the column
    (for a 2-D ``a`` such as ``z``, the column of it).  Integer input
    skips the check.
    """
    a = np.asarray(a)
    if a.dtype.kind not in "iu":
        a = np.asarray(a, float)
        bad = np.argwhere(~(np.isfinite(a) & (np.floor(a) == a)))
        if bad.size:
            where = f"{name} column {bad[0][1] + 1}" if a.ndim > 1 else name
            raise ValueError(
                f"{where} holds {float(a[tuple(bad[0])])!r}, which is not a whole number"
            )
    return a


def _per_unit(a, n: int, name: str, unit: str = "sampled unit", dtype=np.float64) -> np.ndarray:
    """``a`` as an array of ``dtype`` of shape (n,), or (n, K) for ``z``;
    any other shape is a ``ValueError`` naming the column."""
    a = np.asarray(a, dtype)
    if a.ndim != (2 if name == "z" else 1) or a.shape[0] != n:
        shape = f"({n}, K)" if name == "z" else f"({n},)"
        raise ValueError(f"{name} must have one entry per {unit}: shape {shape}, not {a.shape}")
    return a


def _set_columns(obj, n: int, unit: str, columns, required=()) -> None:
    """Freeze each ``(name, dtype)`` column of ``obj`` that is not ``None``.

    A column named in ``required`` may not be ``None``.  Each column
    passes :func:`_per_unit`, an integer column must hold whole numbers
    (:func:`_whole`), and a count (``delta``, ``multiplicity``) must not
    fall below its least value.  Every fault is a ``ValueError`` naming
    the column, or every required column that is ``None``.
    """
    missing = [name for name in required if getattr(obj, name) is None]
    if missing:
        raise ValueError(f"{', '.join(missing)} must be given, not None")
    for name, dtype in columns:
        col = getattr(obj, name)
        if col is None:
            continue
        if dtype is np.int64:
            col = _whole(col, name)
        col = _per_unit(_frozen(col, dtype), n, name, unit, dtype)
        least = _LEAST.get(name)
        if least is not None and col.size and _min(col) < least:
            raise ValueError(f"{name} entries must be at least {least}; found {_min(col)}")
        object.__setattr__(obj, name, col)


def _check_ids(ids: np.ndarray, N: int) -> None:
    """Raise ``ValueError`` naming ``unit_ids`` unless the ids lie in 1..N
    and no unit appears twice.

    Increasing ids, as :func:`draw_srs` and
    :meth:`FinitePopulation.big_sample` give them, pass on one comparison
    of neighbours: they are distinct, and their ends bound the range.
    """
    if not ids.size:
        return
    increasing = bool(np.logical_and.reduce(ids[1:] > ids[:-1]))
    low, high = (ids[0], ids[-1]) if increasing else (_min(ids), _max(ids))
    if low < 1 or high > N:
        raise ValueError(f"unit_ids must lie in 1..{N}; found {ids[(ids < 1) | (ids > N)][0]}")
    if not increasing:
        ordered = np.sort(ids)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            raise ValueError(f"unit_ids repeats unit {repeated[0]}")


def _equal_pi(pi: np.ndarray, N: int) -> bool:
    """Whether every ``pi`` equals ``n / N`` to 1e-9 relative, as under SRS
    (``np.allclose(pi, n / N, rtol=1e-9, atol=0)`` less its overhead)."""
    f = pi.size / N
    return bool(_max(np.abs(pi - f)) <= 1e-9 * f)


def _rows(a: np.ndarray | None, idx: np.ndarray) -> np.ndarray | None:
    """Read-only rows ``idx`` of ``a``, or ``None`` for a missing column.

    A 2-D array is gathered with ``np.take`` along axis 0, several times
    faster than fancy indexing ``a[idx]`` (about 12 against 91 us for
    5,000 of 10^4 rows of two columns); a 1-D one by indexing, which is
    the faster there.
    """
    if a is None:
        return None
    return _read_only(np.take(a, idx, axis=0) if a.ndim == 2 else a[idx])


@dataclass(frozen=True, eq=False)
class FinitePopulation:
    """Columnar store of a finite universe.

    Parameters
    ----------
    y : array of float
        Study variable, one entry per unit.
    y_star : array of float, optional
        Proxy (possibly mismeasured) version of ``y``.
    z : int array of shape (N, K), optional
        Categorical matching variables, coded ``1..D_k``.
    delta : int array, optional
        Big-data membership per unit.  Zero means "not in the big
        source"; values above one are duplication multiplicities.
    stratum : int array, optional
        Stratum labels used by stratified selection.
    """

    y: np.ndarray
    y_star: np.ndarray | None = None
    z: np.ndarray | None = None
    delta: np.ndarray | None = None
    stratum: np.ndarray | None = None

    def __post_init__(self):
        n = np.size(self.y)
        if n == 0:
            raise EmptyPopulationError("population must hold at least one unit")
        _set_columns(self, n, "unit", (
            ("y", np.float64), ("y_star", np.float64), ("z", np.int64),
            ("delta", np.int64), ("stratum", np.int64),
        ), required=("y",))
        if self.delta is None:
            object.__setattr__(self, "delta", _read_only(np.zeros(n, np.int64)))

    def __len__(self) -> int:
        return self.y.size

    @property
    def N(self) -> int:
        return self.y.size

    @property
    def N_b(self) -> int:
        """Big-data size counted with multiplicity."""
        return int(self.delta.sum())

    @property
    def W_b(self) -> float:
        return self.N_b / self.N

    @property
    def ids(self) -> np.ndarray:
        return np.arange(1, self.N + 1)

    def with_delta(self, delta) -> "FinitePopulation":
        """Copy of the population with a new membership column."""
        return replace(self, delta=np.asarray(delta, np.int64))

    def big_sample(self, value: str = "y") -> "BigSample":
        """View the ``delta >= 1`` units as a :class:`BigSample`.

        ``value`` picks which column is observed in the big source
        (``"y"`` or ``"y_star"``).
        """
        if value not in ("y", "y_star"):
            raise ValueError("value must be 'y' or 'y_star'")
        col = self.y if value == "y" else self.y_star
        if col is None:
            raise ValueError(f"population has no {value} column")
        idx = np.flatnonzero(self.delta > 0)
        return BigSample(
            unit_ids=_read_only(idx + 1),
            values=_rows(col, idx),
            multiplicity=_rows(self.delta, idx),
            N=self.N,
            z=_rows(self.z, idx),
        )


@dataclass(frozen=True, eq=False)
class BigSample:
    """Non-probability source: observed units with no design weights.

    ``values`` is ``None`` for a source read without its value column,
    which serves membership classification but has no :attr:`total`.
    """

    unit_ids: np.ndarray
    values: np.ndarray | None
    multiplicity: np.ndarray
    N: int
    z: np.ndarray | None = None

    def __post_init__(self):
        n = np.size(self.unit_ids)
        _set_columns(self, n, "big-source unit", (
            ("unit_ids", np.int64), ("values", np.float64),
            ("multiplicity", np.int64), ("z", np.int64),
        ), required=("unit_ids", "multiplicity"))
        _check_ids(self.unit_ids, self.N)

    def __len__(self) -> int:
        return self.unit_ids.size

    @property
    def N_b(self) -> int:
        return int(self.multiplicity.sum())

    @property
    def W_b(self) -> float:
        return self.N_b / self.N

    @property
    def total(self) -> float:
        """Multiplicity-weighted total of the observed values."""
        if self.values is None:
            raise ValueError("the big source was read without its value column ('y' or 'y_star')")
        return float(np.dot(self.multiplicity, self.values))


@dataclass(frozen=True)
class SRSJointInclusion:
    """Joint inclusion probabilities under simple random sampling."""

    n: int
    N: int

    def pairwise(self, unit_ids) -> np.ndarray:
        if self.n < 2:
            raise ValueError(
                f"joint_pi: an SRS of n = {self.n} holds no pair of units, so every "
                "pi_ij is 0 and the variance has no unbiased estimator"
            )
        k = len(unit_ids)
        off = self.n * (self.n - 1) / (self.N * (self.N - 1))
        out = np.full((k, k), off)
        np.fill_diagonal(out, self.n / self.N)
        return out


@dataclass(frozen=True, eq=False)
class ProbabilitySample:
    """Design sample: unit ids, weights, and joint inclusion metadata.

    ``joint_pi`` supplies the joint inclusion probabilities through
    ``pairwise(unit_ids)``, the matrix over the given units.  Observed
    columns (``y``, ``y_star``, ``delta``, ``z``) are optional views of
    the parent population restricted to the drawn units, one row per
    drawn unit.  An :class:`SRSJointInclusion` provider must have the
    sample's own ``n`` and ``N`` and every ``pi`` equal to ``n / N``.
    ``design`` labels the design ``"srs"`` or ``"generic"``; no computation
    reads it, since the provider alone decides the variance formula.
    """

    unit_ids: np.ndarray
    d: np.ndarray
    pi: np.ndarray
    joint_pi: object
    N: int
    design: str = "generic"
    y: np.ndarray | None = None
    y_star: np.ndarray | None = None
    delta: np.ndarray | None = None
    z: np.ndarray | None = None

    def __post_init__(self):
        k = np.size(self.unit_ids)
        if k == 0:
            raise EmptyPopulationError("sample must hold at least one unit")
        _set_columns(self, k, "sampled unit", (
            ("unit_ids", np.int64), ("d", np.float64), ("pi", np.float64),
            ("y", np.float64), ("y_star", np.float64), ("delta", np.int64),
            ("z", np.int64),
        ), required=("unit_ids", "d", "pi"))
        # three reductions pass valid weights, NaN failing each; the checks
        # below name the fault
        if not (
            _min(self.pi) > 0 and _max(self.pi) <= 1
            and _max(np.abs(self.d * self.pi - 1.0)) <= 1e-9
        ):
            if (self.pi <= 0).any() or (self.pi > 1).any():
                raise ValueError("inclusion probabilities must lie in (0, 1]")
            for name in ("d", "pi"):
                if not np.isfinite(getattr(self, name)).all():
                    raise ValueError(f"{name} must hold finite values")
            raise ValueError("design weights must be reciprocal inclusion probabilities")
        if self.N < k:
            raise ValueError(f"universe size N = {self.N} is below the sample size {k}")
        _check_ids(self.unit_ids, self.N)
        if self.design not in _DESIGNS:
            raise ValueError(f"design must be one of {_DESIGNS}, not {self.design!r}")
        joint = self.joint_pi
        if isinstance(joint, SRSJointInclusion):
            if (joint.n, joint.N) != (k, self.N):
                raise ValueError(
                    f"joint_pi is an SRS of (n, N) = ({joint.n}, {joint.N}), "
                    f"but the sample has (n, N) = ({k}, {self.N})"
                )
            if not _equal_pi(self.pi, self.N):
                raise ValueError(
                    f"joint_pi is an SRS, which needs every pi equal to n / N = {k / self.N!r}"
                )

    @property
    def n(self) -> int:
        return self.unit_ids.size

    @property
    def indices(self) -> np.ndarray:
        """Zero-based positions of the drawn units in the population."""
        return self.unit_ids - 1


# ---------------------------------------------------------------------------
# synthetic study populations
# ---------------------------------------------------------------------------

def generate_population_sim1(N: int, seed) -> FinitePopulation:
    """First bundled study population (continuous outcome with a proxy).

    A latent covariate ``x ~ Normal(2, 1)`` drives the outcome
    ``y = 3 + 0.7 (x - 2) + e`` with ``e ~ Normal(0, 0.51)`` (0.51 is the
    *variance*, chosen so that ``Var(y) = 1``).  The proxy is
    ``y* = 2 + 0.9 (y - 3) + u`` with ``u ~ Normal(0, 0.5^2)``.  Units
    split into stratum 1 (``x <= 2``, ties included) and stratum 2.
    """
    if N < 1:
        raise EmptyPopulationError("N must be positive")
    rng = substream(seed)
    x = rng.normal(2.0, 1.0, N)
    e = rng.normal(0.0, math.sqrt(0.51), N)
    y = 3.0 + 0.7 * (x - 2.0) + e
    u = rng.normal(0.0, 0.5, N)
    y_star = 2.0 + 0.9 * (y - 3.0) + u
    stratum = np.where(x <= 2.0, 1, 2).astype(np.int64)
    return FinitePopulation(
        y=_read_only(y), y_star=_read_only(y_star), stratum=_read_only(stratum)
    )


def big_data_inclusion_probabilities(z1, target_size: int) -> np.ndarray:
    """Per-unit big-data membership rates for the second study design.

    Units with ``z1 <= 10`` enter at rate ``c`` and units with
    ``z1 > 10`` at rate ``2c``, with ``c`` calibrated against the
    *realized* ``z1`` counts so the expected big-data size equals
    ``target_size`` exactly.
    """
    z1 = np.asarray(z1)
    if z1.size == 0:
        raise EmptyPopulationError("z1 must be non-empty")
    if target_size < 0:
        raise ValueError("target_size must be non-negative")
    n_hi = int((z1 > 10).sum())
    n_lo = z1.size - n_hi
    c = target_size / (n_lo + 2 * n_hi)
    if 2 * c > 1.0:
        raise InfeasibleSelectionError(
            f"target size {target_size} needs rate {2 * c:.3f} > 1 in the high arm"
        )
    return np.where(z1 <= 10, c, 2 * c)


def generate_population_sim2(N: int, N_B: int, seed) -> FinitePopulation:
    """Second bundled study population (categorical matching variables).

    ``z1 ~ Uniform{1..20}`` drives both membership and the outcome
    regime; ``z2 ~ Uniform{1..10}`` is an extra matching variable that
    is independent of membership given ``z1``.  The high-propensity arm
    (``z1 > 10``, rate ``2c``) carries the flatter, lower-mean outcome
    ``y = 4 + 0.5 (z2 + e)`` while the low-propensity arm carries
    ``y = 6 + 0.3 (z2 + e)``, with ``e ~ Uniform(0, 1)`` -- so a raw
    big-data mean understates the population mean.  Membership ``delta``
    is one Bernoulli draw per unit at the calibrated rates.
    """
    if N < 1:
        raise EmptyPopulationError("N must be positive")
    rng = substream(seed)
    z1 = rng.integers(1, 21, N)
    z2 = rng.integers(1, 11, N)
    e = rng.uniform(0.0, 1.0, N)
    y = np.where(z1 <= 10, 6.0 + 0.3 * (z2 + e), 4.0 + 0.5 * (z2 + e))
    probs = big_data_inclusion_probabilities(z1, N_B)
    delta = (rng.random(N) < probs).astype(np.int64)
    z = np.column_stack([z1, z2])
    return FinitePopulation(y=_read_only(y), z=_read_only(z), delta=_read_only(delta))


# ---------------------------------------------------------------------------
# designs
# ---------------------------------------------------------------------------

def _srs_weights(n: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only design weights ``N/n`` and inclusion probabilities
    ``n/N`` of a simple random sample of ``n`` from ``N``."""
    return _read_only(np.full(n, N / n)), _read_only(np.full(n, n / N))


def draw_srs(pop: FinitePopulation, n: int, seed) -> ProbabilitySample:
    """Draw a simple random sample (without replacement) of size ``n``.

    The returned sample carries design weights ``N/n``, the SRS joint
    inclusion provider, and views of the population columns for the
    drawn units (sorted by unit id).
    """
    N = pop.N
    if not 1 <= n <= N:
        raise ValueError(f"sample size {n} outside 1..{N}")
    rng = substream(seed)
    idx = np.sort(rng.choice(N, size=n, replace=False))
    d, pi = _srs_weights(n, N)
    return ProbabilitySample(
        unit_ids=_read_only(idx + 1),
        d=d,
        pi=pi,
        joint_pi=SRSJointInclusion(n=n, N=N),
        N=N,
        design="srs",
        y=_rows(pop.y, idx),
        y_star=_rows(pop.y_star, idx),
        delta=_rows(pop.delta, idx),
        z=_rows(pop.z, idx),
    )


def _srs_mask(m: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Boolean mask over range(m) of a uniform k-subset.

    Keeping the k smallest of m iid uniform keys is an exact SRS.  The keys
    are drawn even when ``k`` is 0 and not at all when ``k`` is ``m``, so
    the stream a caller reads next does not depend on the sizes asked.
    The mask holds every key below the k-th smallest and then the first
    keys tied with it: the set ``argpartition(keys, k)[:k]`` picks when, as
    almost surely, no key ties.
    """
    if k == m:
        return np.ones(m, bool)
    keys = rng.random(m)
    if k == 0:
        return np.zeros(m, bool)
    # the k-th smallest of m uniform keys lies within a few binomial SDs of
    # k / m (Floyd & Rivest 1975), so only the keys within six SDs are
    # partitioned; at the studies' stratum sizes the band misses with
    # probability about 2e-9
    p = k / m
    half = 6.0 * math.sqrt(p * (1.0 - p) / m)
    below = keys < p - half
    n_below = np.count_nonzero(below)
    band = keys[(keys < p + half) ^ below]
    if not n_below < k <= n_below + band.size:
        # the band missed the k-th key: partition every key
        band, n_below = keys, 0
    j = k - 1 - n_below
    t = np.partition(band, j)[j]
    hit = keys <= t
    extra = n_below + np.count_nonzero(band <= t) - k
    if extra:
        # keys tied with t past the k-th: keep only the first ones
        tied = np.flatnonzero(keys == t)
        hit[tied[tied.size - extra:]] = False
    return hit


def _stratum_pools(stratum: np.ndarray, labels, sizes) -> tuple[np.ndarray, ...]:
    """Sorted unit indices of each stratum in ``labels``, in that order.

    ``sizes[h]`` units are asked of stratum ``labels[h]``.  Raises
    ``ValueError`` naming ``stratum_sizes`` unless there is one size per
    label, each lies in 0..the stratum's size, and they ask at least one
    unit in all.
    """
    if len(sizes) != len(labels) or sum(sizes) < 1:
        raise ValueError(
            f"stratum_sizes needs one size per stratum {tuple(labels)}, "
            "selecting at least one unit in all"
        )
    pools = tuple(np.flatnonzero(stratum == label) for label in labels)
    for label, pool, n_h in zip(labels, pools, sizes):
        if not 0 <= n_h <= pool.size:
            raise ValueError(
                f"stratum_sizes asks {n_h} units of stratum {label}, "
                f"which holds {pool.size}"
            )
    return pools


def _select_strata(pools, sizes, rng: np.random.Generator) -> list[np.ndarray]:
    """Masks over each ``pools[h]`` of a simple random selection of
    ``sizes[h]`` of its units, drawn from ``rng`` one stratum after another."""
    return [_srs_mask(pool.size, n_h, rng) for pool, n_h in zip(pools, sizes)]


def select_big_data_stratified(
    pop: FinitePopulation, sizes: Mapping[int, int], seed
) -> FinitePopulation:
    """Mark a stratified simple random selection as the big-data source.

    ``sizes`` maps stratum label to the number of units selected within
    that stratum; strata are drawn in label order, each as the units with
    the smallest of one uniform key per unit.  Returns a population copy
    whose ``delta`` column is 1 exactly on the selected units.
    """
    if pop.stratum is None:
        raise ValueError("population has no stratum column")
    labels = sorted(sizes)
    counts = [int(sizes[label]) for label in labels]
    pools = _stratum_pools(pop.stratum, labels, counts)
    delta = np.zeros(pop.N, np.int64)
    for pool, hit in zip(pools, _select_strata(pools, counts, substream(seed))):
        delta[pool] = hit
    return pop.with_delta(_read_only(delta))
