"""The three benchmark workloads and the checks on their outputs.

Each workload is closed-loop with a single client: it makes one call
into the package, waits for it, checks the output and makes the next.
A workload is built from the seed alone, so the same seed gives the
same inputs.  ``cycle(i, log)`` runs the i-th group of calls:

* ``sim1-full``: ``run_sim1`` at N = 10^6 for scenarios 1, 2 and 3, each
  with ``workers=1`` (kind ``first``) and, in every other cycle, again
  with ``workers=min(2, nproc)`` (kind ``second``).
* ``sim2-em``: ``run_sim2`` at N = 10^4 for n_a = 1000 and 2000, with
  the same two worker counts.
* ``cli-1e6``: ``bigsurv estimate --method regdi`` (kind ``first``) and
  ``bigsurv classify`` (kind ``second``) on a generated design sample
  and a 10^6-row big-data file.
"""

from __future__ import annotations

import ast
import contextlib
import io
import math
import re
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

import bigsurv
import bigsurv.cli
import bigsurv.fileio
from bigsurv import (
    BigSample,
    ClassifierModel,
    ProbabilitySample,
    SimConfig,
    SRSJointInclusion,
    build_controls,
    em_fit,
    estimate_m,
    initial_u,
    posterior,
    regdi_total,
)
from bigsurv.simulation import run_sim1, run_sim2

# half-width of the sampling part of every tolerance band, in standard
# errors of the Monte Carlo mean (or of the Monte Carlo SE)
BAND_SIGMAS = 5.0


class OpLog:
    """Counts, wall times and failures of the calls one phase makes."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: dict[str, list[float]] = {"first": [], "second": []}
        self.cycles: dict[str, list[int]] = {"first": [], "second": []}
        self.cycle = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.replicates = 0
        self.redrawn = 0

    def call(self, kind: str, label: str, fn, *args):
        """Time one call; an exception counts as a failed operation."""
        self.attempted += 1
        span = (
            self.tracer.span(f"bench.{kind}")
            if self.tracer is not None
            else contextlib.nullcontext()
        )
        start = time.perf_counter()
        try:
            with span:
                result = fn(*args)
        except Exception:
            self.failed += 1
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            return None
        self.times[kind].append(time.perf_counter() - start)
        self.cycles[kind].append(self.cycle)
        return result

    def cycle_means(self, *kinds: str) -> list[float]:
        """Mean wall time of each cycle's calls of the given kinds.

        A cycle holds one call per scenario, sample size or command, and
        these differ in cost, so medians are taken over cycles, not calls.
        """
        per_cycle: dict[int, list[float]] = {}
        for kind in kinds:
            for c, t in zip(self.cycles[kind], self.times[kind]):
                per_cycle.setdefault(c, []).append(t)
        return [sum(ts) / len(ts) for ts in per_cycle.values()]

    def check(self, label: str, problems: list[str]) -> None:
        """Count a call whose output failed a check as a failed operation."""
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: " + "; ".join(problems[:4]))


def _acceptance_tables(root: Path) -> dict:
    """``TABLE2`` and ``NAIVE_BIAS`` from the acceptance tests, read as data."""
    path = root / "tests" / "test_acceptance.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TABLE2", "NAIVE_BIAS"):
                out[name] = ast.literal_eval(node.value)
    missing = {"TABLE2", "NAIVE_BIAS"} - out.keys()
    if missing:
        raise RuntimeError(f"{path} no longer defines {sorted(missing)}")
    return out


def _band(problems, what, value, target, base_tol, se, reps) -> None:
    tol = base_tol + BAND_SIGMAS * se / math.sqrt(reps)
    if not abs(value - target) <= tol:
        problems.append(f"{what} {value:+.4f} outside {target:+.4f} +/- {tol:.4f}")


class SimWorkload:
    """A Monte Carlo study called with one and with two workers."""

    def __init__(self, study, seed, root, smoke, workers2):
        self.study = study
        self.seed = seed
        self.workers2 = workers2
        tables = _acceptance_tables(root)
        if study == "sim1":
            self.run = run_sim1
            self.variants = [{"scenario": s} for s in (1, 2, 3)]
            self.table = tables["TABLE2"]
            self.base = SimConfig(
                study="sim1", n_a=1000, replicates=4 if smoke else 20,
                pop_n=100_000 if smoke else 1_000_000,
            )
        else:
            self.run = run_sim2
            self.variants = [{"n_a": n} for n in (1000, 2000)]
            self.table = tables["NAIVE_BIAS"]
            self.base = SimConfig(
                study="sim2", replicates=10 if smoke else 100, pop_n=10_000,
                big_n=5_000,
            )
        self.base = self.base.resolved()
        # the table's SEs hold at the paper's N = 10^6 only (mean_b's SE
        # grows as the universe shrinks), so smaller runs check biases
        self.check_se = self.base.pop_n == 1_000_000

    def setup(self) -> None:
        """Pay first-call costs with a two-replicate study call."""
        config = replace(self.base, **self.variants[0], replicates=2)
        self.run(config.resolved())

    def prepare_checks(self) -> None:
        pass

    def cycle(self, index: int, log: OpLog) -> None:
        for j, variant in enumerate(self.variants):
            call = index * len(self.variants) + j
            config = replace(
                self.base, **variant, master_seed=self.seed * 100_000 + call
            ).resolved()
            label = f"{self.study} {variant} seed={config.master_seed}"
            one = log.call(
                "first", f"{label} workers=1", self.run, replace(config, workers=1)
            )
            # every other cycle repeats the calls with two workers: enough
            # for the bit-identity check, and more single-worker calls
            two = None
            if index % 2 == 0:
                two = log.call(
                    "second",
                    f"{label} workers={self.workers2}",
                    self.run,
                    replace(config, workers=self.workers2),
                )
            for summary, workers in ((one, 1), (two, self.workers2)):
                if summary is None:
                    continue
                log.replicates += summary.replicates
                log.redrawn += summary.failures
                problems = self._problems(summary, config)
                if workers != 1 and one is not None and summary != one:
                    problems.append("summary differs from the workers=1 run")
                log.check(f"{label} workers={workers}", problems)

    def _problems(self, summary, config) -> list[str]:
        problems = []
        reps = config.replicates
        if summary.replicates != reps:
            problems.append(f"{summary.replicates} replicates, expected {reps}")
        if self.study == "sim1":
            # the acceptance test's bands, widened by the sampling error
            # of a run with `reps` replicates
            for name, (bias, se) in self.table[config.scenario].items():
                row = summary.row(name)
                base_tol = 0.01 if bias == 0.0 else 0.02
                _band(problems, f"{name} bias", row.bias, bias, base_tol, se, reps)
                se_tol = 0.20 + BAND_SIGMAS / math.sqrt(2.0 * (reps - 1))
                if self.check_se and not abs(row.se / se - 1.0) <= se_tol:
                    problems.append(
                        f"{name} se {row.se:.4f} outside {se:.3f} x (1 +/- {se_tol:.2f})"
                    )
        else:
            naive = summary.row("naive_di")
            _band(problems, "naive_di bias", naive.bias, self.table[config.n_a],
                  0.03, naive.se, reps)
            proposed = summary.row("proposed_di")
            _band(problems, "proposed_di bias", proposed.bias, 0.0, 0.01,
                  proposed.se, reps)
            mean_b = summary.row("mean_b")
            _band(problems, "mean_b bias", mean_b.bias, -0.14, 0.02, mean_b.se, reps)
        return problems


class CliWorkload:
    """``bigsurv estimate`` and ``bigsurv classify`` on generated files."""

    def __init__(self, seed, workdir: Path, smoke):
        self.seed = seed
        self.workdir = workdir
        self.rows = 10_000 if smoke else 1_000_000
        self.n_a = 200 if smoke else 2000
        self.N = 2 * self.rows
        self.pi = self.rows / self.N
        self.sample_path = workdir / "sample.csv"
        self.big_path = workdir / "big.csv"
        self.labels_path = workdir / "labels.csv"

    def _generate(self):
        """Study-two-like universe of 2 * rows units, all drawn from the seed.

        The big source is a weighted selection of exactly ``rows`` units,
        twice as likely for ``z1 > 10``; the design sample is an SRS.
        """
        rng = np.random.default_rng([self.seed, 1])
        N = self.N
        z1 = rng.integers(1, 21, N)
        z2 = rng.integers(1, 11, N)
        e = rng.uniform(0.0, 1.0, N)
        y = np.where(z1 <= 10, 6.0 + 0.3 * (z2 + e), 4.0 + 0.5 * (z2 + e))
        z = np.column_stack([z1, z2])
        # the `rows` largest of log(u) / weight: a weighted draw without
        # replacement of exactly `rows` units
        keys = np.log(rng.random(N)) / np.where(z1 > 10, 2.0, 1.0)
        big_idx = np.sort(np.argpartition(-keys, self.rows - 1)[: self.rows])
        delta = np.zeros(N, np.int64)
        delta[big_idx] = 1
        a_idx = np.sort(rng.choice(N, size=self.n_a, replace=False))
        y_a = y[a_idx]
        sample = ProbabilitySample(
            unit_ids=a_idx + 1,
            d=np.full(self.n_a, N / self.n_a),
            pi=np.full(self.n_a, self.n_a / N),
            joint_pi=SRSJointInclusion(n=self.n_a, N=N),
            N=N,
            design="srs",
            y=y_a,
            y_star=2.0 + 0.9 * (y_a - 3.0) + rng.normal(0.0, 0.5, self.n_a),
            delta=delta[a_idx],
            z=z[a_idx],
        )
        big = BigSample(
            unit_ids=big_idx + 1,
            values=y[big_idx],
            multiplicity=np.ones(self.rows, np.int64),
            N=N,
            z=z[big_idx],
        )
        return sample, big

    def setup(self) -> None:
        """Generate the inputs and write them with the package's writers."""
        self.sample, self.big = self._generate()
        bigsurv.fileio.write_sample_csv(self.sample_path, self.sample)
        bigsurv.fileio.write_big_data_csv(self.big_path, self.big)

    def prepare_checks(self) -> None:
        """What the two commands must print and write, from in-memory inputs."""
        sample, big = self.sample, self.big
        spec = build_controls(
            "standard", delta=sample.delta, y=sample.y, N=self.N,
            N_b=big.N_b, T_b=big.total,
        )
        self.expected_total = regdi_total(sample, sample.y, spec).total
        levels = tuple(
            int(max(sample.z[:, k].max(), big.z[:, k].max()))
            for k in range(sample.z.shape[1])
        )
        model0 = ClassifierModel(
            pi=self.pi, m=estimate_m(big, levels), u=initial_u(sample.z, sample.d, levels)
        )
        fitted, post = em_fit(sample, model0)
        self.expected_labels = (sample.unit_ids, post.p_hat)
        self.expected_big_labels = (big.unit_ids, posterior(fitted, big.z))

    def _main(self, argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bigsurv.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"bigsurv {argv[0]} exited with {code}")
        return out.getvalue()

    def cycle(self, index: int, log: OpLog) -> None:
        files = ["--sample-a", str(self.sample_path), "--big-data", str(self.big_path),
                 "--pop-n", str(self.N)]
        printed = log.call(
            "first", "estimate", self._main,
            ["estimate", *files, "--method", "regdi"],
        )
        if printed is not None:
            log.check("estimate", self._estimate_problems(printed))
        for path in self._label_paths():
            path.unlink(missing_ok=True)
        printed = log.call(
            "second", "classify", self._main,
            ["classify", *files, "--pi", repr(self.pi), "--out", str(self.labels_path)],
        )
        if printed is not None:
            log.check("classify", self._classify_problems())

    def _label_paths(self):
        out = self.labels_path
        return (
            out,
            out.with_name(out.stem + "_big" + out.suffix),
            out.with_suffix(".model.txt"),
        )

    def _estimate_problems(self, printed: str) -> list[str]:
        match = re.search(r"^total:\s+(\S+)", printed, re.MULTILINE)
        if match is None:
            return ["no 'total:' line printed"]
        total = float(match.group(1))
        if total != self.expected_total:
            return [f"total {total!r} != in-memory regdi_total {self.expected_total!r}"]
        return []

    def _classify_problems(self) -> list[str]:
        problems = []
        labels, big_labels, model = self._label_paths()
        for path, (ids, p_hat) in (
            (labels, self.expected_labels),
            (big_labels, self.expected_big_labels),
        ):
            if not path.is_file():
                problems.append(f"{path.name} not written")
                continue
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            if table.shape != (ids.size, 3):
                problems.append(f"{path.name} has shape {table.shape}, expected "
                                f"({ids.size}, 3)")
                continue
            if not np.array_equal(table[:, 0], ids):
                problems.append(f"{path.name}: ids differ from the input file")
            if not np.array_equal(table[:, 1], p_hat):
                problems.append(f"{path.name}: p_hat differs from em_fit's posterior")
            if not np.array_equal(table[:, 2], (p_hat > 0.5).astype(float)):
                problems.append(f"{path.name}: delta_hat is not p_hat > 0.5")
        if not model.is_file():
            problems.append(f"{model.name} not written")
        return problems
