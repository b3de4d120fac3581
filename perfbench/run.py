"""Benchmark of the bigsurv package: three workloads, end to end or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim1-full --seed 18 --seconds 20 --trace 0

It imports the package from the checkout's ``src/`` (nothing is
installed), runs the workload closed-loop with one client for
``--seconds`` seconds, checks every output, prints a readable report
and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a separate traced run (see ``README.md``).
Scratch files and the traced run's spans go under ``.perfbench/`` in
the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("sim1-full", "sim2-em", "cli-1e6")
# default seed: the package's own SimConfig().master_seed; a second seed
# for holdout checks of a claimed gain is HOLDOUT_SEED
DEFAULT_SEED = 18
HOLDOUT_SEED = 2003
SETUP_REPEATS = 3
PROBE_REPEATS = 3

# per-layer metrics reported on every workload; a layer a workload does
# not call reads 0 there and the readable report says why
LAYERS = ("population", "simulation", "calibration", "linalg", "variance",
          "measurement", "estimators", "classifier", "fileio", "cli")
FUNCTIONS = (
    "population.generate_population_sim1",
    "population.generate_population_sim2",
    "simulation._draw_srs_fast",
    "calibration.build_controls",
    "calibration.solve_weights",
    "calibration.regdi_total",
    "variance.regdi_residuals",
    "variance.ht_variance_quadratic",
    "measurement.fit_measurement_model",
    "estimators.pdi_total",
    "classifier.estimate_m",
    "classifier.initial_u",
    "classifier.em_fit",
    "classifier.posterior",
    "classifier.pdi2_total",
    "fileio.read_sample_csv",
    "fileio.read_big_data_csv",
    "fileio.write_labels_csv",
    "fileio.write_classifier_model",
)
RATES = (
    "fileio.read_big_data_csv",
    "fileio.write_labels_csv",
    "fileio.write_big_data_csv",
    "fileio.write_sample_csv",
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; holdout {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the calls are measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, to check that every metric prints")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_package():
    """Import bigsurv from the checkout's ``src/``; returns the import time."""
    if not (SRC / "bigsurv" / "__init__.py").is_file():
        raise SystemExit(f"error: no bigsurv package under {SRC}")
    # at most min(2, nproc) threads: the study's own workers, no BLAS pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import bigsurv
    elapsed = time.perf_counter() - start
    if Path(bigsurv.__file__).resolve().parent != (SRC / "bigsurv").resolve():
        raise SystemExit(f"error: imported bigsurv from {bigsurv.__file__}, not {SRC}")
    return elapsed


def _median(values):
    return statistics.median(values) if values else 0.0


def _p99(values):
    """Nearest-rank 99th percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -(-99 * len(ordered) // 100) - 1))]


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(workload, log, seconds, first_cycle=0) -> int:
    """Run whole cycles until ``seconds`` have passed; returns the next cycle."""
    start = time.perf_counter()
    index = first_cycle
    while True:
        log.cycle = index
        workload.cycle(index, log)
        index += 1
        if time.perf_counter() - start >= seconds:
            return index


def _build(name, seed, smoke, workdir):
    import envinfo
    import workloads

    workers2 = min(2, envinfo.nproc())
    if name == "cli-1e6":
        workload = workloads.CliWorkload(seed, workdir, smoke)
        ws = {"float64 column of the big file": 8 * workload.rows}
        names = ("estimate", "classify")
    else:
        study = "sim1" if name == "sim1-full" else "sim2"
        workload = workloads.SimWorkload(study, seed, ROOT, smoke, workers2)
        ws = {"float64 column of the universe": 8 * workload.base.pop_n}
        names = ("workers=1", f"workers={workers2}")
    env = envinfo.environment(seed, workers2, ws)
    return workload, env, names


def _print_env(env) -> None:
    print(f"env nproc={env['nproc']} cpu={env['cpu_model']!r} caches={env['caches']}")
    print(f"env python={env['python']} numpy={env['numpy']} seed={env['seed']} "
          f"workers={env['workers']}")
    for name, entry in env["working_set"].items():
        share = entry.get("share_of_L3")
        against = "" if share is None else f" = {100 * share:.1f}% of L3"
        print(f"env working set: {name} {entry['bytes'] / 2**20:.1f} MiB{against}")


def _print_failures(log) -> None:
    for line in log.failures:
        print(f"FAILED {line}", file=sys.stderr)


def _result(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_end_to_end(args, import_s, workdir) -> str:
    import workloads

    workload, env, names = _build(args.workload, args.seed, args.smoke, workdir)
    _print_env(env)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    setup_s = import_s + _median(setup_times)
    workload.prepare_checks()

    log = workloads.OpLog()
    _measure(workload, log, args.seconds)
    _print_failures(log)

    cli = args.workload == "cli-1e6"
    # two-worker calls are timed and checked but not gated: on a shared
    # 2-core machine their run-to-run spread is wider than any bound
    calls = log.cycle_means("first", "second") if cli else log.cycle_means("first")
    metrics = {
        "setup_s": (setup_s, "s"),
        "call_s": (_median(calls), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    print(f"setup: import {import_s:.3f} s + median of {SETUP_REPEATS} input "
          f"set-ups {_median(setup_times):.3f} s")
    print(f"metric setup_s = {setup_s:.4f} s (n={SETUP_REPEATS} set-ups)")
    what = "estimate and classify" if cli else "workers=1"
    print(f"metric call_s = {metrics['call_s'][0]:.4f} s "
          f"(median over n={len(calls)} cycles of the mean {what} call)")
    first, second = log.cycle_means("first"), log.cycle_means("second")
    if cli:
        print(f"metric estimate_s = {_median(first):.4f} s (n={len(first)} calls)")
        print(f"metric classify_s = {_median(second):.4f} s (n={len(second)} calls)")
    else:
        reps = workload.base.replicates
        for label, times in (("reps_per_s", first), ("reps_per_s_2w", second)):
            rate = reps / _median(times) if times else 0.0
            print(f"metric {label} = {rate:.3f} 1/s "
                  f"(median over n={len(times)} cycles of calls of {reps} replicates)")
    for label, kind in zip(names, ("first", "second")):
        print(f"calls {label}: " + " ".join(f"{t:.3f}" for t in log.times[kind]))
    print(f"metric peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB (n=1 process)")
    error_rate = log.failed / log.attempted if log.attempted else 1.0
    print(f"metric error_rate = {error_rate:.4f} (failed {log.failed} of "
          f"{log.attempted} calls)")
    return _result(log.failed == 0, log.attempted, log.failed, metrics)


def _probes(seed, smoke) -> tuple[dict[str, float], dict[str, str]]:
    """Stages the study does inline, timed on their own at the study's sizes."""
    names = ("probe.generate_population_sim1.ms", "probe.select_big_data_stratified.ms")
    try:
        from bigsurv import generate_population_sim1, select_big_data_stratified
    except ImportError as exc:
        return dict.fromkeys(names, 0.0), dict.fromkeys(names, str(exc))
    n = 100_000 if smoke else 1_000_000
    sizes = {1: int(round(0.3 * n)), 2: int(round(0.2 * n))}
    gen, sel = [], []
    for k in range(PROBE_REPEATS):
        start = time.perf_counter()
        pop = generate_population_sim1(n, (seed, 9, k))
        gen.append(time.perf_counter() - start)
        start = time.perf_counter()
        select_big_data_stratified(pop, sizes, (seed, 8, k))
        sel.append(time.perf_counter() - start)
    return dict(zip(names, (1e3 * _median(gen), 1e3 * _median(sel)))), {}


def _layer_metrics(tracer, kinds, cli):
    """Per-layer figures from the spans of the traced calls.

    The base is every ``bench.<kind>`` span whose work ran on the calling
    thread: the workers=1 study calls, or both CLI calls.  Worker-thread
    spans of the two-worker calls have no parent and are left out.
    """
    from tracing import descendants, self_ms

    spans = tracer.spans
    base = [s for s in spans if s.name in {f"bench.{k}" for k in kinds}]
    base_ms = sum(s.ms for s in base)
    under = descendants(spans, [s.id for s in base])
    own = self_ms(spans)
    out, notes = {}, {}

    top_name = "cli.main" if cli else "simulation.replicate"
    top = [s for s in under if s.name == top_name]
    out["top.ms.p50"] = _median([s.ms for s in top])
    out["top.ms.p99"] = _p99([s.ms for s in top])
    out["top.self_ms.p50"] = _median([own[s.id] for s in top])
    out["top.spans"] = len(top)
    out["bench.unwrapped_pct"] = (
        100.0 * sum(own[s.id] for s in base) / base_ms if base_ms else 0.0
    )
    for layer in LAYERS:
        ms = sum(own[s.id] for s in under if s.name.split(".")[0] == layer)
        out[f"{layer}.self_pct"] = 100.0 * ms / base_ms if base_ms else 0.0
    for fn in FUNCTIONS:
        hits = [s for s in under if s.name == fn]
        out[f"{fn}.pct"] = 100.0 * sum(s.ms for s in hits) / base_ms if base_ms else 0.0
        out[f"{fn}.calls"] = len(hits) / len(base) if base else 0.0
        if fn in tracer.missing:
            notes[fn] = tracer.missing[fn]
        elif not hits:
            notes[fn] = "not called on this workload"
    for fn in RATES:
        hits = [s for s in spans if s.name == fn and s.rows is not None]
        secs = sum(s.ms for s in hits) / 1e3
        out[f"{fn}.rows_per_s"] = sum(s.rows for s in hits) / secs if secs else 0.0
        if not hits:
            notes[f"{fn}.rows_per_s"] = "not called on this workload"
    iters = [s.iterations for s in under if s.iterations is not None]
    out["classifier.em_iterations.p50"] = _median(iters)
    out["classifier.em_iterations.max"] = max(iters, default=0)
    if not iters:
        notes["classifier.em_iterations"] = "em_fit not called on this workload"
    return out, notes, top, own


def _layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if name.endswith(".ms") or ".ms." in name or "_ms." in name:
        return "ms"
    if last.endswith("pct"):
        return "%"
    if last == "rows_per_s":
        return "rows/s"
    if last in ("retry_ratio", "thread_speedup"):
        return "ratio"
    return "count"


def run_traced(args, workdir) -> str:
    import tracing
    import workloads

    workload, env, names = _build(args.workload, args.seed, args.smoke, workdir)
    _print_env(env)
    cli = args.workload == "cli-1e6"
    tracer = tracing.Tracer()
    tracer.install(tracing.SETUP_TARGETS)
    with tracer.span("bench.setup"):
        workload.setup()
    tracer.uninstall()
    workload.prepare_checks()

    # half untraced, half traced: the ratio of their medians is the overhead
    plain = workloads.OpLog()
    next_cycle = _measure(workload, plain, args.seconds / 2)
    traced = workloads.OpLog(tracer)
    tracer.install(tracing.CLI_TARGETS if cli else tracing.SIM_TARGETS)
    tracer.install(tracing.SHARED_TARGETS)
    try:
        _measure(workload, traced, args.seconds / 2, next_cycle)
    finally:
        tracer.uninstall()
    _print_failures(plain)
    _print_failures(traced)

    kinds = ("first", "second") if cli else ("first",)
    metrics, notes, top, own = _layer_metrics(tracer, kinds, cli)

    def overhead(kind):
        a, b = _median(traced.cycle_means(kind)), _median(plain.cycle_means(kind))
        return 100.0 * (a / b - 1.0) if a and b else 0.0

    metrics["trace.overhead_pct"] = overhead("first")
    metrics["trace.overhead2_pct"] = overhead("second")
    attempts = plain.replicates + traced.replicates
    redrawn = plain.redrawn + traced.redrawn
    metrics["simulation.retry_ratio"] = (
        redrawn / (attempts + redrawn) if attempts else 0.0
    )
    if cli:
        metrics["simulation.thread_speedup"] = 0.0
        notes["simulation.thread_speedup"] = "no worker pool on cli-1e6"
        notes["simulation.retry_ratio"] = "no Monte Carlo replicates on cli-1e6"
    else:
        one = _median(plain.cycle_means("first"))
        two = _median(plain.cycle_means("second"))
        metrics["simulation.thread_speedup"] = one / two if two else 0.0
    probes, probe_notes = _probes(args.seed, args.smoke)
    metrics.update(probes)
    notes.update(probe_notes)

    _print_trace_report(metrics, notes, top, own, tracer, names, plain, traced)
    spans_path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({
        "environment": env,
        "missing": tracer.missing,
        "spans": [
            {"id": s.id, "parent": s.parent, "name": s.name, "thread": s.thread,
             "start_ns": s.start_ns, "end_ns": s.end_ns, "rows": s.rows,
             "iterations": s.iterations}
            for s in tracer.spans
        ],
    }))
    print(f"wrote {len(tracer.spans)} spans to {spans_path.relative_to(ROOT)}")

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return _result(failed == 0, attempted, failed,
                   {k: (v, _layer_unit(k)) for k, v in metrics.items()})


def _print_trace_report(metrics, notes, top, own, tracer, names, plain, traced):
    top_name = top[0].name if top else "top span"
    print(f"trace: {len(tracer.spans)} spans; top span {top_name}: "
          f"n={len(top)}, p50 {metrics['top.ms.p50']:.3f} ms, "
          f"p99 {metrics['top.ms.p99']:.3f} ms, self p50 {metrics['top.self_ms.p50']:.3f} ms")
    # self time plus direct children accounts for each top span
    total = sum(s.ms for s in top)
    if total:
        ids = {s.id for s in top}
        by_child: dict[str, float] = {}
        for s in tracer.spans:
            if s.parent in ids:
                by_child[s.name] = by_child.get(s.name, 0.0) + s.ms
        self_total = sum(own[s.id] for s in top)
        print(f"trace: {top_name} total {total:.1f} ms = self {self_total:.1f} ms "
              f"({100 * self_total / total:.1f}%)")
        for name, ms in sorted(by_child.items(), key=lambda kv: -kv[1]):
            print(f"trace:   + {name} {ms:.1f} ms ({100 * ms / total:.1f}%)")
    for kind, label in zip(("first", "second"), names):
        a, b = plain.cycle_means(kind), traced.cycle_means(kind)
        print(f"trace: {label} calls untraced median {_median(a):.4f} s (n={len(a)}), "
              f"traced median {_median(b):.4f} s (n={len(b)})")
    for key, value in metrics.items():
        print(f"layer {key} = {value!r}")
    for key, why in notes.items():
        print(f"layer {key}: unmeasured -- {why}")
    print("layer fileio.write_population_csv: out of scope -- no command calls it, "
          "and it is quadratic in the row count")


def main(argv=None) -> int:
    args = _parse_args(argv)
    import_s = _import_package()
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        if args.trace:
            line = run_traced(args, workdir)
        else:
            line = run_end_to_end(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
