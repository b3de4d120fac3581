"""Command-line front end.

Four subcommands:

``simulate1``
    Monte Carlo study on the continuous-outcome universe (measurement
    error scenarios); prints a bias/SE/RMSE table and optionally writes
    it as CSV.
``simulate2``
    Monte Carlo study on the categorical universe (membership must be
    classified before integrating).
``estimate``
    One-shot estimation from a probability-sample CSV plus a big-data
    CSV, with a choice of estimator.
``classify``
    Fit the membership mixture on the probability sample and label both
    files, writing the fitted tables alongside.

Every flag can also be supplied through ``--config FILE`` where the
file holds either JSON or ``key = value`` lines; explicit command-line
flags override the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .calibration import build_controls, regdi_total
from .classifier import classify, fit_membership, pdi2_total, posterior
from .estimators import BigDataTotals, ht_total, pdi_total, ratio_di_total
from .measurement import two_step_regdi
from .simulation import SimConfig, run_sim1, run_sim2, summary_rows

__all__ = ["main"]

def _coerce(text: str):
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text.strip()


def _load_config(path: str, keys) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"--config {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise SystemExit(f"--config {path}: not UTF-8 text: {exc.reason}") from None
    if raw.lstrip().startswith("{"):
        try:
            values = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"--config {path}: not valid JSON: {exc}") from None
    else:
        values = {}
        for line in raw.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, rest = line.partition("=")
            if not sep:
                raise SystemExit(f"--config {path}: line is not 'key = value': {line!r}")
            values[key.strip()] = _coerce(rest)
    normalized = {}
    for key, value in values.items():
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise SystemExit(f"--config {path}: unknown config key: {key!r}")
        normalized[key] = value
    return normalized


def _parse_big(text: str) -> tuple[int, int]:
    parts = text.split("/")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two sizes as n1/n2")
    return int(parts[0]), int(parts[1])


def _require(args, parser, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            parser.error(
                f"--{name.replace('_', '-')} is required "
                "(on the command line or in --config)"
            )


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="bigsurv",
        description="Finite-population estimation combining a probability "
        "sample with a big non-probability source.",
    )
    parser.add_argument(
        "--config", help="JSON or key=value file; command-line flags override"
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    commands = {}

    p1 = sub.add_parser(
        "simulate1", help="Monte Carlo study with measurement-error scenarios"
    )
    p1.add_argument("--scenario", type=int, choices=(1, 2, 3))
    p1.add_argument("--reps", type=int)
    p1.add_argument("--seed", type=int)
    p1.add_argument("--n-a", type=int, default=1000)
    p1.add_argument("--pop-n", type=int)
    p1.add_argument(
        "--big",
        type=_parse_big,
        metavar="N1/N2",
        help="per-stratum big-data sizes (default 30%%/20%% of the universe)",
    )
    p1.add_argument("--workers", type=int, default=1)
    p1.add_argument("--out", help="write the summary table as CSV")
    p1.set_defaults(func=cmd_simulate1)
    commands["simulate1"] = p1

    p2 = sub.add_parser(
        "simulate2", help="Monte Carlo study with classified membership"
    )
    p2.add_argument("--n-a", type=int)
    p2.add_argument("--reps", type=int)
    p2.add_argument("--seed", type=int)
    p2.add_argument("--pop-n", type=int)
    p2.add_argument("--big-n", type=int)
    p2.add_argument("--out", help="write the summary table as CSV")
    p2.set_defaults(func=cmd_simulate2)
    commands["simulate2"] = p2

    pe = sub.add_parser("estimate", help="estimate a population total from CSVs")
    pe.add_argument("--sample-a", help="probability-sample CSV (id,d,pi,y,...)")
    pe.add_argument("--big-data", help="big-data CSV (id,y[,z1..zK,multiplicity])")
    pe.add_argument(
        "--method",
        choices=("ht", "pdi", "ratio", "regdi", "two-step", "pdi2"),
    )
    pe.add_argument(
        "--controls",
        choices=("standard", "duplication", "proxy_ystar"),
        default="standard",
        help="calibration controls for --method regdi",
    )
    pe.add_argument(
        "--pop-n",
        type=int,
        help="universe size (default: rounded sum of design weights)",
    )
    pe.add_argument("--pi", type=float, help="membership rate for --method pdi2")
    pe.add_argument("--out", help="write the estimate as CSV")
    pe.set_defaults(func=cmd_estimate)
    commands["estimate"] = pe

    pc = sub.add_parser(
        "classify", help="label probable big-data members in both files"
    )
    pc.add_argument("--sample-a", help="probability-sample CSV with z columns")
    pc.add_argument("--big-data", help="big-data CSV with z columns")
    pc.add_argument("--pi", type=float, help="marginal membership rate N_b/N")
    pc.add_argument("--pop-n", type=int)
    pc.add_argument("--out", default="labels.csv")
    pc.set_defaults(func=cmd_classify)
    commands["classify"] = pc

    # accept --config on either side of the command name; the value is
    # peeked out of argv before parsing, so the flag itself is inert here
    for command in commands.values():
        command.add_argument(
            "--config", help="JSON or key=value file; command-line flags override"
        )

    return parser, commands


def _print_summary(summary) -> None:
    print(
        f"study={summary.study} scenario={summary.scenario} "
        f"replicates={summary.replicates} truth={summary.truth:.6f}"
    )
    print(f"{'estimator':<14}{'bias':>10}{'se':>10}{'rmse':>10}")
    for row in summary.rows:
        print(
            f"{row.estimator:<14}{row.bias:>10.4f}{row.se:>10.4f}{row.rmse:>10.4f}"
        )
    for row in summary.rows:
        if row.var_rel_bias is not None:
            print(f"variance relative bias ({row.estimator}): {row.var_rel_bias:+.4f}")
    if summary.failures:
        print(f"replicate failures redrawn: {summary.failures}")
    if summary.unconverged:
        print(f"EM fits stopped at max_iter: {summary.unconverged}")
    if summary.em_iterations_max:
        print(
            f"EM map evaluations per fit: median {summary.em_iterations_p50:g}, "
            f"p90 {summary.em_iterations_p90}, max {summary.em_iterations_max}"
        )


def _emit_summary(summary, out) -> None:
    _print_summary(summary)
    if out:
        fileio.write_summary_csv(out, summary_rows(summary))
        print(f"wrote {out}")


def cmd_simulate1(args, parser) -> int:
    _require(args, parser, "scenario", "reps", "seed")
    config = SimConfig(
        study="sim1",
        scenario=args.scenario,
        n_a=args.n_a,
        replicates=args.reps,
        master_seed=args.seed,
        pop_n=args.pop_n,
        stratum_sizes=args.big,
        workers=args.workers,
    )
    _emit_summary(run_sim1(config), args.out)
    return 0


def cmd_simulate2(args, parser) -> int:
    _require(args, parser, "n_a", "reps", "seed")
    config = SimConfig(
        study="sim2",
        n_a=args.n_a,
        replicates=args.reps,
        master_seed=args.seed,
        pop_n=args.pop_n,
        big_n=args.big_n,
    )
    _emit_summary(run_sim2(config), args.out)
    return 0


def _with_big_matches(sample, big):
    """The sample with ``y`` and ``delta`` filled in from the big source
    by unit id where the file lacks them: ``delta`` is 1 for a unit the
    big source holds, and ``y`` its big-data value (0 elsewhere)."""
    if sample.y is not None and sample.delta is not None:
        return sample
    order = np.argsort(big.unit_ids)
    pos = np.searchsorted(big.unit_ids, sample.unit_ids, sorter=order)
    pos = order[np.minimum(pos, order.size - 1)]
    found = big.unit_ids[pos] == sample.unit_ids
    return dataclasses.replace(
        sample,
        y=np.where(found, big.values[pos], 0.0) if sample.y is None else sample.y,
        delta=found.astype(np.int64) if sample.delta is None else sample.delta,
    )


def _read_inputs(args, values=True, z=True):
    """Read both input files; an id outside a default 1..N names --pop-n.
    ``values`` and ``z`` say whether the big file's value column and its
    ``z1..zK`` columns are read."""
    try:
        sample = fileio.read_sample_csv(args.sample_a, N=args.pop_n)
        return sample, fileio.read_big_data_csv(
            args.big_data, N=sample.N, values=values, z=z
        )
    except ValueError as exc:
        if args.pop_n is None and ": unit_ids must lie in 1.." in str(exc):
            exc.args = (f"{exc} (N is the rounded weight sum; pass --pop-n)",)
        raise


def cmd_estimate(args, parser) -> int:
    _require(args, parser, "sample_a", "big_data", "method")
    method = args.method
    # only the classified-membership estimator reads the big file's z
    sample, big = _read_inputs(args, z=method == "pdi2")
    value_col = sample.y if sample.y is not None else sample.y_star

    if method == "ht":
        if value_col is None:
            raise ValueError("ht needs a y or y_star column in the sample")
        report = ht_total(sample, value_col)
    elif method in ("pdi", "ratio", "regdi"):
        if sample.y is None:
            raise ValueError(f"{method} needs a y column in the sample")
        delta = _with_big_matches(sample, big).delta
        totals = BigDataTotals(T_b=big.total, N_b=big.N_b, N=sample.N)
        if method == "pdi":
            report = pdi_total(sample, delta, sample.y, totals)
        elif method == "ratio":
            report = ratio_di_total(sample, delta, sample.y, totals.T_b)
        else:
            known = {"delta": delta, "N": totals.N, "N_b": totals.N_b, "T_b": totals.T_b}
            if args.controls == "proxy_ystar":
                if sample.y_star is None:
                    raise ValueError("proxy_ystar controls need a y_star column")
                known["y_star"] = sample.y_star
            else:
                known["y"] = sample.y
            spec = build_controls(args.controls, **known)
            report = regdi_total(sample, sample.y, spec)
    elif method == "two-step":
        if sample.y_star is None:
            raise ValueError("two-step needs a y_star column in the sample")
        totals = BigDataTotals(T_b=big.total, N_b=big.N_b, N=sample.N)
        report = two_step_regdi(_with_big_matches(sample, big), totals)
    else:  # pdi2
        pi = args.pi if args.pi is not None else big.N_b / sample.N
        fit = fit_membership(sample, big, pi)
        report = pdi2_total(sample, big, *fit)

    if report.variance is None:
        report = dataclasses.replace(report, notes=report.notes + (
            "no variance: the pi are not all n/N, so the joint inclusion "
            "probabilities are unknown",
        ))
    _emit_estimate(report, args.out)
    return 0


def _emit_estimate(report, out) -> None:
    print(f"estimator: {report.estimator}")
    print(f"total:     {report.total!r}")
    print(f"mean:      {report.mean!r}")
    if report.variance is not None:
        print(f"variance:  {report.variance!r} (total scale)")
    if report.controls:
        print(f"controls:  {report.controls}")
    for note in report.notes:
        print(f"note:      {note}")
    if out:
        fileio.write_estimate_csv(out, report)
        print(f"wrote {out}")


def cmd_classify(args, parser) -> int:
    _require(args, parser, "sample_a", "big_data", "pi")
    # the mixture uses the big file's ids, z and multiplicities only
    sample, big = _read_inputs(args, values=False)
    fitted, post = fit_membership(sample, big, args.pi)

    out = Path(args.out)
    fileio.write_labels_csv(out, sample.unit_ids, post.p_hat, post.delta_hat)
    p_big = posterior(fitted, big.z)
    big_path = out.with_name(out.stem + "_big" + out.suffix)
    fileio.write_labels_csv(big_path, big.unit_ids, p_big, classify(p_big))
    model_path = out.with_suffix(".model.txt")
    fileio.write_classifier_model(model_path, fitted)

    print(
        f"fitted mixture in {post.iterations} iterations; "
        f"final log-likelihood {post.loglik_trace[-1]:.6f}"
    )
    if not post.converged:
        print("EM did not converge: it stopped at its iteration limit")
    print(
        f"labelled {int(post.delta_hat.sum())}/{sample.n} sampled units as members "
        f"(design-weighted member share {post.design_weighted_mean:.4f})"
    )
    print(f"wrote {out}, {big_path}, {model_path}")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()

    peek = argparse.ArgumentParser(add_help=False)
    peek.add_argument("--config")
    known, _ = peek.parse_known_args(argv)
    if known.config:
        # every destination a subcommand parses is a config key
        keys = {dest for sub in commands.values() for dest in vars(sub.parse_args([]))}
        overrides = _load_config(known.config, keys - {"func", "config"})
        for sub in commands.values():
            sub.set_defaults(**overrides)

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    # argparse checks choices on the command line only, so a value outside
    # them came from the config file
    for action in commands[args.command]._actions:
        value = getattr(args, action.dest, None)
        if action.choices and value is not None and value not in action.choices:
            raise SystemExit(
                f"--config {known.config}: {action.dest} = {value!r} is not one of "
                + ", ".join(map(str, action.choices))
            )
    try:
        # every file a command writes lands in --out's directory (classify's
        # _big and .model.txt files too): it is checked before any work
        parent = Path(args.out or ".").parent
        if not parent.is_dir():
            code = errno.ENOTDIR if parent.exists() else errno.ENOENT
            raise OSError(code, os.strerror(code), args.out)
        return args.func(args, commands[args.command])
    except (ValueError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            # name the flag whose value is the path, if one is
            flag = next((f"--{dest.replace('_', '-')} " for dest, value in vars(args).items()
                         if isinstance(value, str) and value == str(exc.filename)), "")
            exc = f"{flag}{exc.filename}: {exc.strerror}"
        raise SystemExit(f"{args.command}: {exc}") from None


if __name__ == "__main__":
    raise SystemExit(main())
