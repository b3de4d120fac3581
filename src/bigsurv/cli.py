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

Every flag can also be supplied through ``--config FILE``, before or
after the command name.  The file holds a JSON object, whose values must
be strings or numbers, or ``key = value`` lines; a key is a flag name
(``n-a`` or ``n_a`` for ``--n-a``).  The settings are put into the
argument list right after the command name, so argparse checks them as
it checks flags, and flags on the command line override them.  A key
that only another subcommand takes is skipped.
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

def _load_config(path: str, flags: set) -> list[tuple[str, str]]:
    """The file's settings in order, as ``(flag, text)`` pairs; a key that
    names none of ``flags`` is refused."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"--config {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise SystemExit(f"--config {path}: not UTF-8 text: {exc.reason}") from None
    if raw.lstrip().startswith("{"):
        try:
            pairs = json.loads(raw).items()
        except json.JSONDecodeError as exc:
            raise SystemExit(f"--config {path}: not valid JSON: {exc}") from None
    else:
        pairs = []
        for line in raw.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, rest = line.partition("=")
            if not sep:
                raise SystemExit(f"--config {path}: line is not 'key = value': {line!r}")
            pairs.append((key, rest.strip()))
    settings = []
    for key, value in pairs:
        key = key.strip()
        flag = "--" + key.replace("_", "-")
        if flag not in flags:
            raise SystemExit(f"--config {path}: unknown config key: {key!r}")
        # str(True) or str([600, 400]) is no flag's text
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise SystemExit(
                f"--config {path}: {key} = {json.dumps(value)} is not a string or a number"
            )
        settings.append((flag, str(value)))
    return settings


def _parse_big(text: str) -> tuple[int, int]:
    parts = text.split("/")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two sizes as n1/n2")
    return int(parts[0]), int(parts[1])


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="bigsurv",
        description="Finite-population estimation combining a probability "
        "sample with a big non-probability source.",
        allow_abbrev=False,
    )
    # main takes --config out of the argument list before parsing, on
    # either side of the command name; it is declared here for --help
    parser.add_argument(
        "--config", help="JSON or key=value file; command-line flags override"
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    commands = {}

    p1 = sub.add_parser(
        "simulate1", help="Monte Carlo study with measurement-error scenarios"
    )
    p1.add_argument("--scenario", type=int, choices=(1, 2, 3), required=True)
    p1.add_argument("--reps", dest="replicates", metavar="REPS", type=int, required=True)
    p1.add_argument("--seed", dest="master_seed", metavar="SEED", type=int, required=True)
    p1.add_argument("--n-a", type=int, default=1000)
    p1.add_argument("--pop-n", type=int)
    p1.add_argument(
        "--big",
        dest="stratum_sizes",
        type=_parse_big,
        metavar="N1/N2",
        help="per-stratum big-data sizes (default 30%%/20%% of the universe)",
    )
    p1.add_argument("--workers", type=int, default=1)
    p1.add_argument("--out", help="write the summary table as CSV")
    p1.set_defaults(func=cmd_simulate, study="sim1")
    commands["simulate1"] = p1

    p2 = sub.add_parser(
        "simulate2", help="Monte Carlo study with classified membership"
    )
    p2.add_argument("--n-a", type=int, required=True)
    p2.add_argument("--reps", dest="replicates", metavar="REPS", type=int, required=True)
    p2.add_argument("--seed", dest="master_seed", metavar="SEED", type=int, required=True)
    p2.add_argument("--pop-n", type=int)
    p2.add_argument("--big-n", type=int)
    p2.add_argument("--out", help="write the summary table as CSV")
    p2.set_defaults(func=cmd_simulate, study="sim2")
    commands["simulate2"] = p2

    pe = sub.add_parser("estimate", help="estimate a population total from CSVs")
    pe.add_argument("--sample-a", required=True, help="probability-sample CSV (id,d,pi,y,...)")
    pe.add_argument("--big-data", required=True, help="big-data CSV (id,y[,z1..zK,multiplicity])")
    pe.add_argument(
        "--method",
        choices=("ht", "pdi", "ratio", "regdi", "two-step", "pdi2"),
        required=True,
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
    pc.add_argument("--sample-a", required=True, help="probability-sample CSV with z columns")
    pc.add_argument("--big-data", required=True, help="big-data CSV with z columns")
    pc.add_argument("--pi", type=float, required=True, help="marginal membership rate N_b/N")
    pc.add_argument("--pop-n", type=int)
    pc.add_argument("--out", default="labels.csv")
    pc.set_defaults(func=cmd_classify)
    commands["classify"] = pc

    return parser, commands


def cmd_simulate(args) -> int:
    config = SimConfig(**{field.name: getattr(args, field.name)
                          for field in dataclasses.fields(SimConfig) if hasattr(args, field.name)})
    summary = (run_sim1 if config.study == "sim1" else run_sim2)(config)
    print(
        f"study={summary.study} scenario={summary.scenario} "
        f"replicates={summary.replicates} truth={summary.truth:.6f}"
    )
    print(f"{'estimator':<14}{'bias':>10}{'se':>10}{'rmse':>10}")
    for row in summary.rows:
        print(f"{row.estimator:<14}{row.bias:>10.4f}{row.se:>10.4f}{row.rmse:>10.4f}")
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
    if args.out:
        fileio.write_summary_csv(args.out, summary_rows(summary))
        print(f"wrote {args.out}")
    return 0


def _with_big_matches(sample, big):
    """The sample with ``y`` and ``delta`` filled in from the big source
    by unit id where the file lacks them: ``delta`` is a unit's
    ``multiplicity`` in the big source, and ``y`` its big-data value
    (both 0 for a unit the big source does not hold)."""
    if sample.y is not None and sample.delta is not None:
        return sample
    order = np.argsort(big.unit_ids)
    pos = np.searchsorted(big.unit_ids, sample.unit_ids, sorter=order)
    pos = order[np.minimum(pos, order.size - 1)]
    found = big.unit_ids[pos] == sample.unit_ids
    return dataclasses.replace(
        sample,
        y=np.where(found, big.values[pos], 0.0) if sample.y is None else sample.y,
        delta=np.where(found, big.multiplicity[pos], 0) if sample.delta is None else sample.delta,
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


def cmd_estimate(args) -> int:
    method = args.method
    # only the classified-membership estimator reads the big file's z
    sample, big = _read_inputs(args, z=method == "pdi2")

    if method == "ht":
        value_col = sample.y if sample.y is not None else sample.y_star
        if value_col is None:
            raise ValueError("ht needs a y or y_star column in the sample")
        report = ht_total(sample, value_col)
    elif method == "pdi2":
        pi = args.pi if args.pi is not None else big.N_b / sample.N
        report = pdi2_total(sample, big, *fit_membership(sample, big, pi))
    else:
        value = "y_star" if method == "two-step" else "y"
        if getattr(sample, value) is None:
            raise ValueError(f"{method} needs a {value} column in the sample")
        sample = _with_big_matches(sample, big)
        totals = BigDataTotals(T_b=big.total, N_b=big.N_b, N=sample.N)
        if method == "pdi":
            # pdi post-stratifies by units: the file's distinct units, its
            # row count and the sum of its values, which a dot with ones
            # gives in big.total's digits when every count is 1
            units = dataclasses.replace(
                totals, T_b=float(np.dot(np.ones(len(big)), big.values)), N_b=len(big)
            )
            report = pdi_total(sample, sample.delta, sample.y, units)
        elif method == "ratio":
            report = ratio_di_total(sample, sample.delta, sample.y, totals.T_b)
        elif method == "regdi":
            # each control set reads its own value column, y or y_star
            spec = build_controls(args.controls, delta=sample.delta, y=sample.y,
                                  y_star=sample.y_star, **dataclasses.asdict(totals))
            report = regdi_total(sample, sample.y, spec)
        else:
            report = two_step_regdi(sample, totals)

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


def cmd_classify(args) -> int:
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

    # abbreviations are off so that --con stays a prefix of --controls
    peek = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    peek.add_argument("--config")
    known, argv = peek.parse_known_args(argv)
    if known.config:
        flags = {name: {flag for action in sub._actions if action.dest != "help"
                        for flag in action.option_strings} for name, sub in commands.items()}
        settings = _load_config(known.config, set().union(*flags.values()))
        # the file's flags go right after the command name, the first word,
        # so the command's own flags, which come later, override them; a
        # key that only another command takes is skipped
        at = next((i + 1 for i, word in enumerate(argv) if not word.startswith("-")), 0)
        own = flags.get(argv[at - 1], ()) if at else ()
        argv[at:at] = [f"{flag}={text}" for flag, text in settings if flag in own]

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        # every file a command writes lands in --out's directory (classify's
        # _big and .model.txt files too): it is checked before any work
        out = Path(args.out or ".")
        if args.out and out.is_dir():
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
        if not out.parent.is_dir():
            code = errno.ENOTDIR if out.parent.exists() else errno.ENOENT
            raise OSError(code, os.strerror(code), args.out)
        return args.func(args)
    except (ValueError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            # name the flag whose value is the path, if one is
            flag = next((f"{a.option_strings[0]} " for a in commands[args.command]._actions
                         if getattr(args, a.dest, None) == str(exc.filename)), "")
            exc = f"{flag}{exc.filename}: {exc.strerror}"
        raise SystemExit(f"{args.command}: {exc}") from None


if __name__ == "__main__":
    raise SystemExit(main())
