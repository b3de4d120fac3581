"""End-to-end tests for the command-line front end, driven through
``main(argv)`` with files in a temporary directory."""

import csv
import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bigsurv
from bigsurv import (
    BigDataTotals,
    BigSample,
    ProbabilitySample,
    SRSJointInclusion,
    ht_total,
    pdi_total,
    ratio_di_total,
    read_big_data_csv,
    read_classifier_model,
    read_sample_csv,
    write_big_data_csv,
    write_sample_csv,
)
from bigsurv.cli import build_parser, main


def printed_value(out, label):
    match = re.search(rf"^{label}:\s+(\S+)", out, re.MULTILINE)
    assert match, f"no {label!r} line in output:\n{out}"
    return float(match.group(1))


@pytest.fixture()
def continuous_files(tmp_path):
    """A universe of 100 units, a big source covering ids 1..60, and an
    SRS of 10 units carrying y, a linear proxy, and membership flags."""
    rng = np.random.default_rng(42)
    ids = np.array([3, 7, 12, 25, 40, 55, 61, 70, 85, 99])
    y = rng.normal(3.0, 1.0, 10)
    y_star = 2.0 + 0.9 * y + rng.normal(0.0, 0.1, 10)
    delta = (ids <= 60).astype(np.int64)
    sample = ProbabilitySample(
        unit_ids=ids,
        d=np.full(10, 10.0),
        pi=np.full(10, 0.1),
        joint_pi=SRSJointInclusion(10, 100),
        N=100,
        design="srs",
        y=y,
        y_star=y_star,
        delta=delta,
    )
    big_values = rng.normal(3.0, 1.0, 60)
    for pos, unit in enumerate(ids):
        if unit <= 60:
            big_values[unit - 1] = y[pos]
    big = BigSample(
        unit_ids=np.arange(1, 61),
        values=big_values,
        multiplicity=np.ones(60, np.int64),
        N=100,
    )
    sample_path = tmp_path / "sample.csv"
    big_path = tmp_path / "big.csv"
    write_sample_csv(sample_path, sample)
    write_big_data_csv(big_path, big)
    return {"sample": sample_path, "big": big_path, "obj": sample, "big_obj": big}


@pytest.fixture()
def categorical_files(tmp_path):
    """A universe with two categorical traits where membership depends
    on the first trait, for the classification-based commands."""
    rng = np.random.default_rng(7)
    N = 200
    z = np.column_stack([rng.integers(1, 5, N), rng.integers(1, 4, N)])
    y_pop = 5.0 + 0.5 * z[:, 1] + rng.random(N)
    member = rng.random(N) < z[:, 0] / 6.0
    sampled = np.sort(rng.choice(N, size=40, replace=False))
    sample = ProbabilitySample(
        unit_ids=sampled + 1,
        d=np.full(40, 5.0),
        pi=np.full(40, 0.2),
        joint_pi=SRSJointInclusion(40, 200),
        N=200,
        design="srs",
        y=y_pop[sampled],
        z=z[sampled],
    )
    big = BigSample(
        unit_ids=np.flatnonzero(member) + 1,
        values=y_pop[member],
        multiplicity=np.ones(int(member.sum()), np.int64),
        N=200,
        z=z[member],
    )
    sample_path = tmp_path / "sample.csv"
    big_path = tmp_path / "big.csv"
    write_sample_csv(sample_path, sample)
    write_big_data_csv(big_path, big)
    return {"sample": sample_path, "big": big_path, "pi": float(member.mean())}


class TestEstimate:
    def test_ht_reports_total_mean_and_variance(self, continuous_files, capsys):
        code = main(
            [
                "estimate",
                "--sample-a",
                str(continuous_files["sample"]),
                "--big-data",
                str(continuous_files["big"]),
                "--method",
                "ht",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        sample = continuous_files["obj"]
        expected = ht_total(sample, sample.y).total
        assert printed_value(out, "total") == pytest.approx(expected, rel=1e-12)
        assert printed_value(out, "mean") == pytest.approx(expected / 100, rel=1e-12)
        assert "variance:" in out

    def test_post_stratified_and_calibrated_totals_agree(
        self, continuous_files, capsys
    ):
        """The calibration estimator with standard controls reproduces
        the post-stratified total exactly; the two commands must print
        the same number."""
        argv = [
            "estimate",
            "--sample-a",
            str(continuous_files["sample"]),
            "--big-data",
            str(continuous_files["big"]),
        ]
        main([*argv, "--method", "pdi"])
        pdi_out = capsys.readouterr().out
        main([*argv, "--method", "regdi", "--controls", "standard"])
        regdi_out = capsys.readouterr().out
        pdi_total_value = printed_value(pdi_out, "total")
        regdi_total_value = printed_value(regdi_out, "total")
        assert regdi_total_value == pytest.approx(pdi_total_value, rel=1e-9)
        assert printed_value(pdi_out, "variance") == pytest.approx(
            printed_value(regdi_out, "variance"), rel=1e-6
        )

    @staticmethod
    def _srs_files(tmp_path, y, big_values):
        """An SRS of units 1..n from N = 20 with outcomes ``y``, and a big
        file holding units 1..len(big_values)."""
        n = len(y)
        sample = ProbabilitySample(
            unit_ids=np.arange(1, n + 1),
            d=np.full(n, 20 / n),
            pi=np.full(n, n / 20),
            joint_pi=SRSJointInclusion(n, 20),
            N=20,
            design="srs",
            y=np.asarray(y, float),
        )
        big = BigSample(
            unit_ids=np.arange(1, len(big_values) + 1),
            values=np.asarray(big_values, float),
            multiplicity=np.ones(len(big_values), np.int64),
            N=20,
        )
        write_sample_csv(tmp_path / "sample.csv", sample)
        write_big_data_csv(tmp_path / "big.csv", big)
        argv = ["estimate", "--sample-a", str(tmp_path / "sample.csv"),
                "--big-data", str(tmp_path / "big.csv"), "--method", "pdi"]
        return sample, big, argv

    def test_pdi_on_full_coverage_prints_big_total_and_zero_variance(
        self, tmp_path, capsys
    ):
        """A big file holding every unit is the universe: the estimate is
        its total and no sampled value adds variance."""
        y = [1.5, 2.5, 0.5, 4.0, 3.0]
        big_values = np.arange(1.0, 21.0)
        big_values[:5] = y
        _, big, argv = self._srs_files(tmp_path, y, big_values)
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert printed_value(out, "total") == big.total
        assert "variance:  0.0 (total scale)" in out

    def test_pdi_with_collinear_matched_outcomes(self, tmp_path, capsys):
        """The three matched units share y = 2, so (delta, delta * y) is
        collinear, which calibration cannot take; the post-stratified
        estimate needs no calibration."""
        sample, big, argv = self._srs_files(
            tmp_path, [2.0, 2.0, 2.0, 5.0, 1.0, 3.5], [2.0, 2.0, 2.0]
        )
        assert main(argv) == 0
        out = capsys.readouterr().out
        delta = np.array([1, 1, 1, 0, 0, 0])
        expected = pdi_total(sample, delta, sample.y, BigDataTotals(6.0, 3, 20))
        assert printed_value(out, "total") == expected.total
        assert printed_value(out, "variance") == expected.variance

    def test_ratio_method_runs(self, continuous_files, capsys):
        code = main(
            [
                "estimate",
                "--sample-a",
                str(continuous_files["sample"]),
                "--big-data",
                str(continuous_files["big"]),
                "--method",
                "ratio",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ratio" in out
        sample, big = continuous_files["obj"], continuous_files["big_obj"]
        expected = ratio_di_total(sample, sample.delta, sample.y, big.total)
        assert printed_value(out, "total") == expected.total
        assert printed_value(out, "variance") == expected.variance > 0

    def test_estimate_writes_csv(self, continuous_files, tmp_path, capsys):
        out_path = tmp_path / "estimate.csv"
        main(
            [
                "estimate",
                "--sample-a",
                str(continuous_files["sample"]),
                "--big-data",
                str(continuous_files["big"]),
                "--method",
                "regdi",
                "--out",
                str(out_path),
            ]
        )
        printed = capsys.readouterr().out
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["estimator"] == "regdi"
        assert float(rows[0]["total"]) == printed_value(printed, "total")
        assert rows[0]["controls"] == "standard"

    def test_proxy_controls_rejected_without_proxy_column(self, tmp_path, capsys):
        sample_path = tmp_path / "sample.csv"
        sample_path.write_text(
            "id,d,pi,y\n1,5.0,0.2,1.0\n2,5.0,0.2,2.0\n3,5.0,0.2,3.0\n"
            "4,5.0,0.2,1.5\n"
        )
        big_path = tmp_path / "big.csv"
        big_path.write_text("id,y\n1,1.0\n2,2.0\n")
        with pytest.raises(SystemExit, match="y_star"):
            main(
                [
                    "estimate",
                    "--sample-a",
                    str(sample_path),
                    "--big-data",
                    str(big_path),
                    "--method",
                    "regdi",
                    "--controls",
                    "proxy_ystar",
                ]
            )

    def test_two_step_uses_sample_columns_when_present(
        self, continuous_files, capsys
    ):
        code = main(
            [
                "estimate",
                "--sample-a",
                str(continuous_files["sample"]),
                "--big-data",
                str(continuous_files["big"]),
                "--method",
                "two-step",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "two_step_regdi" in out
        assert "matched units" in out
        assert "variance:" in out

    def test_two_step_joins_against_big_source(self, continuous_files, tmp_path, capsys):
        """Without y or membership columns the command matches sample
        ids against the big extract to recover both."""
        sample = continuous_files["obj"]
        stripped = tmp_path / "proxy_only.csv"
        with open(stripped, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "d", "pi", "y_star"])
            for i in range(sample.n):
                writer.writerow(
                    [
                        int(sample.unit_ids[i]),
                        repr(float(sample.d[i])),
                        repr(float(sample.pi[i])),
                        repr(float(sample.y_star[i])),
                    ]
                )
        main(
            [
                "estimate",
                "--sample-a",
                str(continuous_files["sample"]),
                "--big-data",
                str(continuous_files["big"]),
                "--method",
                "two-step",
            ]
        )
        direct = printed_value(capsys.readouterr().out, "total")
        code = main(
            [
                "estimate",
                "--sample-a",
                str(stripped),
                "--big-data",
                str(continuous_files["big"]),
                "--method",
                "two-step",
            ]
        )
        joined_out = capsys.readouterr().out
        assert code == 0
        assert printed_value(joined_out, "total") == pytest.approx(direct, rel=1e-9)

    def test_two_step_requires_proxy_column(self, tmp_path):
        sample_path = tmp_path / "sample.csv"
        sample_path.write_text(
            "id,d,pi,y\n1,5.0,0.2,1.0\n2,5.0,0.2,2.0\n3,5.0,0.2,3.0\n"
            "4,5.0,0.2,1.5\n"
        )
        big_path = tmp_path / "big.csv"
        big_path.write_text("id,y\n1,1.0\n2,2.0\n")
        with pytest.raises(SystemExit, match="two-step needs a y_star"):
            main(
                [
                    "estimate",
                    "--sample-a",
                    str(sample_path),
                    "--big-data",
                    str(big_path),
                    "--method",
                    "two-step",
                ]
            )

    def test_membership_corrected_estimate_runs(self, categorical_files, capsys):
        code = main(
            [
                "estimate",
                "--sample-a",
                str(categorical_files["sample"]),
                "--big-data",
                str(categorical_files["big"]),
                "--method",
                "pdi2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "pdi2" in out
        total = printed_value(out, "total")
        assert np.isfinite(total)
        assert printed_value(out, "variance") > 0.0
        assert (
            "note:      variance treats the classified labels as known, so it is "
            "far too small: its relative bias is about -0.7 in study two\n"
        ) in out

    @pytest.mark.parametrize("side", ["sample", "big"])
    def test_byte_order_mark_gives_the_same_estimate(
        self, categorical_files, tmp_path, capsys, side
    ):
        def estimate(files, out):
            assert main(["estimate", "--method", "pdi2", "--sample-a", str(files["sample"]),
                         "--big-data", str(files["big"]), "--out", str(out)]) == 0
            return capsys.readouterr().out.replace(str(out), "OUT"), out.read_bytes()

        marked = {**categorical_files, side: tmp_path / f"marked_{side}.csv"}
        marked[side].write_bytes(b"\xef\xbb\xbf" + categorical_files[side].read_bytes())
        assert estimate(marked, tmp_path / "marked.csv") == estimate(
            categorical_files, tmp_path / "plain.csv"
        )

    def test_pdi2_requires_trait_columns(self, continuous_files):
        with pytest.raises(SystemExit, match="z columns"):
            main(
                [
                    "estimate",
                    "--sample-a",
                    str(continuous_files["sample"]),
                    "--big-data",
                    str(continuous_files["big"]),
                    "--method",
                    "pdi2",
                ]
            )

    @pytest.mark.parametrize("method", ["pdi", "ratio", "regdi", "two-step"])
    def test_inconsistent_files_exit_with_one_line(self, tmp_path, method):
        """A generic-design sample whose weights sum to N = 96 against a
        big file of units 1..50, each counted twice: N_b = 100 > N is bad
        input, not a crash."""
        sample_path = tmp_path / "sample.csv"
        sample_path.write_text(
            "id,d,pi,y,y_star,delta\n1,16.0,0.0625,1.0,1.5,1\n"
            "2,16.0,0.0625,2.0,2.5,0\n3,32.0,0.03125,3.0,3.5,1\n"
            "4,32.0,0.03125,1.5,2.0,0\n"
        )
        big_path = tmp_path / "big.csv"
        big_path.write_text(
            "id,y,multiplicity\n" + "".join(f"{i},1.0,2\n" for i in range(1, 51))
        )
        argv = ["estimate", "--sample-a", str(sample_path), "--big-data",
                str(big_path), "--method", method]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value.code)
        assert message.startswith("estimate: N_b cannot exceed the universe size N")
        assert "\n" not in message

    def test_singular_two_step_controls_exit_with_one_line(
        self, continuous_files, tmp_path
    ):
        """A proxy-only sample against a big file covering every unit
        leaves the uncovered control empty."""
        sample = continuous_files["obj"]
        proxy_only = tmp_path / "proxy_only.csv"
        proxy_only.write_text(
            "id,d,pi,y_star\n"
            + "".join(f"{i},10.0,0.1,{float(v)!r}\n"
                      for i, v in zip(sample.unit_ids, sample.y_star))
        )
        big_path = tmp_path / "big_full.csv"
        big_path.write_text("id,y\n" + "".join(f"{i},{i / 10}\n" for i in range(1, 101)))
        with pytest.raises(SystemExit, match=r"^estimate: controls with zero weighted norm"):
            main(["estimate", "--sample-a", str(proxy_only), "--big-data",
                  str(big_path), "--method", "two-step"])

    def test_big_data_id_outside_universe_exits_with_one_line(self, tmp_path):
        _, _, argv = self._srs_files(tmp_path, [1.5, 2.5, 0.5, 4.0, 3.0], [1.0])
        (tmp_path / "big.csv").write_text("id,y\n1,1.5\n0,2.0\n99,3.0\n-3,4.0\n")
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value.code)
        assert message == (
            f"estimate: {tmp_path / 'big.csv'}: unit_ids must lie in 1..20; found 0 "
            "(N is the rounded weight sum; pass --pop-n)"
        )

    @pytest.mark.parametrize(
        "name, row, message",
        [("sample.csv", "5,2.0,0.5,2.0,9", "data row 3 has 5 fields; the header has 4"),
         ("big.csv", "3,3.0,1,9", "data row 3 has 4 fields; the header has 3")],
    )
    def test_row_longer_than_its_header_exits_with_one_line(self, tmp_path, name, row, message):
        (tmp_path / "sample.csv").write_text("id,d,pi,y\n1,2.0,0.5,1.0\n3,2.0,0.5,3.0\n")
        (tmp_path / "big.csv").write_text("id,y,multiplicity\n1,1.0,2\n2,2.0,1\n")
        with open(tmp_path / name, "a") as fh:
            fh.write(row + "\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--sample-a", str(tmp_path / "sample.csv"), "--big-data",
                  str(tmp_path / "big.csv"), "--method", "ratio"])
        assert str(excinfo.value.code) == f"estimate: {tmp_path / name}: {message}"

    def test_big_data_id_above_weight_sum_names_pop_n(self, tmp_path, capsys):
        """Under a generic design the weight sum only estimates N, so an id
        above it is an error that points at --pop-n, which settles it."""
        (tmp_path / "sample.csv").write_text(
            "id,d,pi,y\n1,20.0,0.05,1.0\n2,32.0,0.03125,2.0\n"
            "3,25.0,0.04,3.0\n4,16.0,0.0625,4.0\n"
        )
        (tmp_path / "big.csv").write_text("id,y\n1,1.0\n2,2.0\n97,5.0\n")
        argv = ["estimate", "--sample-a", str(tmp_path / "sample.csv"),
                "--big-data", str(tmp_path / "big.csv"), "--method", "pdi"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert str(excinfo.value.code) == (
            f"estimate: {tmp_path / 'big.csv'}: unit_ids must lie in 1..93; found 97 "
            "(N is the rounded weight sum; pass --pop-n)"
        )
        assert main([*argv, "--pop-n", "100"]) == 0
        assert printed_value(capsys.readouterr().out, "total") > 0

    def test_sample_id_above_weight_sum_names_pop_n(self, tmp_path, capsys):
        """A sample id above the rounded weight sum gets the same hint as
        a big-file id, and --pop-n settles it."""
        (tmp_path / "sample.csv").write_text(
            "id,d,pi,y\n1,20.0,0.05,1.0\n2,32.0,0.03125,2.0\n"
            "3,25.0,0.04,3.0\n97,16.0,0.0625,4.0\n"
        )
        (tmp_path / "big.csv").write_text("id,y\n1,1.0\n2,2.0\n")
        argv = ["estimate", "--sample-a", str(tmp_path / "sample.csv"),
                "--big-data", str(tmp_path / "big.csv"), "--method", "pdi"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert str(excinfo.value.code) == (
            f"estimate: {tmp_path / 'sample.csv'}: unit_ids must lie in 1..93; found 97 "
            "(N is the rounded weight sum; pass --pop-n)"
        )
        assert main([*argv, "--pop-n", "100"]) == 0
        assert printed_value(capsys.readouterr().out, "total") > 0

    def test_negative_membership_exits_with_one_line(self, tmp_path):
        (tmp_path / "sample.csv").write_text(
            "id,d,pi,y,delta\n1,4.0,0.25,1.0,0\n2,4.0,0.25,2.0,-1\n"
        )
        (tmp_path / "big.csv").write_text("id,y\n1,1.0\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--sample-a", str(tmp_path / "sample.csv"),
                  "--big-data", str(tmp_path / "big.csv"), "--method", "pdi"])
        assert str(excinfo.value.code) == (
            f"estimate: {tmp_path / 'sample.csv'}: delta entries must be at least 0; found -1"
        )

    @pytest.mark.parametrize("method", ["ht", "pdi", "ratio", "regdi", "two-step"])
    def test_generic_design_says_why_no_variance(self, tmp_path, capsys, method):
        """Unequal pi attach no joint inclusion probabilities, so no
        variance is printed, and one note says why."""
        (tmp_path / "sample.csv").write_text(
            "id,d,pi,y,y_star\n1,20.0,0.05,1.0,1.5\n2,32.0,0.03125,2.0,2.5\n"
            "3,25.0,0.04,3.0,3.5\n4,16.0,0.0625,4.0,4.5\n5,10.0,0.1,2.5,3.5\n"
        )
        (tmp_path / "big.csv").write_text("id,y\n1,1.0\n2,2.0\n50,5.0\n")
        argv = ["estimate", "--sample-a", str(tmp_path / "sample.csv"),
                "--big-data", str(tmp_path / "big.csv"), "--method", method]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "variance:  " not in out
        no_variance = [line for line in out.splitlines() if "no variance" in line]
        assert no_variance == [
            "note:      no variance: the pi are not all n/N, so the joint "
            "inclusion probabilities are unknown"
        ]

    def test_srs_design_prints_no_missing_variance_note(self, tmp_path, capsys):
        _, _, argv = self._srs_files(tmp_path, [1.5, 2.5, 0.5, 4.0, 3.0], [1.5])
        assert main(argv) == 0
        assert "no variance" not in capsys.readouterr().out

    def test_bad_column_exits_with_one_line_naming_it(self, continuous_files, tmp_path):
        sample_path = tmp_path / "sample.csv"
        sample_path.write_text("id,d,pi,y\n1,5.0,0.2,1.0\n2,5.0,0.2,nan\n")
        with pytest.raises(
            SystemExit, match=r"^estimate: .*sample\.csv: column 'y' holds a non-finite"
        ):
            main(["estimate", "--sample-a", str(sample_path), "--big-data",
                  str(continuous_files["big"]), "--method", "ht"])

    @pytest.mark.parametrize(
        "text, extra, message",
        [
            # the weights round to N = 0
            ("id,d,pi,y\n1,0.2,5.0,1.0\n", [], "inclusion probabilities"),
            (
                "id,d,pi,y\n1,2.0,0.5,1.0\n2,2.0,0.5,2.0\n3,2.0,0.5,3.0\n",
                ["--pop-n", "2"],
                "universe size N = 2 is below the sample size 3",
            ),
        ],
    )
    def test_sample_larger_than_universe_exits_with_one_line(
        self, continuous_files, tmp_path, text, extra, message
    ):
        sample_path = tmp_path / "sample.csv"
        sample_path.write_text(text)
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--sample-a", str(sample_path), "--big-data",
                  str(continuous_files["big"]), "--method", "ht", *extra])
        text = str(excinfo.value.code)
        assert text.startswith(f"estimate: {sample_path}: {message}")
        assert "\n" not in text

    def test_controls_prefix_is_not_taken_for_config(self, continuous_files, capsys):
        """``--con`` abbreviates ``--controls``; ``--config`` takes no prefix."""
        code = main(["estimate", "--sample-a", str(continuous_files["sample"]), "--big-data",
                     str(continuous_files["big"]), "--method", "regdi", "--con", "duplication"])
        assert code == 0
        assert "controls:  duplication" in capsys.readouterr().out

    def test_missing_required_flag_exits_with_usage_error(self, continuous_files):
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--sample-a", str(continuous_files["sample"])])
        assert excinfo.value.code == 2


    @pytest.mark.parametrize(
        "header, flags, message",
        [
            ("id,d,pi", ["--method", "ht"], "ht needs a y or y_star column in the sample"),
            ("id,d,pi,y_star", ["--method", "pdi"], "pdi needs a y column in the sample"),
            ("id,d,pi,y", ["--method", "regdi", "--controls", "proxy_ystar"],
             "proxy_ystar controls need a y_star column"),
            ("id,d,pi,y", ["--method", "two-step"],
             "two-step needs a y_star column in the sample"),
        ],
    )
    def test_missing_column_messages_name_the_command(self, tmp_path, header, flags, message):
        sample_path = tmp_path / "sample.csv"
        rows = "".join(f"{i},5.0,0.2" + ",1.0" * (header.count(",") - 2) + "\n" for i in (1, 2))
        sample_path.write_text(f"{header}\n{rows}")
        big_path = tmp_path / "big.csv"
        big_path.write_text("id,y\n1,1.0\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--sample-a", str(sample_path), "--big-data", str(big_path),
                  *flags])
        assert excinfo.value.code == f"estimate: {message}"

    @staticmethod
    def _count_files(tmp_path):
        """A universe of 400 with a big source of 200 units counted
        ``1 + [y > 3] + [y > 4]`` times, and an SRS of 60 carrying y,
        a proxy and two traits, written with ``delta`` as each unit's
        count (``with.csv``) and without it (``without.csv``)."""
        rng = np.random.default_rng(26)
        N = 400
        y = rng.normal(3.0, 1.0, N)
        z = np.column_stack([rng.integers(1, 5, N), rng.integers(1, 4, N)])
        members = np.sort(rng.choice(N, size=200, replace=False))
        count = np.zeros(N, np.int64)
        count[members] = 1 + (y[members] > 3) + (y[members] > 4)
        write_big_data_csv(tmp_path / "big.csv", BigSample(
            unit_ids=members + 1, values=y[members], multiplicity=count[members],
            N=N, z=z[members],
        ))
        idx = np.sort(rng.choice(N, size=60, replace=False))
        sample = ProbabilitySample(
            unit_ids=idx + 1, d=np.full(60, N / 60), pi=np.full(60, 60 / N),
            joint_pi=SRSJointInclusion(60, N), N=N, design="srs", y=y[idx],
            y_star=2.0 + 0.9 * y[idx] + rng.normal(0.0, 0.3, 60), delta=count[idx],
            z=z[idx],
        )
        assert (sample.delta > 1).any()
        write_sample_csv(tmp_path / "with.csv", sample)
        write_sample_csv(tmp_path / "without.csv", dataclasses.replace(sample, delta=None))

    @pytest.mark.parametrize(
        "flags",
        [
            ["--method", "ht"],
            ["--method", "pdi"],
            ["--method", "ratio"],
            ["--method", "regdi", "--controls", "standard"],
            ["--method", "regdi", "--controls", "duplication"],
            ["--method", "regdi", "--controls", "proxy_ystar"],
            ["--method", "two-step"],
            ["--method", "pdi2", "--pi", "0.5"],
        ],
        ids=lambda flags: "-".join(flags[1::2]),
    )
    def test_sample_without_delta_gets_the_big_file_counts(self, tmp_path, capsys, flags):
        """A sample file without ``delta`` is joined to the big file by id,
        each matched unit taking its ``multiplicity``: it prints the total
        and variance of the same file with ``delta`` holding those counts."""
        self._count_files(tmp_path)
        printed = []
        for name in ("with.csv", "without.csv"):
            assert main(["estimate", "--sample-a", str(tmp_path / name),
                         "--big-data", str(tmp_path / "big.csv"), *flags]) == 0
            out = capsys.readouterr().out
            printed.append((printed_value(out, "total"), printed_value(out, "variance")))
        assert printed[0] == printed[1]

    def test_pdi_post_stratifies_by_the_big_files_distinct_units(self, tmp_path, capsys):
        """pdi takes the big file's row count and the sum of its values,
        whatever the multiplicities: on a file with duplicated units it
        prints the in-memory pdi_total of those distinct-unit totals, and on
        the same file with every count 1 the digits of the counted totals,
        which are then the same numbers."""
        self._count_files(tmp_path)
        sample = read_sample_csv(tmp_path / "with.csv")
        big = read_big_data_csv(tmp_path / "big.csv", N=sample.N)
        assert big.N_b > len(big)
        argv = ["estimate", "--sample-a", str(tmp_path / "with.csv"),
                "--big-data", str(tmp_path / "big.csv"), "--method", "pdi"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        want = pdi_total(sample, sample.delta, sample.y,
                         BigDataTotals(T_b=float(big.values.sum()), N_b=len(big), N=sample.N))
        assert printed_value(out, "total") == pytest.approx(want.total, rel=1e-12)
        assert printed_value(out, "variance") == pytest.approx(want.variance, rel=1e-12)

        once = dataclasses.replace(big, multiplicity=np.ones(len(big), np.int64))
        write_big_data_csv(tmp_path / "big.csv", once)
        assert main(argv) == 0
        out = capsys.readouterr().out
        counted = pdi_total(sample, sample.delta, sample.y,
                            BigDataTotals(T_b=once.total, N_b=once.N_b, N=sample.N))
        assert f"total:     {counted.total!r}\n" in out
        assert f"variance:  {counted.variance!r} (total scale)\n" in out


class TestClassify:
    def test_writes_labels_for_both_files_and_a_model(
        self, categorical_files, tmp_path, capsys
    ):
        out_path = tmp_path / "labels.csv"
        code = main(
            [
                "classify",
                "--sample-a",
                str(categorical_files["sample"]),
                "--big-data",
                str(categorical_files["big"]),
                "--pi",
                str(categorical_files["pi"]),
                "--out",
                str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fitted mixture" in out
        assert "did not converge" not in out
        big_labels = tmp_path / "labels_big.csv"
        model_path = tmp_path / "labels.model.txt"
        assert out_path.exists() and big_labels.exists() and model_path.exists()
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["id", "p_hat", "delta_hat"]
        assert len(rows) == 40
        assert all(0.0 <= float(r["p_hat"]) <= 1.0 for r in rows)
        model = read_classifier_model(model_path)
        assert model.pi == pytest.approx(categorical_files["pi"])
        assert model.levels == (4, 3)

    def test_unconverged_fit_is_printed(
        self, categorical_files, tmp_path, capsys, monkeypatch
    ):
        """A fit that stops at its iteration limit says so on stdout."""
        monkeypatch.setattr(
            bigsurv.classifier, "em_fit",
            functools.partial(bigsurv.classifier.em_fit, max_iter=1),
        )
        code = main(["classify", "--sample-a", str(categorical_files["sample"]),
                     "--big-data", str(categorical_files["big"]),
                     "--pi", str(categorical_files["pi"]),
                     "--out", str(tmp_path / "labels.csv")])
        out = capsys.readouterr().out
        assert code == 0
        assert "fitted mixture in 1 iterations" in out
        assert "EM did not converge: it stopped at its iteration limit" in out

    @staticmethod
    def _classify_outputs(sample, big, pi, out_dir):
        out_dir.mkdir()
        out = out_dir / "labels.csv"
        assert main(["classify", "--sample-a", str(sample), "--big-data", str(big),
                     "--pi", str(pi), "--out", str(out)]) == 0
        return [path.read_bytes() for path in
                (out, out_dir / "labels_big.csv", out_dir / "labels.model.txt")]

    @pytest.mark.parametrize("value_cell", [None, "n/a"])
    def test_big_file_value_column_is_not_read(
        self, categorical_files, tmp_path, capsys, value_cell
    ):
        """classify uses the big file's ids and z only: without a ``y``
        column, or with one that does not parse, it writes the same bytes."""
        with open(categorical_files["big"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        lean = tmp_path / "lean.csv"
        with open(lean, "w", newline="") as fh:
            names = ["id", "z1", "z2"] if value_cell is None else ["id", "y", "z1", "z2"]
            writer = csv.DictWriter(fh, names, extrasaction="ignore")
            writer.writeheader()
            writer.writerows({**r, "y": value_cell} for r in rows)
        sample, pi = categorical_files["sample"], categorical_files["pi"]
        full = self._classify_outputs(sample, categorical_files["big"], pi, tmp_path / "full")
        assert self._classify_outputs(sample, lean, pi, tmp_path / "lean") == full

    def test_estimate_still_needs_the_big_value_column(self, categorical_files, tmp_path):
        lean = tmp_path / "lean.csv"
        lean.write_text("id,z1,z2\n1,1,1\n2,2,2\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--sample-a", str(categorical_files["sample"]),
                  "--big-data", str(lean), "--method", "regdi"])
        assert str(excinfo.value.code).endswith("needs a non-empty 'y' or 'y_star' column")

    @staticmethod
    def _big_file_with_z(categorical_files, path, z_cell):
        """The fixture's big file without its z columns (``z_cell`` None) or
        with every ``z1`` cell replaced by ``z_cell``."""
        with open(categorical_files["big"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        names = ["id", "y", "multiplicity"] if z_cell is None else list(rows[0])
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, names, extrasaction="ignore")
            writer.writeheader()
            writer.writerows({**r, "z1": z_cell} for r in rows)
        return path

    @pytest.mark.parametrize("z_cell", [None, "n/a"])
    @pytest.mark.parametrize("method", ["ht", "pdi", "ratio", "regdi"])
    def test_estimate_reads_big_z_for_pdi2_only(
        self, categorical_files, tmp_path, capsys, method, z_cell
    ):
        """Only pdi2 uses the big file's z: without z columns, or with a z
        that does not parse, every other method prints the same report."""
        lean = self._big_file_with_z(categorical_files, tmp_path / "lean.csv", z_cell)
        argv = ["estimate", "--sample-a", str(categorical_files["sample"]),
                "--method", method, "--big-data"]
        assert main([*argv, str(categorical_files["big"])]) == 0
        full = capsys.readouterr().out
        assert main([*argv, str(lean)]) == 0
        assert capsys.readouterr().out == full
        assert printed_value(full, "total") > 0

    def test_pdi2_still_needs_the_big_z(self, categorical_files, tmp_path):
        argv = ["estimate", "--sample-a", str(categorical_files["sample"]),
                "--method", "pdi2", "--big-data"]
        no_z = self._big_file_with_z(categorical_files, tmp_path / "no_z.csv", None)
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, str(no_z)])
        assert str(excinfo.value.code) == "estimate: the big source has no z columns"
        bad_z = self._big_file_with_z(categorical_files, tmp_path / "bad_z.csv", "n/a")
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, str(bad_z)])
        assert str(excinfo.value.code).startswith(f"estimate: {bad_z}: column 'z1': ")

    @pytest.mark.parametrize("level", [0, -1])
    @pytest.mark.parametrize("side", ["sample", "big"])
    @pytest.mark.parametrize("command", ["classify", "estimate"])
    def test_z_level_below_one_names_the_file_and_column(
        self, categorical_files, tmp_path, command, side, level
    ):
        path = tmp_path / f"bad_{side}.csv"
        with open(categorical_files[side], newline="") as fh:
            rows = list(csv.reader(fh))
        rows[2][rows[0].index("z1")] = str(level)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        files = {**categorical_files, side: path}
        flags = {"classify": ["--pi", "0.5", "--out", str(tmp_path / "labels.csv")],
                 "estimate": ["--method", "pdi2"]}[command]
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--sample-a", str(files["sample"]), "--big-data", str(files["big"]),
                  *flags])
        assert str(excinfo.value.code) == (
            f"{command}: {path}: column 'z1' holds {level}; z levels start at 1"
        )

    @pytest.mark.parametrize("side", ["probability sample", "big source"])
    def test_missing_trait_columns_exit_with_one_line(
        self, categorical_files, tmp_path, side
    ):
        files = {"probability sample": categorical_files["sample"],
                 "big source": categorical_files["big"]}
        files[side] = tmp_path / "no_z.csv"
        # weights summing to the fixture's N = 200, so every big-data id fits
        files[side].write_text("id,d,pi,y\n1,100.0,0.01,1.0\n2,100.0,0.01,2.0\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["classify", "--sample-a", str(files["probability sample"]),
                  "--big-data", str(files["big source"]), "--pi", "0.5"])
        assert str(excinfo.value.code) == f"classify: the {side} has no z columns"


class TestSimulateCommands:
    def test_simulate1_prints_table_and_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "summary.csv"
        code = main(
            [
                "simulate1",
                "--scenario",
                "2",
                "--reps",
                "4",
                "--seed",
                "5",
                "--n-a",
                "80",
                "--pop-n",
                "2000",
                "--big",
                "600/400",
                "--out",
                str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "study=sim1 scenario=2 replicates=4" in out
        assert "variance relative bias" in out
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["estimator"] for r in rows] == ["mean_a", "mean_b", "pdi", "regdi"]

    def test_simulate2_prints_table_and_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "summary.csv"
        code = main(
            [
                "simulate2",
                "--n-a",
                "60",
                "--reps",
                "4",
                "--seed",
                "6",
                "--pop-n",
                "400",
                "--big-n",
                "200",
                "--out",
                str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "study=sim2 scenario=n_a=60 replicates=4" in out
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["estimator"] for r in rows] == [
            "mean_a",
            "mean_b",
            "naive_di",
            "proposed_di",
            "original_di",
        ]


    def test_simulate2_prints_em_map_evaluations(self, capsys, monkeypatch):
        """Capped at one map evaluation, every fit's count is 1."""
        monkeypatch.setattr(
            bigsurv.classifier, "_em_stack",
            functools.partial(bigsurv.classifier._em_stack, max_iter=1),
        )
        code = main(["simulate2", "--n-a", "60", "--reps", "4", "--seed", "6",
                     "--pop-n", "400", "--big-n", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "EM map evaluations per fit: median 1, p90 1, max 1\n" in out

    def test_simulate2_prints_fits_stopped_at_max_iter(self, capsys, monkeypatch):
        monkeypatch.setattr(
            bigsurv.classifier, "_em_stack",
            functools.partial(bigsurv.classifier._em_stack, max_iter=1),
        )
        code = main(["simulate2", "--n-a", "60", "--reps", "4", "--seed", "6",
                     "--pop-n", "400", "--big-n", "200"])
        assert code == 0
        assert "EM fits stopped at max_iter: 4" in capsys.readouterr().out

    def test_simulate1_oversized_stratum_exits_with_one_line(self):
        """Asking a stratum for more units than it holds is bad input:
        the command ends with a message naming the parameter, not a
        traceback."""
        src = Path(bigsurv.__file__).resolve().parents[1]
        proc = subprocess.run(
            [
                sys.executable, "-m", "bigsurv.cli", "simulate1",
                "--scenario", "1", "--seed", "3", "--pop-n", "2000",
                "--big", "1500/10", "--reps", "5",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert proc.returncode == 1
        assert "stratum_sizes" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            (command, flags, message)
            for command in ("simulate1", "simulate2")
            for flags, message in [
                (["--reps", "1"], "replicates must be at least 2, not 1"),
                (["--reps", "0"], "replicates must be at least 2, not 0"),
                (["--reps", "4", "--pop-n", "0"], "pop_n must be at least 1, not 0"),
                (["--reps", "4", "--n-a", "0"],
                 "n_a must be between 1 and pop_n = 400, not 0"),
                (["--reps", "4", "--n-a", "401"],
                 "n_a must be between 1 and pop_n = 400, not 401"),
            ]
        ]
        + [
            ("simulate1", ["--reps", "4", "--workers", "0"],
             "workers must be at least 1, not 0"),
            ("simulate1", ["--reps", "4", "--workers", "-1"],
             "workers must be at least 1, not -1"),
        ],
    )
    def test_unrunnable_study_settings_end_in_one_line(self, command, flags, message):
        """Too few replicates, no worker, an empty universe or a sample
        size outside it ends the command with one line naming the setting,
        before any replicate runs.  The flags come last, so a bad
        ``--n-a`` overrides simulate2's own."""
        argv = [command, "--seed", "1", "--pop-n", "400"]
        argv += ["--scenario", "1"] if command == "simulate1" else ["--n-a", "60"]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, *flags])
        assert str(excinfo.value) == f"{command}: {message}"

    def test_simulate2_has_no_workers_flag(self, capsys):
        """Study two runs on the calling thread, so a thread count is an
        unknown flag, not a setting it would ignore."""
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate2", "--seed", "1", "--reps", "4", "--n-a", "60",
                  "--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_unreachable_big_n_is_named(self):
        """Whether ``big_n`` can be reached depends on the drawn universe,
        so the error comes from the run, and names the setting."""
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate2", "--seed", "1", "--reps", "2", "--pop-n", "200",
                  "--n-a", "60", "--big-n", "500"])
        assert str(excinfo.value) == (
            "simulate2: target size 500 needs rate 3.300 > 1 in the high arm; "
            "big_n = 500 cannot be reached at pop_n = 200"
        )

    def test_empty_big_source_ends_in_one_line(self):
        """``--big-n 0`` is refused by name, not run at the default size."""
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate2", "--seed", "1", "--reps", "4", "--pop-n", "400",
                  "--n-a", "60", "--big-n", "0"])
        assert str(excinfo.value) == "simulate2: big_n must be at least 1, not 0"

    def test_simulate2_infeasible_selection_exits_with_one_line(self):
        """A big source as large as the universe needs an inclusion rate
        above one: bad input, ended with one line."""
        src = Path(bigsurv.__file__).resolve().parents[1]
        proc = subprocess.run(
            [
                sys.executable, "-m", "bigsurv.cli", "simulate2",
                "--n-a", "60", "--reps", "2", "--seed", "1", "--pop-n", "400",
                "--big-n", "400",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("simulate2: target size 400 needs rate")
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1


def command_argv(command, sample, big, out=None):
    """A runnable ``command`` on the input files ``sample`` and ``big``,
    writing to ``out`` when given."""
    argv = {
        "simulate1": ["simulate1", "--scenario", "1", "--reps", "2", "--seed", "1",
                      "--pop-n", "2000", "--n-a", "50"],
        "simulate2": ["simulate2", "--n-a", "50", "--reps", "2", "--seed", "1",
                      "--pop-n", "400"],
        "estimate": ["estimate", "--sample-a", str(sample), "--big-data", str(big),
                     "--method", "pdi2"],
        "classify": ["classify", "--sample-a", str(sample), "--big-data", str(big),
                     "--pi", "0.5"],
    }[command]
    return argv + ["--out", str(out)] if out else argv


class TestPathFaults:
    """A path the command cannot read or write ends it with one line that
    names the flag and the path, and no traceback."""

    @pytest.mark.parametrize("command", ["estimate", "classify"])
    @pytest.mark.parametrize("flag", ["--sample-a", "--big-data"])
    @pytest.mark.parametrize(
        "kind, reason", [("missing", "No such file or directory"), ("dir", "Is a directory")]
    )
    def test_unreadable_input(self, categorical_files, tmp_path, command, flag, kind, reason):
        bad = tmp_path / "nope.csv"
        if kind == "dir":
            bad.mkdir()
        sample, big = categorical_files["sample"], categorical_files["big"]
        if flag == "--sample-a":
            sample = bad
        else:
            big = bad
        with pytest.raises(SystemExit) as excinfo:
            main(command_argv(command, sample, big, tmp_path / "out.csv"))
        assert excinfo.value.code == f"{command}: {flag} {bad}: {reason}"

    @pytest.mark.parametrize("command", ["simulate1", "simulate2", "estimate", "classify"])
    @pytest.mark.parametrize(
        "parent, reason", [("missing", "No such file or directory"), ("file", "Not a directory"),
                           ("dir", "Is a directory")]
    )
    def test_out_in_no_directory_fails_before_any_work(
        self, categorical_files, tmp_path, monkeypatch, command, parent, reason
    ):
        """The output directory, and that --out is not itself a directory,
        are checked before any input is read or any population is built."""
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        out = tmp_path / parent if parent == "dir" else tmp_path / parent / "x.csv"

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output path was checked")

        for module, name in [
            (bigsurv.fileio, "read_sample_csv"), (bigsurv.fileio, "read_big_data_csv"),
            (bigsurv.simulation, "_sim1_outcome"),
            (bigsurv.simulation, "generate_population_sim2"),
        ]:
            monkeypatch.setattr(module, name, no_work)
        argv = command_argv(command, categorical_files["sample"], categorical_files["big"], out)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == f"{command}: --out {out}: {reason}"

    def test_out_named_like_the_command_is_named_as_out(self, tmp_path, monkeypatch):
        """The flag named is the one whose value is the path, not another
        setting with the same text."""
        monkeypatch.chdir(tmp_path)
        Path("simulate1").mkdir()
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate1", "--scenario", "1", "--reps", "2", "--seed", "1",
                  "--out", "simulate1"])
        assert excinfo.value.code == "simulate1: --out simulate1: Is a directory"

    def test_sibling_output_that_cannot_be_written_is_named(self, categorical_files, tmp_path):
        """classify's model file sits beside --out; a directory in its place
        ends the command with one line naming that path."""
        out = tmp_path / "labels.csv"
        (tmp_path / "labels.model.txt").mkdir()
        argv = command_argv(
            "classify", categorical_files["sample"], categorical_files["big"], out
        )
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == f"classify: {tmp_path / 'labels.model.txt'}: Is a directory"

    def test_no_traceback_from_the_console_command(self, tmp_path):
        """Run as a program, a missing input prints one line on stderr and
        exits with status 1."""
        src = Path(bigsurv.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "bigsurv.cli", "estimate", "--sample-a", "nope.csv",
             "--big-data", "nope.csv", "--method", "ht"],
            capture_output=True, text=True, cwd=tmp_path, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 1
        assert proc.stderr == "estimate: --sample-a nope.csv: No such file or directory\n"


class TestConfigFile:
    def test_key_value_config_fills_required_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "scenario = 2\nreps = 3\nseed = 9\nn-a = 80\npop-n = 2000\n"
            "big = 600/400\n"
        )
        code = main(["simulate1", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "study=sim1 scenario=2 replicates=3" in out

    def test_command_line_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "scenario = 2\nreps = 3\nseed = 9\nn-a = 80\npop-n = 2000\n"
            "big = 600/400\n"
        )
        main(["simulate1", "--config", str(cfg), "--scenario", "1", "--reps", "2"])
        out = capsys.readouterr().out
        assert "study=sim1 scenario=1 replicates=2" in out

    def test_json_config(self, continuous_files, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "sample-a": str(continuous_files["sample"]),
                    "big-data": str(continuous_files["big"]),
                    "method": "ht",
                }
            )
        )
        code = main(["estimate", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "estimator: ht" in out

    @pytest.mark.parametrize(
        "flag",
        sorted({
            option[2:]
            for command in build_parser()[1].values()
            for action in command._actions
            for option in action.option_strings
            if option.startswith("--") and option not in ("--help", "--config")
        }),
    )
    def test_every_subcommand_flag_is_a_config_key(self, tmp_path, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag} = 1\n")
        assert main(["--config", str(cfg)]) == 2  # no command: help, not a key error

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bootstrap = yes\n")
        with pytest.raises(SystemExit, match="unknown config key"):
            main(["simulate1", "--config", str(cfg)])

    def test_removed_regenerate_population_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("regenerate_population = true\n")
        with pytest.raises(SystemExit, match="unknown config key: 'regenerate_population'"):
            main(["simulate1", "--config", str(cfg)])

    def test_missing_config_file_exits_with_one_line(self, tmp_path):
        cfg = tmp_path / "missing.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate1", "--config", str(cfg)])
        assert excinfo.value.code == f"--config {cfg}: No such file or directory"

    @pytest.mark.parametrize(
        "content, reason", [(b"{oops", "not valid JSON"), (b"\xff{", "not UTF-8 text")]
    )
    def test_unreadable_config_exits_with_one_line(self, tmp_path, content, reason):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(content)
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate1", "--config", str(cfg)])
        message = str(excinfo.value.code)
        assert message.startswith(f"--config {cfg}: {reason}: ")
        assert "\n" not in message

    def test_config_value_outside_the_choices_rejected_by_name(
        self, continuous_files, tmp_path, capsys
    ):
        """A config value goes through argparse as a flag does, so argparse
        refuses a value outside the choices, naming the flag."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = bogus\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--config", str(cfg), "--sample-a",
                  str(continuous_files["sample"]), "--big-data", str(continuous_files["big"])])
        assert excinfo.value.code == 2
        assert "argument --method: invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, flag",
        [("scenario = true", "--scenario"), ("reps = 2.0", "--reps"),
         ("workers = 1.5", "--workers"), ("n-a = 5e1", "--n-a")],
    )
    def test_config_value_of_the_wrong_type_is_a_usage_error(self, tmp_path, capsys, line, flag):
        """``true`` is no scenario and ``2.0`` no replicate count: each is
        refused as the same text on the command line would be."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"scenario = 1\nreps = 2\nseed = 1\npop-n = 2000\n{line}\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate1", "--config", str(cfg)])
        assert excinfo.value.code == 2
        assert f"argument {flag}: invalid int value: '{line.split(' = ')[1]}'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "key, value, shown", [("big", [600, 400], "[600, 400]"), ("pop-n", None, "null"),
                              ("scenario", True, "true")],
    )
    def test_json_value_that_is_not_a_string_or_number_is_refused(
        self, tmp_path, key, value, shown
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"scenario": 1, "reps": 2, "seed": 1, key: value}))
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate1", "--config", str(cfg)])
        assert excinfo.value.code == (
            f"--config {cfg}: {key} = {shown} is not a string or a number"
        )

    def test_config_before_the_command_name(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_a = 50\nreps = 2\npop-n = 400\n")
        printed = []
        for argv in (["--config", str(cfg), "simulate2", "--seed", "1"],
                     ["simulate2", "--config", str(cfg), "--seed", "1"],
                     ["simulate2", "--seed", "1", "--n-a", "50", "--reps", "2",
                      "--pop-n", "400"]):
            assert main(argv) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] == printed[2]
        assert printed[0].startswith("study=sim2 scenario=n_a=50 replicates=2 ")

    def test_config_key_taken_by_another_command_is_skipped(
        self, continuous_files, tmp_path, capsys
    ):
        """``scenario`` is simulate1's alone, so an estimate run skips it:
        one file can serve several commands."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"sample-a = {continuous_files['sample']}\n"
                       f"big-data = {continuous_files['big']}\nmethod = ht\nscenario = 3\n")
        assert main(["estimate", "--config", str(cfg)]) == 0
        assert "estimator: ht" in capsys.readouterr().out

    def test_malformed_config_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario\n")
        with pytest.raises(SystemExit, match="key = value"):
            main(["simulate1", "--config", str(cfg)])


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "simulate1" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bootstrap"])
