"""Round-trip tests for the CSV and key-value file formats.

Floats are serialised with ``repr``, so every write/read cycle is
checked for bit-exact equality, not approximate equality.
"""

import csv
import functools
import re
import warnings

import numpy as np
import pytest

from bigsurv import (
    BigSample,
    ClassifierModel,
    EmptyPopulationError,
    ProbabilitySample,
    SRSJointInclusion,
    read_big_data_csv,
    read_classifier_model,
    read_sample_csv,
    write_big_data_csv,
    write_classifier_model,
    write_labels_csv,
    write_sample_csv,
    write_summary_csv,
)


class TestSampleCSV:
    def test_srs_round_trip_restores_design_metadata(self, tmp_path):
        rng = np.random.default_rng(1)
        sample = ProbabilitySample(
            unit_ids=np.array([3, 8, 11, 17]),
            d=np.full(4, 5.0),
            pi=np.full(4, 0.2),
            joint_pi=SRSJointInclusion(4, 20),
            N=20,
            design="srs",
            y=rng.normal(size=4),
            y_star=rng.normal(size=4),
            delta=np.array([1, 0, 1, 0]),
        )
        path = tmp_path / "sample.csv"
        write_sample_csv(path, sample)
        back = read_sample_csv(path)
        assert np.array_equal(back.unit_ids, sample.unit_ids)
        assert np.array_equal(back.d, sample.d)
        assert np.array_equal(back.pi, sample.pi)
        assert np.array_equal(back.y, sample.y)
        assert np.array_equal(back.y_star, sample.y_star)
        assert np.array_equal(back.delta, sample.delta)
        assert back.N == 20
        assert back.design == "srs"
        assert isinstance(back.joint_pi, SRSJointInclusion)
        assert (back.joint_pi.n, back.joint_pi.N) == (4, 20)

    def test_unequal_probabilities_come_back_generic(self, tmp_path):
        sample = ProbabilitySample(
            unit_ids=np.array([1, 2, 3]),
            d=np.array([2.0, 4.0, 4.0]),
            pi=np.array([0.5, 0.25, 0.25]),
            joint_pi=None,
            N=10,
            y=np.array([1.0, 2.0, 3.0]),
        )
        path = tmp_path / "sample.csv"
        write_sample_csv(path, sample)
        back = read_sample_csv(path, N=10)
        assert back.design == "generic"
        assert back.joint_pi is None
        assert back.y_star is None
        assert back.delta is None

    def test_population_size_defaults_to_weight_sum(self, tmp_path):
        sample = ProbabilitySample(
            unit_ids=np.array([1, 2, 3]),
            d=np.array([2.0, 4.0, 4.0]),
            pi=np.array([0.5, 0.25, 0.25]),
            joint_pi=None,
            N=10,
        )
        path = tmp_path / "sample.csv"
        write_sample_csv(path, sample)
        assert read_sample_csv(path).N == 10

    def test_weights_summing_below_one_half_name_pi(self, tmp_path):
        """The weights round to N = 0, which must not be divided by
        before ProbabilitySample rejects the probabilities."""
        path = tmp_path / "sample.csv"
        path.write_text("id,d,pi,y\n1,0.2,5.0,1.0\n")
        with pytest.raises(ValueError, match="inclusion probabilities"):
            read_sample_csv(path)

    def test_universe_below_sample_size_names_N(self, tmp_path):
        path = tmp_path / "sample.csv"
        path.write_text("id,d,pi,y\n1,2.0,0.5,1.0\n2,2.0,0.5,2.0\n3,2.0,0.5,3.0\n")
        with pytest.raises(ValueError, match="universe size N = 2"):
            read_sample_csv(path, N=2)

    def test_missing_design_column_rejected(self, tmp_path):
        path = tmp_path / "sample.csv"
        path.write_text("id,d\n1,2.0\n")
        with pytest.raises(ValueError, match="missing column 'pi'"):
            read_sample_csv(path)


class TestBigDataCSV:
    def test_round_trip_with_categories_and_multiplicity(self, tmp_path):
        big = BigSample(
            unit_ids=np.array([2, 5, 9]),
            values=np.array([1.25, -0.5, 3.75]),
            multiplicity=np.array([1, 3, 2]),
            N=100,
            z=np.array([[1, 2], [3, 1], [2, 2]]),
        )
        path = tmp_path / "big.csv"
        write_big_data_csv(path, big)
        back = read_big_data_csv(path, N=100)
        assert np.array_equal(back.unit_ids, big.unit_ids)
        assert np.array_equal(back.values, big.values)
        assert np.array_equal(back.multiplicity, big.multiplicity)
        assert np.array_equal(back.z, big.z)
        assert back.N == 100
        assert back.N_b == 6

    def test_proxy_valued_extract_reads_fallback_column(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("id,y_star\n1,2.5\n2,3.5\n")
        back = read_big_data_csv(path, N=10)
        assert np.array_equal(back.values, [2.5, 3.5])
        assert np.array_equal(back.multiplicity, [1, 1])

    def test_missing_id_column_rejected(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("y,multiplicity\n1.0,1\n")
        with pytest.raises(ValueError, match="big.csv: missing column 'id'"):
            read_big_data_csv(path, N=10)

    def test_partially_missing_multiplicity_rejected(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("id,y,multiplicity\n1,1.0,2\n2,1.5,\n")
        with pytest.raises(ValueError, match="column 'multiplicity' mixes present and missing"):
            read_big_data_csv(path, N=10)

    def test_value_column_required(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("id,z1\n1,2\n")
        with pytest.raises(ValueError, match="'y' or 'y_star'"):
            read_big_data_csv(path, N=10)

    @pytest.mark.parametrize("header, row", [("id,z1", "2"), ("id,y,z1", "oops,2")])
    def test_read_without_values_skips_the_value_column(
        self, tmp_path, monkeypatch, header, row
    ):
        """``values=False`` neither parses nor requires ``y``/``y_star``:
        the one pass reads ``id`` and ``z1`` only."""
        path = tmp_path / "big.csv"
        path.write_text(f"{header}\n1,{row}\n")
        passes = []
        loadtxt = np.loadtxt

        def recording(*args, **kwargs):
            passes.append(kwargs.get("usecols"))
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", recording)
        back = read_big_data_csv(path, N=10, values=False)
        assert passes == [[header.split(",").index(name) for name in ("id", "z1")]]
        assert back.values is None
        assert np.array_equal(back.unit_ids, [1])
        assert np.array_equal(back.z, [[2]])


class TestBoundaryChecks:
    """Bad files fail in the reader with an error naming file and column."""

    SAMPLE = "id,d,pi,y,y_star\n1,5.0,0.2,1.0,2.0\n2,5.0,0.2,1.5,2.5\n"

    @pytest.mark.parametrize(
        "column, value",
        [("y", "nan"), ("y_star", "inf"), ("d", "-inf"), ("pi", "NaN")],
    )
    def test_non_finite_sample_value_rejected(self, tmp_path, column, value):
        header, first, second = self.SAMPLE.splitlines()
        cells = second.split(",")
        cells[header.split(",").index(column)] = value
        path = tmp_path / "sample.csv"
        path.write_text("\n".join([header, first, ",".join(cells)]) + "\n")
        with pytest.raises(ValueError, match=f"column '{column}' holds a non-finite"):
            read_sample_csv(path)

    @pytest.mark.parametrize("column", ["y", "y_star"])
    def test_non_finite_big_data_value_rejected(self, tmp_path, column):
        path = tmp_path / "big.csv"
        path.write_text(f"id,{column}\n1,2.5\n2,inf\n")
        with pytest.raises(ValueError, match=f"column '{column}' holds a non-finite"):
            read_big_data_csv(path, N=10)

    def test_non_finite_value_in_first_row_names_the_file(self, tmp_path):
        path = tmp_path / "sample.csv"
        path.write_text("id,d,pi,y\n1,5.0,0.2,nan\n2,5.0,0.2,1.0\n")
        with pytest.raises(ValueError, match="sample.csv: column 'y' holds a non-finite"):
            read_sample_csv(path)

    def test_repeated_column_name_rejected(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("id,y,y\n1,2.0,3.0\n2,4.0,5.0\n")
        with pytest.raises(ValueError, match="big.csv: column 'y' appears more than once"):
            read_big_data_csv(path, N=10)

    def test_duplicate_sample_ids_rejected(self, tmp_path):
        path = tmp_path / "sample.csv"
        path.write_text("id,d,pi,y\n4,5.0,0.2,1.0\n9,5.0,0.2,2.0\n4,5.0,0.2,3.0\n")
        with pytest.raises(ValueError, match="sample.csv: unit_ids repeats unit 4$"):
            read_sample_csv(path)

    @pytest.mark.parametrize(
        "text, fault",
        [
            ("id,d,pi,y,delta\n1,5.0,0.2,1.0,0\n2,5.0,0.2,2.0,-1\n",
             "delta entries must be at least 0; found -1"),
            ("id,d,pi,y\n1,5.0,0.25,1.0\n", "design weights must be reciprocal"),
        ],
    )
    def test_sample_fault_names_the_file(self, tmp_path, text, fault):
        """An error from the sample's own checks says which file holds the
        column at fault, like the reader's own errors."""
        path = tmp_path / "sample.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as excinfo:
            read_sample_csv(path)
        assert str(excinfo.value).startswith(f"{path}: {fault}")

    def test_big_data_fault_names_the_file(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("id,y,multiplicity\n1,1.0,1\n2,2.0,0\n")
        with pytest.raises(ValueError) as excinfo:
            read_big_data_csv(path, N=10)
        assert str(excinfo.value) == f"{path}: multiplicity entries must be at least 1; found 0"

    def test_duplicate_big_data_ids_rejected(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("id,y,multiplicity\n7,1.0,1\n7,2.0,2\n")
        with pytest.raises(ValueError, match="big.csv: unit_ids repeats unit 7$"):
            read_big_data_csv(path, N=10)

    @pytest.mark.parametrize("name", ["sample", "big"])
    def test_byte_order_mark_is_skipped(self, tmp_path, name):
        """A UTF-8 byte-order mark before the header is not part of the
        first column's name."""
        text = "id,d,pi,y,z1,multiplicity\n1,5.0,0.2,1.0,2,1\n3,5.0,0.2,2.5,1,2\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        read = read_sample_csv if name == "sample" else functools.partial(read_big_data_csv, N=10)
        want, got = read(plain), read(marked)
        for field in ("unit_ids", "d", "pi", "y", "values", "multiplicity", "z"):
            if hasattr(want, field):
                assert np.array_equal(getattr(got, field), getattr(want, field))

    @pytest.mark.parametrize("level", [0, -1])
    @pytest.mark.parametrize("name", ["sample", "big"])
    def test_z_level_below_one_names_the_file_and_column(self, tmp_path, name, level):
        path = tmp_path / f"{name}.csv"
        path.write_text(f"id,d,pi,y,z1,z2\n1,5.0,0.2,1.0,2,1\n2,5.0,0.2,2.0,1,{level}\n")
        read = read_sample_csv if name == "sample" else functools.partial(read_big_data_csv, N=10)
        with pytest.raises(ValueError) as excinfo:
            read(path)
        assert str(excinfo.value) == f"{path}: column 'z2' holds {level}; z levels start at 1"

    @pytest.mark.parametrize(
        "text, column",
        [
            ("id,d,pi,y\n1,5.0,0.2,1.0\n2,5.0,0.2\n", "y"),
            ("id,d,pi,y,delta\n1,5.0,0.2,1.0,1\n2,5.0,0.2,2.0\n", "delta"),
        ],
    )
    def test_short_row_names_the_column(self, tmp_path, text, column):
        path = tmp_path / "sample.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"sample.csv: column '{column}'"):
            read_sample_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [("3,5.0", "column 'pi': data row 3 has 2 fields"),
         ("3", "column 'd': data row 3 has 1 field")],
    )
    def test_short_row_is_named_by_its_data_row(self, tmp_path, row, message):
        """A blank line holds no row, so the short row is data row 3."""
        path = tmp_path / "sample.csv"
        path.write_text(f"id,d,pi,y,delta\n1,5.0,0.2,1.0,1\n\n2,5.0,0.2,2.0,0\n{row}\n")
        with pytest.raises(ValueError) as excinfo:
            read_sample_csv(path)
        assert str(excinfo.value) == f"{path}: {message}; the header has 5"

    def test_unparseable_value_names_the_column(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("id,y,z1\n1,1.0,2\n2,2.0,two\n")
        with pytest.raises(ValueError) as excinfo:
            read_big_data_csv(path, N=10)
        assert str(excinfo.value) == (
            f"{path}: column 'z1': data row 2 holds 'two', which is not an integer"
        )

    def test_bad_cell_late_in_last_column_is_named(self, tmp_path):
        """The one-pass read fails on the last column of row 500, and the
        column-by-column diagnosis that follows names that column."""
        rows = [f"{i},{i / 4!r},1,{1 + i % 3}" for i in range(1, 501)]
        rows[-1] = "500,125.0,1,x"
        path = tmp_path / "big.csv"
        path.write_text("id,y,multiplicity,z1\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError) as excinfo:
            read_big_data_csv(path, N=1000)
        assert str(excinfo.value) == (
            f"{path}: column 'z1': data row 500 holds 'x', which is not an integer"
        )

    def test_empty_column_between_present_ones_reads_as_none(self, tmp_path):
        """An optional column empty on every row is left out of the
        one-pass read; its neighbours come back exactly."""
        path = tmp_path / "sample.csv"
        path.write_text(
            "id,d,pi,y,y_star,delta\n"
            "3,4.0,0.25,-0.0,,1\n9,4.0,0.25,0.1,,0\n12,4.0,0.25,1e-300,,1\n"
        )
        back = read_sample_csv(path, N=12)
        assert back.y_star is None
        assert back.y.tobytes() == np.array([-0.0, 0.1, 1e-300]).tobytes()
        assert back.delta.dtype == np.int64 and back.delta.tolist() == [1, 0, 1]
        assert back.unit_ids.tolist() == [3, 9, 12]

    def test_partially_missing_column_is_named(self, tmp_path):
        path = tmp_path / "sample.csv"
        path.write_text("id,d,pi,y,y_star\n1,5.0,0.2,1.0,\n2,5.0,0.2,1.5,2.5\n")
        with pytest.raises(ValueError, match="column 'y_star' mixes present and missing"):
            read_sample_csv(path)

    def test_optional_column_absent_or_empty_reads_as_none(self, tmp_path):
        absent = tmp_path / "absent.csv"
        absent.write_text("id,d,pi\n1,5.0,0.2\n\n2,5.0,0.2\n")
        empty = tmp_path / "empty.csv"
        empty.write_text("id,d,pi,y,delta\n1,5.0,0.2,,\n\n2,5.0,0.2,,\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for path in (absent, empty):
                back = read_sample_csv(path, N=10)
                assert back.y is None and back.delta is None
                assert np.array_equal(back.unit_ids, [1, 2])

    @pytest.mark.parametrize(
        "header, read",
        [
            ("id,y_star,multiplicity", lambda path: read_big_data_csv(path, N=10)),
            ("id,d,pi,y", read_sample_csv),
            ("id,y", lambda path: read_big_data_csv(path, N=10)),
        ],
    )
    def test_header_only_file_is_empty_without_numpy_warning(
        self, tmp_path, header, read
    ):
        path = tmp_path / "file.csv"
        path.write_text(header + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyPopulationError, match="no data rows"):
                read(path)


class TestWeightsAndLabels:
    def test_labels_layout(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_labels_csv(path, [7, 8], [0.25, 0.75], [0, 1])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "p_hat", "delta_hat"]
        assert rows[1] == ["7", "0.25", "0"]
        assert rows[2] == ["8", "0.75", "1"]


class TestModelDumps:
    def test_classifier_model_round_trip(self, tmp_path):
        model = ClassifierModel(
            pi=0.4375,
            m=(np.array([0.25, 0.75]), np.array([0.1, 0.2, 0.7])),
            u=(np.array([0.6, 0.4]), np.array([1 / 3, 1 / 3, 1 / 3])),
        )
        path = tmp_path / "mixture.model.txt"
        write_classifier_model(path, model)
        back = read_classifier_model(path)
        assert back.pi == model.pi
        assert back.levels == model.levels
        for k in range(2):
            assert np.array_equal(back.m[k], model.m[k])
            assert np.array_equal(back.u[k], model.u[k])

    def test_classifier_dump_is_keyed_text(self, tmp_path):
        model = ClassifierModel(
            pi=0.5, m=(np.array([0.5, 0.5]),), u=(np.array([0.25, 0.75]),)
        )
        path = tmp_path / "mixture.model.txt"
        write_classifier_model(path, model)
        text = path.read_text()
        assert "pi=0.5" in text
        assert "levels=2" in text
        assert "m1=0.5,0.5" in text
        assert "u1=0.25,0.75" in text

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "mixture.model.txt"
        path.write_text(
            "# fitted mixture\n\npi=0.5\nlevels=2\nm1=0.5,0.5\nu1=0.25,0.75\n"
        )
        back = read_classifier_model(path)
        assert back.pi == 0.5

    @pytest.mark.parametrize(
        "text, message",
        [
            ("levels=2\nm1=0.5,0.5\nu1=0.25,0.75\n", "missing key 'pi'"),
            ("pi=0.5\nm1=0.5,0.5\nu1=0.25,0.75\n", "missing key 'levels'"),
            ("pi=0.5\nlevels=2,3\nm1=0.5,0.5\nu1=0.25,0.75\n", "missing key 'm2'"),
            (
                "pi=0.5\nlevels=3\nm1=0.5,0.5\nu1=0.25,0.75\n",
                "m1 has 2 entries, but levels gives 3",
            ),
            (
                "pi=0.5\nlevels=2\nm1=0.5,0.5\nu1=0.2,0.3,0.5\n",
                "u1 has 3 entries, but levels gives 2",
            ),
        ],
        ids=["no-pi", "no-levels", "no-m2", "short-m1", "long-u1"],
    )
    def test_incomplete_model_file_names_the_key(self, tmp_path, text, message):
        path = tmp_path / "mixture.model.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}$"):
            read_classifier_model(path)

    def test_nan_table_entry_rejected(self, tmp_path):
        """A NaN entry passes every range and sum test, so it is named
        as non-finite instead of loading a model whose posterior is NaN."""
        path = tmp_path / "mixture.model.txt"
        path.write_text("pi=0.5\nlevels=2\nm1=nan,1.0\nu1=0.5,0.5\n")
        with pytest.raises(ValueError, match=r"^m\[0\] entries must be finite$"):
            read_classifier_model(path)


class TestSummaryCSV:
    def test_columns_and_blanks_preserved(self, tmp_path):
        rows = [
            {
                "study": "sim1",
                "scenario": "2",
                "estimator": "regdi",
                "bias": 0.001,
                "se": 0.024,
                "rmse": 0.0240208,
                "var_rel_bias": 0.028,
                "failures": 0,
            },
            {
                "study": "sim1",
                "scenario": "2",
                "estimator": "mean_b",
                "bias": -1.1,
                "se": 0.001,
                "rmse": 1.1,
                "var_rel_bias": "",
                "failures": 0,
            },
        ]
        path = tmp_path / "summary.csv"
        write_summary_csv(path, rows)
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert list(parsed[0]) == [
            "study",
            "scenario",
            "estimator",
            "bias",
            "se",
            "rmse",
            "var_rel_bias",
            "failures",
        ]
        assert parsed[0]["estimator"] == "regdi"
        assert float(parsed[0]["var_rel_bias"]) == 0.028
        assert parsed[1]["var_rel_bias"] == ""
        assert parsed[1]["bias"] == "-1.1"
