"""Property test for the rule "no traceback from the command line,
whatever the input or path".

A valid probability-sample file and a valid big-data file are mutated
(a column dropped, a cell blanked or overwritten, a row cut short, an id
or a header name repeated, a byte-order mark or CRLF line endings added,
a path that does not exist), the flags are given on the command line or
through a config file that may carry one bad setting, and ``cli.main``
runs ``estimate`` (``ht``, ``regdi``, ``pdi2``) or ``classify`` in
process.  Each run must succeed, end in argparse's usage error (status
2), or raise ``SystemExit`` with one line that starts with the command's
name or with ``--config <path>:``.  Any other exception fails the test.
"""

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bigsurv.cli import main

RUNS = ("ht", "regdi", "pdi2", "classify")
FILE_MUTATIONS = (
    None, "drop column", "blank cell", "truncate row", "cut file", "inject", "repeat id",
    "repeat header", "bom", "crlf", "missing path", "out in missing directory",
)
INJECTED = ("abc", "nan", "NaN", "inf", "-inf", "-1", "-0.5", "0", "12345678901234567890",
            "-12345678901234567890", "1e400", " ", "1.5")
# (key, value) pairs that follow the valid settings in a config file and
# so override them; a bool, a float for an int, a value outside the
# choices, a key no command takes
CONFIG_MUTATIONS = (
    ("pop-n", True), ("pi", False), ("pop-n", 200.5), ("pop-n", "200.0"),
    ("method", "bogus"), ("controls", "bogus"), ("bootstrap", 1), ("pop-n", None),
)


@functools.cache
def base_files() -> dict:
    """A 40-unit SRS from a universe of 200 with two categorical traits,
    and the big source of the units whose membership the first trait
    drives; written by hand so each cell is one known token."""
    rng = np.random.default_rng(11)
    N = 200
    z = np.column_stack([rng.integers(1, 4, N), rng.integers(1, 3, N)])
    y = 5.0 + z[:, 1] + rng.random(N)
    member = rng.random(N) < z[:, 0] / 4.0
    sampled = np.sort(rng.choice(N, size=40, replace=False))

    def rows(units, lead):
        return "".join(f"{i + 1},{lead}{float(y[i])!r},{z[i, 0]},{z[i, 1]}\n" for i in units)

    return {"sample": "id,d,pi,y,z1,z2\n" + rows(sampled, "5.0,0.2,"),
            "big": "id,y,z1,z2\n" + rows(np.flatnonzero(member), "")}


def mutate(text: str, mutation, draw) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    row = draw(st.integers(1, len(rows) - 1))  # a data row
    col = draw(st.integers(0, len(rows[0]) - 1))
    if mutation == "drop column":
        rows = [cells[:col] + cells[col + 1:] for cells in rows]
    elif mutation == "blank cell":
        rows[row][col] = ""
    elif mutation == "truncate row":
        rows[row] = rows[row][:col]
    elif mutation == "inject":
        rows[row][col] = draw(st.sampled_from(INJECTED + ("-" + rows[row][col],)))
    elif mutation == "repeat id":
        rows[row][0] = rows[draw(st.integers(1, len(rows) - 1))][0]
    elif mutation == "repeat header":
        rows[0][col] = draw(st.sampled_from(rows[0]))
    text = "".join(",".join(cells) + "\n" for cells in rows)
    if mutation == "cut file":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif mutation == "bom":
        text = "\ufeff" + text
    elif mutation == "crlf":
        text = text.replace("\n", "\r\n")
    return text


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_run_succeeds_or_ends_in_one_line(data):
    draw = data.draw
    run = draw(st.sampled_from(RUNS), label="run")
    target = draw(st.sampled_from(["sample", "big"]), label="file")
    mutation = draw(st.sampled_from(FILE_MUTATIONS), label="mutation")
    # one run in four carries a bad setting, which ends most runs early
    bad_setting = None
    if draw(st.integers(0, 3), label="bad setting if 3") == 3:
        bad_setting = draw(st.sampled_from(CONFIG_MUTATIONS), label="bad setting")
    command = "classify" if run == "classify" else "estimate"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {name: tmp / f"{name}.csv" for name in ("sample", "big")}
        for name, text in base_files().items():
            if name == target:
                text = mutate(text, mutation, draw)
            paths[name].write_bytes(text.encode("utf-8"))
        if mutation == "missing path":
            paths[target] = tmp / "nope.csv"
        out = tmp / ("missing" if mutation == "out in missing directory" else ".") / "out.csv"
        flags = [("sample-a", str(paths["sample"])), ("big-data", str(paths["big"])),
                 ("out", str(out))]
        flags.append(("pi", 0.4) if command == "classify" else ("method", run))
        if bad_setting is not None:
            flags.append(bad_setting)
        if bad_setting is None and not draw(st.booleans(), label="through --config"):
            argv = [command] + [f"--{key}={value}" for key, value in flags]
        else:
            cfg = tmp / "run.cfg"
            if draw(st.booleans(), label="JSON config"):
                cfg.write_text(json.dumps(dict(flags)))
            else:
                cfg.write_text("".join(
                    f"{key} = {value if isinstance(value, str) else json.dumps(value)}\n"
                    for key, value in flags
                ))
            argv = [command, "--config", str(cfg)]
            if draw(st.booleans(), label="config before command"):
                argv = argv[1:] + argv[:1]

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    if code == 2:
        assert f"bigsurv {command}: error: " in stderr.getvalue()
    elif code != 0:
        assert isinstance(code, str), code
        assert "\n" not in code, code
        assert code.startswith((f"{command}: ", f"--config {tmp / 'run.cfg'}: ")), code
