"""Every ```python block in ``README.md`` runs to the end against the
package in ``src/``, the way ``test_demos.py`` runs the demos: exit
status 0 and nothing on stderr, so the README's examples cannot drift
from the API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
    re.MULTILINE | re.DOTALL,
)


def test_blocks_are_found():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=lambda code: code.splitlines()[-1][:40])
def test_block_runs_cleanly(code, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
