"""Every demo runs cleanly and prints exactly its recorded output.

The expected stdout of each demo lives in demos/expected/<name>.out; a change
that alters any printed verdict, interval, word or report shows up here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_an_expected_output():
    assert DEMOS
    assert {p.stem for p in DEMOS} == {p.stem for p in (ROOT / "demos" / "expected").glob("*.out")}


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_stdout_is_byte_identical(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, cwd=str(ROOT), timeout=120, check=False
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.out").read_bytes()
