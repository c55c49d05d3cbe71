"""Smoke test: every script under ``examples/`` runs against the current API.

Each example runs in a fresh interpreter with DeprecationWarnings turned
into errors and an isolated result store, so an example that still calls a
removed or deprecated entry point fails here instead of silently rotting.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))
SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def test_examples_are_collected():
    assert EXAMPLES, "no example scripts found"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["REPRO_RESULT_STORE"] = str(tmp_path / "store")
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), "example printed nothing"
