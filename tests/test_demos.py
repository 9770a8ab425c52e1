"""Every demo under ``demos/`` runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import uefiforensics

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # The demos write to demo-output/ under the working directory.
    package_root = str(Path(uefiforensics.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": pythonpath}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
