import os
import subprocess
import sys
from pathlib import Path

import pytest

import planmark

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.name)
def test_demo_runs(demo):
    # Run against the package under test, wherever it was imported from.
    package_root = str(Path(planmark.__file__).parents[1])
    paths = [package_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    result = subprocess.run([sys.executable, str(demo)], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
