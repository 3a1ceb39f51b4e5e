import subprocess
import sys
from pathlib import Path

import pytest

from planmark import load_kb

from conftest import FIG31_TEXT, FIXTURE_KB_TEXT, package_env

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_every_demo_is_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.name)
def test_demo_runs(demo):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True,
                            text=True, env=package_env(), timeout=120)
    assert result.returncode == 0, result.stderr


def test_readme_library_example_runs(tmp_path):
    section = README.split("## Library in one breath", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "fixture.kb").write_text(FIXTURE_KB_TEXT, encoding="utf-8")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=package_env(), cwd=tmp_path, timeout=120)
    assert result.returncode == 0, result.stderr
    first, second = result.stdout.splitlines()
    assert first.split(" ", 1)[1] == FIG31_TEXT
    assert float(first.split()[0]) == pytest.approx(16.2, rel=1e-12)
    assert float(second) == pytest.approx(16.2, rel=1e-12)


def test_readme_kb_format_block_is_the_fixture_base(kb):
    section = README.split("## Knowledge base format", 1)[1]
    text = section.split("```lisp\n", 1)[1].split("```", 1)[0]
    assert load_kb(text) == kb
