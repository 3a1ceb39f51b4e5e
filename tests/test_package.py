import ast
import re
import subprocess
import sys
from pathlib import Path

import planmark

from conftest import package_env

ROOT = Path(__file__).parents[1]


def test_star_import_binds_every_exported_name_once():
    namespace = {}
    exec("from planmark import *", namespace)
    assert [name for name in planmark.__all__ if name not in namespace] == []
    assert len(set(planmark.__all__)) == len(planmark.__all__)


def test_every_exported_name_is_used_by_the_package_or_the_readme():
    # A name the package itself never reads, and the README never shows in
    # code, is test-only and belongs in tests/oracles.py.
    used = set()
    for source in (ROOT / "src" / "planmark").glob("*.py"):
        if source.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = "\n".join(re.findall(r"```[^\n]*\n(.*?)```", readme, re.DOTALL))
    unused = [name for name in planmark.__all__
              if name not in used and not re.search(rf"\b{name}\b", blocks)]
    assert unused == []


def test_import_loads_no_heavy_standard_module():
    # A cold `planmark run` is mostly interpreter start-up and import, so
    # importing the package must not pull in the dataclasses machinery
    # (and with it inspect, ast and dis) or the command-line surface.
    # Modules the interpreter had loaded before the import do not count.
    code = ("import sys; before = set(sys.modules); import planmark; "
            "print(*sorted(set(sys.modules) - before))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=package_env())
    assert result.returncode == 0, result.stderr
    added = set(result.stdout.split())
    assert "planmark.kb" in added
    assert added & {"dataclasses", "inspect", "argparse", "planmark.cli"} == set()


def test_readme_layout_names_every_module():
    # One row per module under src/planmark, so a row cannot outlive its
    # module nor a new module go without one.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `planmark\.(\w+)` \|", layout, re.MULTILINE)
    modules = sorted(source.stem for source in (ROOT / "src" / "planmark").glob("*.py")
                     if source.stem not in ("__init__", "__main__"))
    assert sorted(rows) == modules
    assert len(rows) == len(set(rows))
