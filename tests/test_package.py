import ast
import re
import subprocess
import sys
from pathlib import Path

import planmark
from planmark import marker, pipeline

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


def test_readme_names_every_python_version_ci_tests_on():
    # The README's sentence on the tier-1 matrix lists exactly the versions
    # the workflow runs, so a version added to one must be added to both.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (listed,) = re.findall(r"runs the tier-1 suite once on each of\s+Python ([^`]*?) as a",
                           readme)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    (matrix,) = re.findall(r"^\s*python-version: \[(.*)\]$", workflow, re.MULTILINE)
    assert re.findall(r"\d+\.\d+", listed) == re.findall(r"\d+\.\d+", matrix)


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



# The names the benchmark's tracer wraps with a span or a count that a run
# still calls, as (owner, attribute).
TRACED_CALLS = [
    (pipeline, "parse_stream"),
    (pipeline, "relevant_statements"),
    (pipeline, "evidence_filter"),
    (pipeline, "build_network"),
    (pipeline, "default_cpts"),
    (pipeline, "exact_posterior"),
    (pipeline, "approve"),
    (pipeline.MarkerEngine, "seed"),
    (pipeline.MarkerEngine, "spread"),
    (pipeline.RunReport, "render"),
    (marker, "combine"),
]


def test_every_traced_call_site_is_live(kb, monkeypatch):
    """Each name the benchmark's tracer times or counts is still called by
    a corroborated run, so a layer cannot read 0 because the program
    stopped calling the name its wrapper sits on.  Five wrapped names are
    already dead and are left out: `pipeline.score_path`,
    `marker.score_path`, `marker.extend_half`, `marker.validate` and
    `bayes.relevant_statements`."""
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr in TRACED_CALLS:
        name = f"{owner.__name__}.{attr}"
        calls[name] = 0
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    config = planmark.RunConfig(engine=planmark.EngineConfig(
        half_threshold=0.1, full_threshold=1.0))
    report = planmark.run(kb, config, """
        (inst supermarket2 supermarket :belief 0.9)
        (inst go1 go :belief 0.9)
        (corroborate supermarket-shopping store-of)
        (corroborate supermarket-shopping go-step)
    """)
    report.render()
    assert report.evaluated == 1
    assert [name for name, count in calls.items() if count == 0] == []
