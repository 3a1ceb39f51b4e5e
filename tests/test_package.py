import ast
import re
import subprocess
import sys
from pathlib import Path

import planmark
from planmark import cli, marker, pipeline

from conftest import FIXTURE_KB_TEXT, package_env

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


def counted(calls, name, fn):
    """``fn``, counting its calls in ``calls[name]``."""
    calls[name] = 0

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def corroborated_run(kb):
    """A run of the fixture's one path with both of its slots corroborated.
    The tests below pass a freshly loaded base, whose judgement table is
    empty, so the run calls the evaluation functions: on a base another
    test already ran this stream on, `run` reuses the judgement instead."""
    config = planmark.RunConfig(engine=planmark.EngineConfig(
        half_threshold=0.1, full_threshold=1.0))
    return planmark.run(kb, config, """
        (inst supermarket2 supermarket :belief 0.9)
        (inst go1 go :belief 0.9)
        (corroborate supermarket-shopping store-of)
        (corroborate supermarket-shopping go-step)
    """)


def test_every_traced_call_site_is_live(monkeypatch):
    """Each name the benchmark's tracer times or counts is still called by
    a corroborated run, so a layer cannot read 0 because the program
    stopped calling the name its wrapper sits on.  Five wrapped names are
    already dead and are left out: `pipeline.score_path`,
    `marker.score_path`, `marker.extend_half`, `marker.validate` and
    `bayes.relevant_statements`."""
    calls = {}
    for owner, attr in TRACED_CALLS:
        name = f"{owner.__name__}.{attr}"
        monkeypatch.setattr(owner, attr, counted(calls, name, getattr(owner, attr)))
    report = corroborated_run(planmark.load_kb(FIXTURE_KB_TEXT))
    report.render()
    assert report.evaluated == 1
    assert [name for name, count in calls.items() if count == 0] == []


def test_the_command_calls_the_names_the_benchmark_wraps(monkeypatch, tmp_path, capsys):
    """The tracer times an in-process `planmark run` and spans `cli.run`
    and `cli.load_kb` in it, so the command must call those attributes of
    `cli`: one that reached `pipeline.run` directly would move that time
    into `cli.self_s`."""
    calls = {}
    for attr in ("run", "load_kb"):
        monkeypatch.setattr(cli, attr, counted(calls, attr, getattr(cli, attr)))
    kb, stream = tmp_path / "fixture.kb", tmp_path / "story.stream"
    kb.write_text(FIXTURE_KB_TEXT)
    stream.write_text("(inst supermarket2 supermarket)\n(inst go1 go)\n")
    assert cli.main(["run", "--kb", str(kb), "--input", str(stream)]) == 0
    assert "\ncounters reported=" in capsys.readouterr().out
    assert calls == {"run": 1, "load_kb": 1}


def test_every_name_the_benchmark_reads_still_answers(monkeypatch):
    """Beside the calls it wraps, the benchmark reads values off a run's
    engines, base and networks; each is read here as `bench/run.py` and
    `bench/tracing.py` read it.  `MarkerEngine.emitted` stays only for
    that reader, so it must still give the order `scores` keeps."""
    engines, networks = [], []
    exact_posterior = pipeline.exact_posterior

    class RecordingEngine(pipeline.MarkerEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    def recording_posterior(network, cpts):
        networks.append(network)
        return exact_posterior(network, cpts)

    monkeypatch.setattr(pipeline, "MarkerEngine", RecordingEngine)
    monkeypatch.setattr(pipeline, "exact_posterior", recording_posterior)
    kb = planmark.load_kb(FIXTURE_KB_TEXT)
    assert corroborated_run(kb).evaluated == 1
    (engine,) = engines
    assert engine.scores and list(engine.emitted) == list(engine.scores)
    # bench/run.py counts each engine's retained marks.
    assert len(engine.marks) > 0
    role_links = sum(link.kind is planmark.LinkKind.ROLE_UP for link in kb.links.values())
    assert sum(len(s.slots) for s in kb.schemas.values()) == role_links == 2
    (network,) = networks
    assert network.non_evidence_count == len(network.priors) + len(network.rs.roles)

