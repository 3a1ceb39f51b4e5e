"""Smoke tests of the benchmark itself: `python3 -m pytest bench`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import planmark  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_prints_every_metric_and_passes_checks(trace, section):
    done = bench("--workload", "all", "--smoke", "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w['name']}.{m['name']}": m["unit"]
                for w in SPEC["workloads"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        workload, metric = name.split(".", 1)
        assert any(line.startswith(f"{workload}: {metric} ") and line.endswith(f" {unit}")
                   for line in lines), name
    for workload in ("corpus", "longpath"):
        assert any(line.startswith(f"{workload}: workload ")
                   and "failed_frac 0.0000, planted_recall 1.0000" in line for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "longpath", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_inputs_depend_only_on_seed_and_index():
    wl = workloads.build("corpus", smoke=True)
    assert wl.stream(4, 2) == wl.stream(4, 2)
    assert wl.stream(4, 2) != wl.stream(5, 2) != wl.stream(4, 3)
    assert wl.kb_text == workloads.build("corpus", smoke=True).kb_text


def test_checks_catch_a_broken_report():
    wl = workloads.build("longpath", smoke=True)
    kb = planmark.load_kb(wl.kb_text)
    config = planmark.RunConfig(engine=planmark.EngineConfig(
        half_threshold=wl.threshold, full_threshold=wl.full_threshold,
        max_depth=wl.max_depth))
    text = planmark.run(kb, config, wl.stream(workloads.DEFAULT_SEED, 0).text).render()
    records, counters = checks.parse_report(text)
    reference = json.loads((BENCH / "reference.json").read_text())["longpath@smoke"]
    entry = reference["calls"][0]
    assert not checks.consistency_problems(records, counters)
    assert not checks.reference_problems(records, entry)

    skewed = text.replace("posterior ", "posterior 1", 1)
    assert checks.consistency_problems(*checks.parse_report(skewed))
    assert checks.reference_problems(checks.parse_report(skewed)[0], entry)
    rejected = text.replace("filtered pass", "filtered fail", 1)
    assert checks.reference_problems(checks.parse_report(rejected)[0], entry)
    dropped = text.replace("counters reported=", "counters reported=9", 1)
    assert checks.consistency_problems(*checks.parse_report(dropped))


def test_self_time_subtracts_child_spans_and_leaves():
    tracer = tracing.Tracer()
    tracer.spans[:] = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0),
                       ("a", 20.0, 21.0, -1, 1)]
    tracer.leaves["c", 0] = [0.5, 2]
    tracer._leaf_child[1] = 0.5
    totals = tracer.self_times({0})
    assert totals["a"] == [7.0, 1]
    assert totals["b"] == [2.5, 1]
    assert totals["c"] == [0.5, 2]


def test_normalised_time_is_proportional_to_call_time():
    slow = hostspeed.normalise(0.5, 2 * hostspeed.NOMINAL_S, 0.75)
    assert hostspeed.normalise(0.25, 2 * hostspeed.NOMINAL_S, 0.75) == pytest.approx(slow / 2)
    assert slow == pytest.approx(0.5 / 2 ** 0.75)
    assert hostspeed.normalise(0.5, hostspeed.NOMINAL_S, 0.4) == 0.5
