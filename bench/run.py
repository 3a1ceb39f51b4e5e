"""planmark benchmark: closed-loop `planmark.run(kb, config, stream)` plus
`.render()` calls on one workload, from one process and one thread.

    python3 bench/run.py --workload corpus --seed 3 --seconds 35 --trace 0
    python3 bench/run.py --workload spread --smoke --seconds 1 --trace 1
    python3 bench/run.py --workload all --seconds 35 --trace 0
    python3 bench/run.py --record-reference

The KB is loaded once per process and every call gets a freshly generated
stream.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
alternates untraced and traced calls on the same stream and reports the
per-layer metrics, the tracing overhead, a `corpus` scaling curve and one
in-process `planmark run` command.  Every call's report is checked (see
checks.py); failures count in ``failed``.  Human-readable lines come
first; the last line of stdout is one JSON object.

``--workload all`` runs every workload in its own process and prefixes
each metric with its workload.  ``--smoke`` runs tiny workload sizes.
``--record-reference`` rewrites reference.json from the current package;
run it only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostspeed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_SAMPLES = 9
MIN_CALLS = 30          # keeps the tail percentile (ten samples beyond) above p60
MIN_TRACED_CALLS = 3
TAIL_BEYOND = 10
KB_LOADS = 3
LAYERS = ("pipeline", "marker", "paths", "scoring", "semantics", "bayes")

# Call ids of traced work outside the closed loop.
KB_CALL, CLI_CALL, CURVE_CALL = -2, -3, -4

END_TO_END = {
    "setup_s": "s", "run_p50_ms": "ms", "run_tail_ms": "ms",
    "obs_per_s": "1/s", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {
        "kb.load_s": "s", "kb.schemas": "count", "kb.links": "count",
        "pipeline.parse_stream_s": "s", "pipeline.render_s": "s",
        "pipeline.self_s": "s",
        "marker.seed_s": "s", "marker.spread_s": "s", "marker.marks": "count",
        "marker.extensions": "count", "marker.meetings": "count",
        "marker.paths": "count", "marker.emit_ratio": "ratio",
        "paths.validate_s": "s",
        "scoring.combine_calls": "count", "scoring.cleave_checks": "count",
        "scoring.score_s": "s",
        "semantics.rs_s": "s", "semantics.rs_calls": "count",
        "semantics.rs_per_path": "ratio",
        "bayes.filter_s": "s", "bayes.filter_calls": "count",
        "bayes.filter_pass_ratio": "ratio", "bayes.build_s": "s",
        "bayes.cpts_s": "s", "bayes.eval_s": "s", "bayes.evals": "count",
        "bayes.eval_nodes_max": "count", "bayes.skipped": "count",
        "bayes.approve_s": "s", "bayes.approved_ratio": "ratio",
        "cli.main_s": "s", "cli.self_s": "s",
        "trace.call_s": "s", "trace.overhead": "ratio",
    }
    for size in workloads.CURVE_SIZES:
        for layer in LAYERS + ("call",):
            units[f"curve.corpus_n{size}.{layer}_s"] = "s"
    return units


class Tally:
    """Calls attempted and failed, and planted explanations found."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.planted = self.found = 0
        self.problems: list[str] = []

    def check(self, text: str, stream: workloads.Stream, reference: dict | None = None,
              recall: bool = True) -> list[checks.Record] | None:
        """Check one report; returns its records, or None if it failed.
        With ``recall`` its planted explanations count in planted_recall."""
        try:
            records, counters = checks.parse_report(text)
        except checks.ReportError as exc:
            return self.fail(str(exc))
        problems = checks.consistency_problems(records, counters)
        if reference is not None:
            problems += checks.reference_problems(records, reference)
        if recall:
            self.planted += len(stream.planted)
            self.found += checks.planted_found(records, stream.planted)
        if problems:
            return self.fail("; ".join(problems[:3]))
        return records

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)
        return None


def import_planmark():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "planmark" / "__init__.py").is_file():
        raise SystemExit(f"error: no planmark package under {SRC}")
    sys.path.insert(0, str(SRC))
    import planmark
    if Path(planmark.__file__).resolve().parent != SRC / "planmark":
        raise SystemExit(f"error: imported planmark from {planmark.__file__}")
    return planmark


def run_config(planmark, wl: workloads.Workload):
    return planmark.RunConfig(engine=planmark.EngineConfig(
        half_threshold=wl.threshold, full_threshold=wl.full_threshold,
        max_depth=wl.max_depth))


def reference_key(name: str, smoke: bool) -> str:
    return f"{name}@smoke" if smoke else name


def record_reference(planmark) -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        for smoke in (False, True):
            wl = workloads.build(name, smoke)
            kb = planmark.load_kb(wl.kb_text)
            calls = []
            for index in range(workloads.REFERENCE_CALLS):
                text = planmark.run(kb, run_config(planmark, wl),
                                    wl.stream(workloads.DEFAULT_SEED, index).text).render()
                records, counters = checks.parse_report(text)
                problems = checks.consistency_problems(records, counters)
                if problems:
                    raise SystemExit(f"error: {name}: {problems[0]}")
                calls.append(checks.reference_entry(records))
            reference[reference_key(name, smoke)] = {
                "inputs_sha256": wl.inputs_sha256(), "calls": calls}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE.name}")
    return 0


def measure_setup(wl: workloads.Workload, samples: int) -> float:
    """Median over fresh interpreters of import planmark + load_kb,
    normalised by the host speed reference around it."""
    kb_file = OUT / f"{wl.name}.kb"
    kb_file.write_text(wl.kb_text, encoding="utf-8")
    raw, normalised = [], []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(kb_file)],
            capture_output=True, text=True, timeout=120, check=True)
        setup_s, reference_s = map(float, done.stdout.split())
        raw.append(setup_s)
        normalised.append(
            hostspeed.normalise(setup_s, reference_s, hostspeed.SETUP_EXPONENT))
    print(f"raw setup time: median {statistics.median(raw):.6g} s of {samples}")
    return statistics.median(normalised)


def timed_call(planmark, kb, config, stream_text: str) -> tuple[float, str]:
    start = time.perf_counter()
    text = planmark.run(kb, config, stream_text).render()
    return time.perf_counter() - start, text


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile of ``times``
    with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / n, n


def untraced(planmark, wl, kb, config, args, tally: Tally, metrics: dict) -> None:
    """Closed-loop calls, each bracketed by runs of the host speed
    reference; timings are reported normalised (see hostspeed.py)."""
    metrics["setup_s"] = measure_setup(wl, 1 if args.smoke else SETUP_SAMPLES)
    times: list[float] = []
    normalised: list[float] = []
    n_inst = 0
    deadline = time.perf_counter() + args.seconds
    index = 0
    before = hostspeed.reference_s()
    while time.perf_counter() < deadline or index < MIN_CALLS:
        stream = wl.stream(args.seed, index)
        index += 1
        tally.attempted += 1
        try:
            seconds, text = timed_call(planmark, kb, config, stream.text)
        except Exception as exc:  # a crashing call is a failed call
            tally.fail(f"{type(exc).__name__}: {exc}")
            continue
        after = hostspeed.reference_s()
        if tally.check(text, stream) is not None:
            times.append(seconds)
            normalised.append(hostspeed.normalise(seconds, (before + after) / 2,
                                                  wl.host_exponent))
            n_inst += stream.n_inst
        before = after
    if not times:
        return
    value, pct, n = tail(normalised)
    metrics["run_p50_ms"] = 1e3 * statistics.median(normalised)
    metrics["run_tail_ms"] = 1e3 * value
    metrics["obs_per_s"] = n_inst / sum(normalised)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"run_tail_ms is p{pct:.1f} of {n} calls")
    print(f"raw wall time: p50 {1e3 * statistics.median(times):.6g} ms, "
          f"p{pct:.1f} {1e3 * tail(times)[0]:.6g} ms, "
          f"{n_inst / sum(times):.6g} obs/s")


def under_trace(tracer, call: int, fn, *args):
    """Run ``fn(*args)`` with the tracer installed, as call ``call``."""
    tracer.call = call
    tracer.install()
    try:
        return fn(*args)
    finally:
        tracer.uninstall()


def traced(planmark, wl, kb, config, args, tally: Tally, metrics: dict) -> None:
    import tracing

    tracer = tracing.Tracer()
    tracer.call = KB_CALL
    load = tracer.span("kb.load_kb", planmark.load_kb)
    for _ in range(KB_LOADS):
        load(wl.kb_text)
    metrics["kb.load_s"] = statistics.median(
        end - start for name, start, end, _, call in tracer.spans if call == KB_CALL)
    metrics["kb.schemas"] = len(kb.schemas)
    metrics["kb.links"] = sum(len(s.slots) for s in kb.schemas.values())

    traced_loop(planmark, wl, kb, config, args, tally, metrics, tracer)
    cli_layer(planmark, wl, kb, config, args, tally, metrics, tracer)
    scaling_curve(planmark, args, tally, metrics, tracer)

    spans_file = OUT / f"spans-{wl.name}.tsv.gz"
    tracer.write(spans_file)
    print(f"{len(tracer.spans)} spans written to {spans_file.relative_to(BENCH_DIR.parent)}")
    shares = {name: value / metrics["trace.call_s"] for name, value in metrics.items()
              if name.endswith("_s") and name.split(".")[0] in LAYERS}
    print("share of traced call time: " + ", ".join(
        f"{name} {100 * share:.1f}%" for name, share in
        sorted(shares.items(), key=lambda item: -item[1])))


def traced_loop(planmark, wl, kb, config, args, tally: Tally, metrics: dict,
                tracer) -> None:
    """Pairs of untraced and traced calls on the same stream."""
    plain_s = traced_s = 0.0
    marks = emitted = skipped = 0
    deadline = time.perf_counter() + args.seconds
    calls = 0
    while time.perf_counter() < deadline or calls < MIN_TRACED_CALLS:
        stream = wl.stream(args.seed, calls)
        tally.attempted += 1
        tracer.engines.clear()
        try:
            # Alternate which of the pair runs first, so that neither side
            # always finds the caches warmed by the other.
            if calls % 2:
                plain_seconds, plain_text = timed_call(planmark, kb, config, stream.text)
            seconds, text = under_trace(tracer, calls, timed_call,
                                        planmark, kb, config, stream.text)
            if not calls % 2:
                plain_seconds, plain_text = timed_call(planmark, kb, config, stream.text)
        except Exception as exc:  # a crashing call is a failed call
            tally.fail(f"{type(exc).__name__}: {exc}")
            continue
        finally:
            calls += 1
        plain_s += plain_seconds
        traced_s += seconds
        marks += sum(len(engine.marks) for engine in tracer.engines)
        emitted += sum(len(engine.emitted) for engine in tracer.engines)
        if text != plain_text:
            tally.fail("traced report differs from the untraced report")
            continue
        records = tally.check(text, stream)
        skipped += sum(r.skipped for r in records or ())

    totals = tracer.self_times(set(range(calls)))
    counts = tracer.counts

    def self_s(name: str) -> float:
        return totals.get(name, (0.0, 0))[0] / calls

    def n_spans(name: str) -> int:
        return totals.get(name, (0.0, 0))[1]

    meetings = n_spans("paths.validate")
    # The marker's score_path leaves are its cleave checks; the pipeline's
    # own score_path calls are spans, one per reported path.
    cleave_checks = sum(count for (name, call), (_, count) in tracer.leaves.items()
                        if name == "scoring.score_path" and 0 <= call < calls)
    rs_calls = n_spans("semantics.relevant_statements")
    filter_calls = n_spans("bayes.evidence_filter")
    metrics.update({
        "pipeline.parse_stream_s": self_s("pipeline.parse_stream"),
        "pipeline.render_s": self_s("pipeline.render"),
        "pipeline.self_s": self_s("pipeline.run"),
        "marker.seed_s": self_s("marker.seed"),
        "marker.spread_s": self_s("marker.spread"),
        "marker.marks": marks / calls,
        "marker.extensions": counts["marker.extensions"] / calls,
        "marker.meetings": meetings / calls,
        "marker.paths": emitted / calls,
        "marker.emit_ratio": emitted / max(meetings, 1),
        "paths.validate_s": self_s("paths.validate"),
        "scoring.combine_calls": counts["scoring.combine_calls"] / calls,
        "scoring.cleave_checks": cleave_checks / calls,
        "scoring.score_s": self_s("scoring.score_path"),
        "semantics.rs_s": self_s("semantics.relevant_statements"),
        "semantics.rs_calls": rs_calls / calls,
        "semantics.rs_per_path": rs_calls / max(emitted, 1),
        "bayes.filter_s": self_s("bayes.evidence_filter"),
        "bayes.filter_calls": filter_calls / calls,
        "bayes.filter_pass_ratio": counts["bayes.filter_passes"] / max(filter_calls, 1),
        "bayes.build_s": self_s("bayes.build_network"),
        "bayes.cpts_s": self_s("bayes.default_cpts"),
        "bayes.eval_s": self_s("bayes.exact_posterior"),
        "bayes.evals": counts["bayes.evals"] / calls,
        "bayes.eval_nodes_max": tracer.nodes_max,
        "bayes.skipped": skipped / calls,
        "bayes.approve_s": self_s("bayes.approve"),
        "bayes.approved_ratio": counts["bayes.approvals"] / max(n_spans("bayes.approve"), 1),
        "trace.call_s": traced_s / calls,
        "trace.overhead": traced_s / plain_s - 1.0 if plain_s else 0.0,
    })
    print(f"tracing overhead {100 * metrics['trace.overhead']:.1f}% over {calls} paired calls")


def cli_layer(planmark, wl, kb, config, args, tally: Tally, metrics: dict,
              tracer) -> None:
    """One in-process `planmark run` command on the first stream; its
    report must equal the library's."""
    from planmark import cli

    stream = wl.stream(args.seed, 0)
    kb_file, stream_file, out_file = (OUT / f"{wl.name}.{ext}"
                                      for ext in ("kb", "stream", "report"))
    kb_file.write_text(wl.kb_text, encoding="utf-8")
    stream_file.write_text(stream.text, encoding="utf-8")
    out_file.unlink(missing_ok=True)
    argv = ["run", "--kb", str(kb_file), "--input", str(stream_file),
            "--output", str(out_file), *wl.cli_args()]
    tally.attempted += 1
    try:
        status = under_trace(tracer, CLI_CALL, tracer.span("cli.main", cli.main), argv)
        if status != 0 or out_file.read_text(encoding="utf-8") != \
                timed_call(planmark, kb, config, stream.text)[1]:
            tally.fail(f"planmark run exited {status} or its report differs from run()")
    except Exception as exc:  # a crashing command is a failed call
        tally.fail(f"planmark run: {type(exc).__name__}: {exc}")
    metrics["cli.self_s"] = tracer.self_times({CLI_CALL})["cli.main"][0]
    metrics["cli.main_s"] = next(end - start for name, start, end, _, call in tracer.spans
                                 if call == CLI_CALL and name == "cli.main")


def scaling_curve(planmark, args, tally: Tally, metrics: dict, tracer) -> None:
    """Per-layer self seconds of one corpus call at each curve size."""
    for k, size in enumerate(workloads.CURVE_SIZES):
        curve = workloads.corpus(size)
        kb = planmark.load_kb(curve.kb_text)
        stream = curve.stream(args.seed, 0)
        tally.attempted += 1
        try:
            seconds, text = under_trace(tracer, CURVE_CALL - k, timed_call, planmark, kb,
                                        run_config(planmark, curve), stream.text)
        except Exception as exc:  # a crashing call is a failed call
            tally.fail(f"{type(exc).__name__}: {exc}")
            continue
        tally.check(text, stream, recall=False)
        layer_s = dict.fromkeys(LAYERS, 0.0)
        for name, (self_seconds, _) in tracer.self_times({CURVE_CALL - k}).items():
            layer_s[name.split(".")[0]] += self_seconds
        for layer, value in layer_s.items():
            metrics[f"curve.corpus_n{size}.{layer}_s"] = value
        metrics[f"curve.corpus_n{size}.call_s"] = seconds


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in sorted(workloads.WORKLOADS):
        child_argv = ["--workload", name, "--seed", str(args.seed),
                      "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run([sys.executable, __file__, *child_argv,
                               *(["--smoke"] if args.smoke else [])],
                              capture_output=True, text=True, timeout=600)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        for line in lines[:-1]:
            print(f"{name}: {line}")
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny workload sizes")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    planmark = import_planmark()
    OUT.mkdir(exist_ok=True)
    if args.record_reference:
        return record_reference(planmark)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)

    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    key = reference_key(args.workload, args.smoke)
    wl = workloads.build(args.workload, args.smoke)
    if wl.inputs_sha256() != reference[key]["inputs_sha256"]:
        raise SystemExit(f"error: the {key} generator no longer makes the "
                         "inputs reference.json was recorded from")
    kb = planmark.load_kb(wl.kb_text)
    config = run_config(planmark, wl)

    tally = Tally()
    # The reference streams double as warm-up before anything is timed.
    for index, entry in enumerate(reference[key]["calls"]):
        stream = wl.stream(workloads.DEFAULT_SEED, index)
        tally.attempted += 1
        try:
            text = planmark.run(kb, config, stream.text).render()
        except Exception as exc:  # a crashing call is a failed call
            tally.fail(f"{type(exc).__name__}: {exc}")
            continue
        tally.check(text, stream, entry)

    metrics: dict[str, float] = {}
    if args.trace:
        traced(planmark, wl, kb, config, args, tally, metrics)
        units = per_layer_units()
    else:
        untraced(planmark, wl, kb, config, args, tally, metrics)
        units = END_TO_END

    recall = tally.found / tally.planted if tally.planted else None
    print(f"workload {args.workload}{' (smoke)' if args.smoke else ''} seed {args.seed}: "
          f"{tally.attempted} calls, failed_frac {tally.failed / tally.attempted:.4f}, "
          f"planted_recall {'n/a' if recall is None else f'{recall:.4f}'}")
    for problem in tally.problems:
        print(f"failure: {problem}")
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} {metrics[name]:.6g} {unit}")
    correct = tally.failed == 0 and recall in (None, 1.0) and metrics.keys() >= units.keys()
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
