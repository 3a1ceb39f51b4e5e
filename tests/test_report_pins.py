"""Report bytes pinned by hash.

Each case runs a whole stream through `run` and hashes the rendered
report, so any change to which paths the marker emits, their order, their
scores or their downstream records shows up here.  The benchmark's
traffic is pinned the same way: each workload's full-size base and
eight streams of one seed, read from `bench/workloads.py` without
changing it.  The hashes were
first recorded from the engine before its inner loop was flattened, and
re-recorded when the report dropped its ``asserted`` counter and the
header comment explaining it, every other byte unchanged.  A change that
is meant to alter reports must re-record them and say why.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from planmark import EngineConfig, RunConfig, load_kb, run, score_path, synth_corpus
from planmark.paths import parse_path
from planmark.pipeline import SynthParams, parse_stream

from oracles import random_kb, random_kb_stream

sys.path.insert(0, str(Path(__file__).parents[1] / "bench"))
import workloads  # noqa: E402


def synth_case(seed, half_threshold):
    corpus = synth_corpus(seed, SynthParams(n_plans=8, n_stories=8,
                                            corroboration_density=0.7))
    config = RunConfig(engine=EngineConfig(half_threshold=half_threshold, max_depth=6))
    return load_kb(corpus.kb_text), config, "".join(corpus.streams)


def random_kb_case(seed, half_threshold):
    base = random_kb(seed + 7, n_schemas=40, n_roles=40)
    config = RunConfig(engine=EngineConfig(half_threshold=half_threshold, max_depth=4))
    return base, config, random_kb_stream(seed, base, 5)


# (case, seed, half threshold) -> (reported paths, sha256 of the report).
# 1e-8 and 0.0 prune nothing; 3e-4 and 0.2 prune part of what they find.
PINS = {
    ("synth", 0, 1e-8): (28, "ef64fd9df3a7f871fc16754a6fa9c22d9cf419c05a9f5397859f1307f45c4fe4"),
    ("synth", 0, 3e-4): (15, "f6b5548f55e6b9dd7632c7ac4696a0cf3a5b1478854dd38779f0a88073582c55"),
    ("synth", 1, 1e-8): (24, "2a0a63d9459fc6a2248a192467b2d9dc92f26b933bc8c15166a93c2473fa5b10"),
    ("synth", 1, 3e-4): (7, "a2679b2d8b77495a86b0359fbb9c6dca553151ec4bf585e3f8fa51669fc63b37"),
    ("synth", 2, 1e-8): (20, "d8ac31954d5e7f877904ca3816e46539865d0206d9c61958b995aa58e433a6c5"),
    ("synth", 2, 3e-4): (12, "80dc66a43375efafa77fb3a90fde36a69990b520adf5b2d505253e8dbb273425"),
    ("random_kb", 0, 0.0): (384, "4fb69a2e03e8cb81c29a0227f7c5ea9644585162e899eeed8819a8215ca9d791"),
    ("random_kb", 0, 0.2): (30, "47c2150e9575b3ec86bba9002ba83b6a678d45644851824fb983532b18d8cb27"),
    ("random_kb", 1, 0.0): (67, "dcd3901027e93e81395f1f3690785946c0e8381c637e63fbbc91619d9d5876a5"),
    ("random_kb", 1, 0.2): (15, "22e632d93ebe2c9958c798968277a4aaaa7f84ead7936011010fd8d47ac15569"),
    ("random_kb", 2, 0.0): (230, "2d3c48802b7b49124d4dcabbfe044113768088e39c663b243fd2d181f5a092cc"),
    ("random_kb", 2, 0.2): (129, "65d17b64e0365450c9f1580ff5d8667a2981fd61049f7499a2bd7f5f0fba0374"),
}

CASES = {"synth": synth_case, "random_kb": random_kb_case}


@pytest.mark.parametrize("case,seed,half_threshold", sorted(PINS))
def test_report_bytes_are_pinned(case, seed, half_threshold):
    report = run(*CASES[case](seed, half_threshold))
    digest = hashlib.sha256(report.render().encode()).hexdigest()
    assert (report.reported, digest) == PINS[case, seed, half_threshold]


def test_pins_include_thresholds_that_prune():
    for (case, seed, half_threshold), (reported, _) in PINS.items():
        if half_threshold in (3e-4, 0.2):
            assert 0 < reported < PINS[case, seed, 1e-8 if case == "synth" else 0.0][0]


@pytest.mark.parametrize("case,seed,half_threshold", sorted(PINS))
def test_sc_is_the_score_of_the_reported_path(case, seed, half_threshold):
    # `run` reports the score the engine kept from its cleave check; it
    # must be exactly `score_path` of the path the record names.
    base, config, stream = CASES[case](seed, half_threshold)
    beliefs = {obs.instance: obs.belief
               for head, obs, _ in parse_stream(stream) if head == "inst"}
    report = run(base, config, stream)
    assert report.records
    for record in report.records:
        ends = parse_path(base, record.path_text)
        path = parse_path(base, record.path_text,
                          (beliefs[ends.start.instance], beliefs[ends.end.instance]))
        assert record.sc == score_path(base, path)


# workload -> (reported paths, sha256 of the reports) over `stream(11, i)`,
# i = 0..7, each run with the benchmark's own thresholds and depth.
BENCH_PINS = {
    "corpus": (9820, "a3089617f4ce7b1ce62dc5f119aaba69d64a698899606a36c9e206054550b84d"),
    "spread": (8873, "499bddadfd659d0b29e8ecc7f2071d50efd2309828f0cb8e3c522d3a309add80"),
    "longpath": (96, "7f6dfe84eaefba35b827ee9e7be09c9620e071f56fee4d772e6f35a41513a245"),
}


@pytest.mark.parametrize("name", sorted(BENCH_PINS))
def test_benchmark_traffic_is_pinned(name):
    wl = workloads.build(name, smoke=False)
    base = load_kb(wl.kb_text)
    config = RunConfig(engine=EngineConfig(half_threshold=wl.threshold,
                                           full_threshold=wl.full_threshold,
                                           max_depth=wl.max_depth))
    digest, reported = hashlib.sha256(), 0
    for index in range(8):
        report = run(base, config, wl.stream(11, index).text)
        digest.update(report.render().encode())
        reported += report.reported
    assert (reported, digest.hexdigest()) == BENCH_PINS[name]
