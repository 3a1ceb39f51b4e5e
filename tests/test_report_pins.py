"""Report bytes pinned by hash.

Each case runs a whole stream through `run` and hashes the rendered
report, so any change to which paths the marker emits, their order, their
scores or their downstream records shows up here.  The hashes were
recorded from the engine before its inner loop was flattened; a change
that is meant to alter reports must re-record them and say why.
"""

import hashlib
import random

import pytest

from planmark import EngineConfig, RunConfig, run, score_path, synth_corpus
from planmark.paths import parse_path
from planmark.pipeline import SynthParams, parse_stream

from oracles import random_kb


def random_kb_stream(seed, base, n_obs):
    """Observations on random schemas, with a corroboration of a random
    declared slot after most of them."""
    rng = random.Random(seed)
    names = sorted(base.schemas)
    lines = []
    for k in range(n_obs):
        name = rng.choice(names)
        belief = 1.0 if base.prior(name) >= 1.0 else round(rng.uniform(0.5, 1.0), 3)
        lines.append(f"(inst o{k} {name} :belief {belief!r})")
        owner = base.schemas[rng.choice(names)]
        if owner.slots and rng.random() < 0.7:
            lines.append(f"(corroborate {owner.name} {rng.choice(owner.slots)[0]})")
    return "\n".join(lines) + "\n"


def synth_case(seed, half_threshold):
    corpus = synth_corpus(seed, SynthParams(n_plans=8, n_stories=8,
                                            corroboration_density=0.7))
    config = RunConfig(engine=EngineConfig(half_threshold=half_threshold, max_depth=6))
    return corpus.kb, config, "".join(corpus.streams)


def random_kb_case(seed, half_threshold):
    base = random_kb(seed + 7, n_schemas=40, n_roles=40)
    config = RunConfig(engine=EngineConfig(half_threshold=half_threshold, max_depth=4))
    return base, config, random_kb_stream(seed, base, 5)


# (case, seed, half threshold) -> (reported paths, sha256 of the report).
# 1e-8 and 0.0 prune nothing; 3e-4 and 0.2 prune part of what they find.
PINS = {
    ("synth", 0, 1e-8): (28, "04bbfa1c26f0483983760ac6e5c7baafd5c741e7b5a95166527a7e9c9caded6a"),
    ("synth", 0, 3e-4): (15, "dd2115203cb189d69cf373742849ee13565b7457cc5f631e68b0d4e4a145438f"),
    ("synth", 1, 1e-8): (24, "3e96c03c49845a505b4d1e4fd30b24ac400b4a16015d2a7c32b2af98273ff1ce"),
    ("synth", 1, 3e-4): (7, "6e96bb7b0fe3e7b5db2b7ebdaef8695fc563dc5634946ba99f5d88c127f5011a"),
    ("synth", 2, 1e-8): (20, "bba5240b908ff76b0a43fbe1b31c61645ae69c10652be73c1d906125cf6f0e69"),
    ("synth", 2, 3e-4): (12, "151d73e7114212495ee829336e86734984e03d6ef684654ad7df9ce95e548e87"),
    ("random_kb", 0, 0.0): (384, "4a680a0859848de8ea67d091361b46439f250188897e9245a91cf3dac5621d99"),
    ("random_kb", 0, 0.2): (30, "df5491b2f83cd36806a8e3b5c57b9bc73503e72dbddb85ab22fd171a73ff23d3"),
    ("random_kb", 1, 0.0): (67, "5eda236bb2b2efa2255254eee1e2d2355947e68711047f390fb40ab8578bad26"),
    ("random_kb", 1, 0.2): (15, "6cc4a45f6a31ce272afde5fdc0b34c37edca94a927e7ce141bef3c9d9e5ef6fb"),
    ("random_kb", 2, 0.0): (230, "21814b8a6211fd501d8940068fb0eeb2a56226cbc0b4410df31029cbb19da455"),
    ("random_kb", 2, 0.2): (129, "d16b0fa9d0a4f3b87d3fce5b9b3b262a384bd0935e7027d704945e80078ceaff"),
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
