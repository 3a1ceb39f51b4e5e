import math
import re

import pytest

from planmark import (
    EngineConfig,
    KbError,
    RunConfig,
    load_kb,
    run,
    synth_corpus,
)
from planmark.pipeline import SynthParams, parse_stream

from conftest import chain_kb_text

FIXTURE_STREAM = """
(inst supermarket2 supermarket :belief 0.9)
(inst go1 go :belief 0.9)
(corroborate supermarket-shopping store-of)
(corroborate supermarket-shopping go-step)
"""


def fixture_config(**kwargs):
    engine = EngineConfig(half_threshold=0.1, full_threshold=1.0, max_depth=10,
                          **kwargs)
    return RunConfig(engine=engine)


def test_fixture_run_with_full_corroboration(kb):
    report = run(kb, fixture_config(), FIXTURE_STREAM)
    assert (report.reported, report.evaluated) == (1, 1)
    record = report.records[0]
    assert record.filtered == "pass"
    assert record.sc == pytest.approx(16.2, rel=1e-12)
    assert record.posterior == pytest.approx(record.sc * record.residual, rel=1e-9)
    # Approval demands posterior >= 1000 * 0.02; impossible here.
    assert report.approved == 0 and not record.approved
    assert "p1-gen-1" in record.rs_text


def test_no_corroboration_blocks_evaluation(kb):
    stream = "(inst supermarket2 supermarket :belief 0.9)\n(inst go1 go :belief 0.9)\n"
    report = run(kb, fixture_config(), stream)
    assert (report.reported, report.evaluated, report.approved) == (1, 0, 0)
    record = report.records[0]
    assert record.filtered == "fail"
    assert record.posterior is None
    assert "posterior -" in record.render()


def test_empty_stream(kb):
    report = run(kb, fixture_config(), "")
    assert (report.reported, report.evaluated, report.approved) == (0, 0, 0)
    assert report.records == []


def test_parse_errors_carry_line(kb):
    with pytest.raises(KbError, match="line 2"):
        run(kb, fixture_config(), "(inst a go)\n(frobnicate)")
    with pytest.raises(KbError, match="belief"):
        run(kb, fixture_config(), "(inst a go :belief 1.5)")
    with pytest.raises(KbError, match="unknown schema"):
        run(kb, fixture_config(), "(inst a ghost)")


@pytest.mark.parametrize("record,message", [
    ("(inst b ghost)", "unknown schema 'ghost'"),
    ("(corroborate ghost store-of)", "unknown schema 'ghost'"),
    ("(inst a go)", "instance 'a' already observed as"),
])
def test_record_errors_name_their_line(kb, record, message):
    with pytest.raises(KbError, match=f"^line 2: {re.escape(message)}"):
        run(kb, fixture_config(), f"(inst a supermarket)\n{record}\n")


def test_corroboration_of_an_undeclared_slot_is_rejected(kb):
    # A slot declared on no schema above or below the record's schema can
    # never match a slot equality, so a misspelt slot is an input error.
    stream = FIXTURE_STREAM.replace("store-of", "store-off")
    with pytest.raises(KbError, match="^line 4: slot 'store-off' is declared neither "
                                      "on 'supermarket-shopping' nor"):
        run(kb, fixture_config(), stream)
    # Declared on a descendant (store-of) or an ancestor (go-step): accepted.
    report = run(kb, fixture_config(), FIXTURE_STREAM.replace(
        "supermarket-shopping", "shopping"))
    assert report.evaluated == 1


@pytest.mark.parametrize("kwargs", [
    {"half_threshold": math.nan}, {"full_threshold": math.nan}])
def test_engine_config_rejects_a_nan_threshold(kwargs):
    with pytest.raises(ValueError, match="^thresholds must be nonnegative$"):
        EngineConfig(**kwargs)


def test_engine_config_rejects_a_depth_below_one():
    with pytest.raises(ValueError, match="^max_depth must be positive$"):
        EngineConfig(max_depth=0)


@pytest.mark.parametrize("ratio", [math.nan, -5.0])
def test_run_config_rejects_a_nan_or_negative_approval_ratio(ratio):
    with pytest.raises(ValueError, match="^approval ratio must be nonnegative$"):
        RunConfig(approval_ratio=ratio)


def test_stream_parser():
    records = parse_stream("(inst a go)\n(inst b go :belief 0.5)\n(corroborate go x)")
    assert [r[0] for r in records] == ["inst", "inst", "corroborate"]
    assert records[0][1].belief == 1.0
    assert records[1][1].belief == 0.5
    assert records[2][1] == ("go", "x")


def test_reports_are_byte_identical(kb):
    config = fixture_config()
    first = run(kb, config, FIXTURE_STREAM).render()
    second = run(kb, config, FIXTURE_STREAM).render()
    assert first == second
    lines = first.splitlines()
    assert lines[-1] == "counters reported=1 evaluated=1 approved=0"
    assert [line for line in lines if line.startswith("#")] == ["# planmark run report"]
    assert lines[0] == "# planmark run report"


def test_long_chain_is_reported_and_evaluated():
    base = load_kb(chain_kb_text(12))
    stream_lines = ["(inst x c0)", "(inst y c12)"]
    stream_lines += [f"(corroborate c{i + 1} step)" for i in range(12)]
    config = RunConfig(engine=EngineConfig(half_threshold=0.0, full_threshold=0.0,
                                           max_depth=12))
    report = run(base, config, "\n".join(stream_lines))
    assert report.reported == report.evaluated == 1
    record = report.records[0]
    assert record.posterior == pytest.approx(record.sc * record.residual, rel=1e-9)


def test_observation_named_like_a_fresh_instance(kb):
    # The default fresh-name prefix is gen-; the run's own is p<k>-gen-.
    stream = FIXTURE_STREAM.replace("supermarket2", "gen-1")
    report = run(kb, fixture_config(), stream)
    assert (report.reported, report.evaluated) == (1, 1)
    assert "(= (store-of p1-gen-1) gen-1)" in report.records[0].rs_text


@pytest.mark.parametrize("name", ["p1-gen-1", "p12-gen-30"])
def test_observation_with_a_reserved_fresh_name_is_rejected(kb, name):
    # p<k>-gen-<j> is the form of the fresh names the run gives path k.
    stream = FIXTURE_STREAM.replace("supermarket2", name)
    with pytest.raises(KbError, match=f"line 2: instance ID {name!r} is reserved"):
        run(kb, fixture_config(), stream)


@pytest.mark.parametrize("name", ["p-gen-1", "p1-gen-", "xp1-gen-1", "p1-gen-1x"])
def test_names_outside_the_reserved_form_are_accepted(name):
    [(head, obs, line)] = parse_stream(f"(inst {name} go)")
    assert obs.instance == name


def test_counter_chain_inequality_on_synth_runs():
    for seed in range(5):
        corpus = synth_corpus(seed, SynthParams(corroboration_density=0.5))
        config = RunConfig(engine=EngineConfig(half_threshold=1e-8,
                                               full_threshold=1e-8, max_depth=6))
        for stream in corpus.streams:
            report = run(corpus.kb, config, stream)
            assert report.approved <= report.evaluated <= report.reported


def test_synth_is_deterministic():
    a = synth_corpus(1)
    b = synth_corpus(1)
    assert a.kb_text == b.kb_text
    assert a.streams == b.streams
    assert a.kb == b.kb


def test_synth_density_extremes():
    config = RunConfig(engine=EngineConfig(half_threshold=1e-8,
                                           full_threshold=1e-8, max_depth=6))
    full = synth_corpus(3, SynthParams(corroboration_density=1.0))
    for stream in full.streams:
        report = run(full.kb, config, stream)
        assert report.evaluated == report.reported == 1

    none = synth_corpus(3, SynthParams(corroboration_density=0.0))
    for stream in none.streams:
        report = run(none.kb, config, stream)
        assert report.evaluated == 0


@pytest.mark.parametrize("density", [math.nan, -0.1, 1.0 + 1e-12, 5.0])
def test_synth_density_outside_unit_interval_rejected(density):
    with pytest.raises(ValueError, match=r"^corroboration density must be in \[0,1\]$"):
        SynthParams(corroboration_density=density)


def test_synth_planted_plans_get_approved():
    config = RunConfig(engine=EngineConfig(half_threshold=1e-8,
                                           full_threshold=1e-8, max_depth=6))
    corpus = synth_corpus(4, SynthParams(corroboration_density=1.0))
    approved = evaluated = 0
    for stream in corpus.streams:
        report = run(corpus.kb, config, stream)
        evaluated += report.evaluated
        approved += report.approved
    assert evaluated == len(corpus.streams)
    assert approved == evaluated


def test_fresh_names_are_prefixed_per_path(kb):
    report = run(kb, fixture_config(), FIXTURE_STREAM)
    assert "(= (store-of p1-gen-1) supermarket2)" in report.records[0].rs_text


def test_record_field_names_and_order_are_fixed(kb):
    report = run(kb, fixture_config(), FIXTURE_STREAM)
    fields = [line.split(" ", 1)[0] for line in report.records[0].render().splitlines()]
    assert fields == ["path", "sc", "rs", "filtered", "posterior", "residual",
                      "approved"]
    assert report.render().splitlines()[-1].startswith("counters ")
