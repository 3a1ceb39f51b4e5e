import math
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from planmark import (
    EngineConfig,
    KbError,
    RunConfig,
    load_kb,
    marker,
    parse_path,
    pipeline,
    run,
    synth_corpus,
)
from planmark.bayes import approve, build_network, default_cpts, exact_posterior
from planmark.marker import MarkerEngine, score_path
from planmark.pipeline import SynthParams, parse_stream
from planmark.semantics import relevant_statements

from conftest import FIXTURE_KB_TEXT, chain_kb_text
from oracles import (
    ancestors_or_self,
    declared_slot,
    isa_star,
    random_kb,
    random_kb_stream,
    eqs_of,
    insts_of,
    relevant_statements_by_fold,
    role_count,
    texts_of,
)

FIXTURE_STREAM = """
(inst supermarket2 supermarket :belief 0.9)
(inst go1 go :belief 0.9)
(corroborate supermarket-shopping store-of)
(corroborate supermarket-shopping go-step)
"""


def fixture_config(**engine):
    engine = {"half_threshold": 0.1, "full_threshold": 1.0, "max_depth": 10, **engine}
    return RunConfig(engine=EngineConfig(**engine))


def test_fixture_run_with_full_corroboration(kb):
    report = run(kb, fixture_config(), FIXTURE_STREAM)
    assert (report.reported, report.evaluated) == (1, 1)
    record = report.records[0]
    assert "filtered pass" in record.render()
    assert record.sc == pytest.approx(16.2, rel=1e-12)
    judgement = record.judgement
    assert judgement.posterior == pytest.approx(record.sc * judgement.residual, rel=1e-9)
    # Approval demands posterior >= 1000 * 0.02; impossible here.
    assert report.approved == 0 and not judgement.approved
    assert "p1-gen-1" in record.rs_text


def test_no_corroboration_blocks_evaluation(kb):
    stream = "(inst supermarket2 supermarket :belief 0.9)\n(inst go1 go :belief 0.9)\n"
    report = run(kb, fixture_config(), stream)
    assert (report.reported, report.evaluated, report.approved) == (1, 0, 0)
    record = report.records[0]
    assert "filtered fail" in record.render()
    assert record.judgement is None
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


def test_a_stream_that_fails_to_read_spreads_nothing():
    # `run` reads every record before it spreads, so a bad last record is
    # raised with its line before any origin spreads.
    base = load_kb(FIXTURE_KB_TEXT)
    with pytest.raises(KbError, match="^line 3: unknown schema 'ghost'"):
        run(base, fixture_config(),
            "(inst a supermarket)\n(inst b go)\n(inst c ghost)\n")
    assert base.spreads == {}


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


def corroboration_error(base, schema, slot):
    """What `run` says of one corroboration record: None if it accepts it."""
    try:
        run(base, RunConfig(), f"(corroborate {schema} {slot})\n")
    except KbError as exc:
        return str(exc)
    return None


def declared_around(base, schema, slot):
    """Whether ``slot`` is declared on ``schema``, an isa ancestor of it or
    an isa descendant of it."""
    return declared_slot(base, schema, slot) is not None or any(
        slot in dict(other.slots) and isa_star(base, other.name, schema)
        for other in base.schemas.values())


def test_corroboration_check_matches_a_restatement(kb):
    checked = 0
    for base in [kb] + [random_kb(seed) for seed in range(40)]:
        slots = {slot for schema in base.schemas.values() for slot, _ in schema.slots}
        for schema in [*sorted(base.schemas), "ghost"]:
            for slot in [*sorted(slots), "nope"]:
                if schema not in base.schemas:
                    expected = f"line 1: unknown schema {schema!r}"
                elif declared_around(base, schema, slot):
                    expected = None
                else:
                    expected = (f"line 1: slot {slot!r} is declared neither on "
                                f"{schema!r} nor on its isa ancestors or descendants")
                assert corroboration_error(base, schema, slot) == expected, (schema, slot)
                checked += expected is None
    assert checked > 100


SIBLING_KB_TEXT = ("(eq-prior 0.01)(schema p :prior 0.5)(schema a :isa p :prior 0.2)"
                   "(schema b :isa p :prior 0.2)(schema c :isa a :prior 0.1)"
                   "(schema f :prior 0.5)(role a s f)")


@pytest.mark.parametrize("schema,slot,message", [
    ("a", "s", None),   # declared here
    ("p", "s", None),   # on a descendant
    ("c", "s", None),   # on an ancestor
    # A sibling of the declaring schema shares an ancestor with it, but
    # neither lies above the other.
    ("b", "s", "slot 's' is declared neither on 'b' nor on its isa ancestors "
               "or descendants"),
    ("f", "s", "slot 's' is declared neither on 'f' nor on its isa ancestors "
               "or descendants"),
    ("ghost", "s", "unknown schema 'ghost'"),
    ("a", "nope", "slot 'nope' is declared neither on 'a' nor on its isa "
                  "ancestors or descendants"),
])
def test_corroboration_check_on_siblings(schema, slot, message):
    expected = None if message is None else f"line 1: {message}"
    assert corroboration_error(load_kb(SIBLING_KB_TEXT), schema, slot) == expected


@pytest.mark.parametrize("kwargs", [
    {"half_threshold": math.nan}, {"full_threshold": math.nan}])
def test_engine_config_rejects_a_nan_threshold(kwargs):
    with pytest.raises(ValueError, match="^thresholds must be nonnegative$"):
        EngineConfig(**kwargs)


def test_engine_config_rejects_a_depth_below_one():
    with pytest.raises(ValueError, match="^max_depth must be positive$"):
        EngineConfig(max_depth=0)


@pytest.mark.parametrize("max_depth", [2.5, 3.0, True, "3"])
def test_engine_config_rejects_a_depth_that_is_not_an_int(max_depth):
    # 2.5 used to spread to depth 3 and True to depth 1; max_depth keys a
    # base's spread programs, so a depth must be an int.
    with pytest.raises(ValueError, match=f"^max_depth must be an int, got {max_depth!r}$"):
        EngineConfig(max_depth=max_depth)


@pytest.mark.parametrize("ratio", [math.nan, -5.0])
def test_run_config_rejects_a_nan_or_negative_approval_ratio(ratio):
    with pytest.raises(ValueError, match="^approval ratio must be nonnegative$"):
        RunConfig(approval_ratio=ratio)


def test_run_config_and_synth_params_defaults():
    assert (RunConfig.gamma1, RunConfig.gamma0, RunConfig.approval_ratio) == (0.9, 1e-7, 1000.0)
    config = RunConfig()
    assert (config.gamma1, config.gamma0, config.approval_ratio) == (0.9, 1e-7, 1000.0)
    assert (config.engine.half_threshold, config.engine.full_threshold,
            config.engine.max_depth) == (30.0, 900.0, 10)
    assert RunConfig().engine is not config.engine
    params = SynthParams()
    assert (params.n_plans, params.n_stories, params.corroboration_density) == (6, 6, 1.0)


def test_stream_parser():
    records = parse_stream("(inst a go)\n(inst b go :belief 0.5)\n(corroborate go x)")
    assert [r[0] for r in records] == ["inst", "inst", "corroborate"]
    assert records[0][1].belief == 1.0
    assert records[1][1].belief == 0.5
    assert records[2][1] == ("go", "x")


# The functions `run` judges a claim with, on a miss in the base's table.
EVALUATION = ("build_network", "default_cpts", "exact_posterior", "approve")


def count_evaluations(monkeypatch):
    """Count the calls `run` makes to each of the functions in EVALUATION."""
    calls = dict.fromkeys(EVALUATION, 0)
    for name in EVALUATION:
        def counting(*args, _name=name, _fn=getattr(pipeline, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, counting)
    return calls


def test_reports_are_byte_identical(monkeypatch):
    # On a freshly loaded base the first run judges the one claim, and the
    # second reuses its judgement, evaluating nothing.
    base, config = load_kb(FIXTURE_KB_TEXT), fixture_config()
    calls = count_evaluations(monkeypatch)
    first = run(base, config, FIXTURE_STREAM).render()
    assert calls == dict.fromkeys(EVALUATION, 1)
    second = run(base, config, FIXTURE_STREAM).render()
    assert calls == dict.fromkeys(EVALUATION, 1)
    assert first == second
    lines = first.splitlines()
    assert lines[-1] == "counters reported=1 evaluated=1 approved=0"
    assert [line for line in lines if line.startswith("#")] == ["# planmark run report"]
    assert lines[0] == "# planmark run report"


@pytest.mark.parametrize("kwargs", [
    {"gamma1": 0.5}, {"gamma0": 1e-3}, {"approval_ratio": 1e-6},
    {"engine": {"half_threshold": 2.0}}, {"engine": {"max_depth": 1}}, {"belief": 0.5},
    {"engine": {"full_threshold": 20.0}}])
def test_a_base_warmed_at_the_defaults_judges_other_settings_afresh(kwargs):
    # The settings are part of a claim's key, so what a base judged at the
    # defaults is not reused at other interior strengths or ratio.  The
    # half threshold, max_depth and an observation's belief key its seed's
    # spread program, so a base spreads that seed again at other values;
    # the full threshold does not, so a base reuses its programs at another.
    base = load_kb(FIXTURE_KB_TEXT)
    default = run(base, fixture_config(), FIXTURE_STREAM).render()
    programs = dict(base.spreads)
    settings = dict(kwargs)
    engine = settings.pop("engine", {})
    stream = FIXTURE_STREAM.replace("go1 go :belief 0.9",
                                    f"go1 go :belief {settings.pop('belief', 0.9)}")
    other = RunConfig(engine=fixture_config(**engine).engine, **settings)
    expected = run(load_kb(FIXTURE_KB_TEXT), other, stream).render()
    assert expected != default
    assert run(base, other, stream).render() == expected
    respread = "belief" in kwargs or bool(engine.keys() - {"full_threshold"})
    assert (base.spreads == programs) != respread
    assert run(base, fixture_config(), FIXTURE_STREAM).render() == default


def capped_table_case():
    """A synthetic base, a config, and its stories as streams, each alone
    and then all in one stream, whose cross-story paths repeat claims."""
    corpus = synth_corpus(5, SynthParams(n_plans=12, n_stories=10,
                                         corroboration_density=0.6))
    config = RunConfig(engine=EngineConfig(half_threshold=1e-8, max_depth=6))
    return corpus.kb_text, config, corpus.streams + ["".join(corpus.streams)]


def test_a_full_table_is_cleared_without_changing_a_report(monkeypatch):
    # With room for two claims and two six-mark spread programs both tables
    # are cleared again and again; every claim judged anew must render as
    # before, and every seed spread anew must emit as before.  Neither
    # table may ever hold more, and the base still equals a freshly loaded
    # one.
    kb_text, config, streams = capped_table_case()
    fresh = load_kb(kb_text)
    expected = [run(fresh, config, stream).render() for stream in streams]
    assert len(fresh.judgements) > 2
    assert len(fresh.spreads) > 2 and {*map(len, fresh.spreads.values())} == {6}
    monkeypatch.setattr(pipeline, "_JUDGEMENTS_MAX", 2)
    monkeypatch.setattr(marker, "_SPREADS_MAX", 12)
    base, sizes, programs = load_kb(kb_text), [], []
    approve, publish = pipeline.approve, MarkerEngine._publish

    def sizing_approve(*args, **kwargs):
        sizes.append(len(base.judgements))
        return approve(*args, **kwargs)

    def sizing_publish(engine, key, program):
        programs.append((len(base.spreads), base.spread_marks))
        return publish(engine, key, program)

    monkeypatch.setattr(pipeline, "approve", sizing_approve)
    monkeypatch.setattr(MarkerEngine, "_publish", sizing_publish)
    for _ in range(2):
        assert [run(base, config, stream).render() for stream in streams] == expected
        sizes.append(len(base.judgements))
        programs.append((len(base.spreads), base.spread_marks))
    # The second pass judged its claims and spread its seeds again: the
    # first pass's were cleared.
    assert max(sizes) == 2 and len(sizes) > 2 * len(fresh.judgements) + 2
    assert max(programs) == (2, 12) and len(programs) > 2 * len(fresh.spreads) + 2
    assert base.spread_marks == sum(map(len, base.spreads.values()))
    assert base.judgements and base.spreads and base == fresh == load_kb(kb_text)


def test_threads_sharing_a_base_report_what_one_thread_does(monkeypatch):
    # Threads share a base's tables, and with room for 3 claims and 3
    # spread programs they clear them under each other's feet; no report
    # may change, and the base still equals a freshly loaded one.
    kb_text, config, streams = capped_table_case()
    expected = [run(load_kb(kb_text), config, stream).render() for stream in streams]
    monkeypatch.setattr(pipeline, "_JUDGEMENTS_MAX", 3)
    monkeypatch.setattr(marker, "_SPREADS_MAX", 18)
    base = load_kb(kb_text)

    def run_all():
        return [run(base, config, stream).render() for stream in streams]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(run_all) for _ in range(6)]
            reports = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert reports == [expected] * 6
    # A lost update to the table's count of marks would show here.
    assert base.spread_marks == sum(map(len, base.spreads.values())) <= 18
    assert base == load_kb(kb_text)


def test_ever_new_beliefs_keep_the_spread_table_under_its_cap(monkeypatch):
    # Each call observes the same schemas at beliefs no earlier call used,
    # so every seed is new and the table is cleared as it fills; it never
    # holds more marks than the cap, and each report is a fresh base's.
    kb_text, config, streams = capped_table_case()
    monkeypatch.setattr(marker, "_SPREADS_MAX", 40)
    base = load_kb(kb_text)
    held = set()
    for step in range(1, 30):
        stream = streams[step % len(streams)].replace(":belief 1.0", f":belief {1 - step / 64}")
        assert run(base, config, stream).render() == run(load_kb(kb_text), config,
                                                         stream).render()
        held |= base.spreads.keys()
        assert len(base.spreads) <= base.spread_marks <= 40
        assert base.spread_marks == sum(map(len, base.spreads.values()))
    assert len(held) > 40


def test_long_chain_is_reported_and_evaluated():
    base = load_kb(chain_kb_text(12))
    stream_lines = ["(inst x c0)", "(inst y c12)"]
    stream_lines += [f"(corroborate c{i + 1} step)" for i in range(12)]
    config = RunConfig(engine=EngineConfig(half_threshold=0.0, full_threshold=0.0,
                                           max_depth=12))
    report = run(base, config, "\n".join(stream_lines))
    assert report.reported == report.evaluated == 1
    record = report.records[0]
    assert record.judgement.posterior == pytest.approx(
        record.sc * record.judgement.residual, rel=1e-9)


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
        base = load_kb(corpus.kb_text)
        config = RunConfig(engine=EngineConfig(half_threshold=1e-8,
                                               full_threshold=1e-8, max_depth=6))
        for stream in corpus.streams:
            report = run(base, config, stream)
            assert report.approved <= report.evaluated <= report.reported


# A draw of `random_kb` streams, the interior strengths and the approval
# ratio; the ratio is log-uniform over ten decades.
APPROVAL_RUNS = st.tuples(
    st.integers(0, 400),
    st.floats(1e-3, 1.0),
    st.floats(1e-9, 1.0),
    st.floats(-6.0, 4.0).map(lambda exponent: 10.0 ** exponent),
)


def approved_records_clearing_the_bound(seed, gamma1, gamma0, ratio):
    """Run a random stream and check that every approved record's sc is
    at least ratio * prod p(fresh) * min(gamma0, gamma1) / (p(==)^k *
    gamma1), to 1e-9 relative; return the number approved.  The bound is
    approve's test, posterior >= ratio * prod p(fresh), with posterior =
    sc * residual and residual at most p(==)^k * gamma1 / min(gamma0,
    gamma1) for a path of k role links."""
    base = random_kb(seed, n_schemas=24, n_roles=30)
    stream = random_kb_stream(seed, base, 6)
    config = RunConfig(engine=EngineConfig(half_threshold=0.0, max_depth=4),
                       gamma1=gamma1, gamma0=gamma0, approval_ratio=ratio)
    beliefs = {obs.instance: obs.belief
               for head, obs, _ in parse_stream(stream) if head == "inst"}
    approved = [record for record in run(base, config, stream).records
                if record.judgement is not None and record.judgement.approved]
    for record in approved:
        ends = parse_path(base, record.path_text)
        path = parse_path(base, record.path_text,
                          (beliefs[ends.start.instance], beliefs[ends.end.instance]))
        fresh = math.prod(build_network(base, path, relevant_statements(path)).priors[1:-1])
        bound = (ratio * fresh * min(gamma0, gamma1)
                 / (base.eq_prior ** role_count(path) * gamma1))
        assert record.sc >= bound * (1 - 1e-9), (record.path_text, record.sc, bound)
    return len(approved)


@settings(max_examples=60, deadline=None)
@given(APPROVAL_RUNS)
def test_approved_records_clear_the_approval_bound(draw):
    approved_records_clearing_the_bound(*draw)


def test_some_drawn_runs_approve():
    # The bound is checked on approved records only, so some draws must
    # approve for it to be checked at all.
    find(APPROVAL_RUNS, lambda draw: approved_records_clearing_the_bound(*draw) > 0,
         settings=settings(max_examples=200, deadline=None, database=None,
                           phases=[Phase.generate]))


def test_synth_is_deterministic():
    a = synth_corpus(1)
    b = synth_corpus(1)
    assert a.kb_text == b.kb_text
    assert a.streams == b.streams
    assert load_kb(a.kb_text) == load_kb(b.kb_text)


def test_synth_density_extremes():
    config = RunConfig(engine=EngineConfig(half_threshold=1e-8,
                                           full_threshold=1e-8, max_depth=6))
    full = synth_corpus(3, SynthParams(corroboration_density=1.0))
    full_kb = load_kb(full.kb_text)
    for stream in full.streams:
        report = run(full_kb, config, stream)
        assert report.evaluated == report.reported == 1

    none = synth_corpus(3, SynthParams(corroboration_density=0.0))
    none_kb = load_kb(none.kb_text)
    for stream in none.streams:
        report = run(none_kb, config, stream)
        assert report.evaluated == 0


@pytest.mark.parametrize("density", [math.nan, -0.1, 1.0 + 1e-12, 5.0])
def test_synth_density_outside_unit_interval_rejected(density):
    with pytest.raises(ValueError, match=r"^corroboration density must be in \[0,1\]$"):
        SynthParams(corroboration_density=density)


@pytest.mark.parametrize("n_plans", [0, -2])
def test_synth_params_reject_fewer_than_one_plan(n_plans):
    # Without the check, `synth_corpus` failed inside `random` drawing a
    # story's plan from none.
    with pytest.raises(ValueError, match="^a synthetic base needs at least one plan$"):
        SynthParams(n_plans=n_plans)
    assert len(synth_corpus(1, SynthParams(n_plans=1, n_stories=2)).streams) == 2


@pytest.mark.parametrize("kwargs, message", [
    ({"n_plans": 2.5}, "^n_plans must be an int, got 2.5$"),
    ({"n_plans": True}, "^n_plans must be an int, got True$"),
    ({"n_stories": 3.0}, "^n_stories must be an int, got 3.0$"),
    ({"n_stories": False}, "^n_stories must be an int, got False$"),
    ({"n_stories": -3}, "^n_stories must be nonnegative$"),
    ({"corroboration_density": True},
     "^corroboration density must be a real number, got True$"),
    ({"corroboration_density": "0.5"},
     "^corroboration density must be a real number, got '0.5'$")])
def test_synth_params_reject_a_count_that_is_not_a_count(kwargs, message):
    # Without the checks, n_stories=-3 gave no streams, n_plans=2.5
    # failed with a TypeError inside `synth_corpus`, a density of True was
    # drawn as 1.0 and one of "0.5" failed with a TypeError.
    with pytest.raises(ValueError, match=message):
        SynthParams(**kwargs)
    assert synth_corpus(1, SynthParams(n_plans=1, n_stories=0)).streams == []


def test_synth_planted_plans_get_approved():
    config = RunConfig(engine=EngineConfig(half_threshold=1e-8,
                                           full_threshold=1e-8, max_depth=6))
    corpus = synth_corpus(4, SynthParams(corroboration_density=1.0))
    base = load_kb(corpus.kb_text)
    approved = evaluated = 0
    for stream in corpus.streams:
        report = run(base, config, stream)
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


def filter_by_ancestors(base, statements, corroborated):
    # ``corroborated`` maps each slot to the schemas it is corroborated at.
    relevant_type = {inst.instance: inst.schema for inst in insts_of(statements)}
    return all(any(schema in corroborated.get(eq.slot, ())
                   for schema in ancestors_or_self(base, relevant_type[eq.owner]))
               for eq in eqs_of(statements))


def drawn_corroborations(seed, base, engine_config):
    """A `random_kb` stream whose last observation is repeated under a
    second name, so that paths from an earlier one to the two repeat each
    other's claims, followed by corroborations drawn from the paths a first
    engine pass emits: every slot equality of each path, at its owner's
    relevant type, each distinct record kept with probability 0.95.  Most
    of the paths then pass the evidence filter, and some fail it."""
    stream = random_kb_stream(seed, base, 4)
    *_, last = (payload for head, payload, _ in parse_stream(stream) if head == "inst")
    stream += f"(inst twin {last.schema} :belief {last.belief!r})\n"
    engine = MarkerEngine(base, engine_config)
    for head, payload, _ in parse_stream(stream):
        if head == "inst":
            engine.seed(payload)
            engine.spread()
    records = []
    for index, path in enumerate(engine.scores, start=1):
        folded = relevant_statements_by_fold(base, path, f"p{index}-gen-")
        relevant_type = {inst.instance: inst.schema for inst in insts_of(folded)}
        records += [f"(corroborate {relevant_type[eq.owner]} {eq.slot})\n"
                    for eq in eqs_of(folded)]
    rng = random.Random(seed)
    return stream + "".join(record for record in dict.fromkeys(records)
                            if rng.random() < 0.95)


def table_cases():
    """(base, engine config, stream, whether the stream's corroborations
    were drawn from its paths) for the differential record tests."""
    for seed in range(8):
        base = random_kb(seed + 100, n_schemas=30, n_roles=36)
        yield (base, EngineConfig(half_threshold=0.0, max_depth=5),
               random_kb_stream(seed, base, 5), False)
    for seed in range(3):
        base = random_kb(seed + 108, n_schemas=30, n_roles=36)
        config = EngineConfig(half_threshold=0.0, max_depth=5)
        yield base, config, drawn_corroborations(seed, base, config), True
    for seed in range(3):
        corpus = synth_corpus(seed + 100, SynthParams(n_plans=12, n_stories=10,
                                                      corroboration_density=0.6))
        yield (load_kb(corpus.kb_text), EngineConfig(half_threshold=1e-8, max_depth=6),
               "".join(corpus.streams), False)


def test_records_from_the_load_time_tables_match_the_direct_forms():
    # `run` reads the scores, link texts, priors and parents the base and
    # the engine keep; each record must equal what the direct forms give
    # for the path the engine emitted.
    checked = passed = checked_drawn = passed_drawn = 0
    for base, engine_config, stream, drawn in table_cases():
        report = run(base, RunConfig(engine=engine_config), stream)
        engine = MarkerEngine(base, engine_config)
        corroborated = {}
        for head, payload, _ in parse_stream(stream):
            if head == "inst":
                engine.seed(payload)
                engine.spread()
            else:
                schema, slot = payload
                corroborated.setdefault(slot, set()).add(schema)
        assert len(report.records) == len(engine.scores)
        for index, (path, record) in enumerate(zip(engine.scores, report.records), start=1):
            prefix = f"p{index}-gen-"
            rs = relevant_statements(path, prefix)
            assert record.sc == score_path(base, path)
            assert record.path_text == path.render()
            # The fold oracle renders its statements one by one.
            folded = relevant_statements_by_fold(base, path, prefix)
            assert rs.statements == texts_of(folded)
            assert record.rs_text == "".join(rs.statements)
            insts = insts_of(folded)
            assert rs.names == tuple(inst.instance for inst in insts)
            assert rs.types == tuple(inst.schema for inst in insts)
            assert [eq.slot for eq in eqs_of(folded)] == [link.slot for link in rs.roles]
            verdict = filter_by_ancestors(base, folded, corroborated)
            assert (record.judgement is not None) == verdict
            checked += 1
            passed += verdict
            checked_drawn += drawn
            passed_drawn += verdict and drawn
    assert checked > 1000 and 0 < passed < checked
    # Streams with drawn corroborations pass most of their paths (2,494 of
    # 3,116), where the other random streams pass almost none.
    assert 2000 < passed_drawn < checked_drawn < 2 * passed_drawn


# Two stories of one plan, the first with its second filler at belief 0.5:
# the paths a1 -> b1 and a1 -> b2 take the same links but differ in their
# end belief.
MIXED_BELIEF_STREAM = """
(inst a1 kind-0a)
(inst b1 kind-0b :belief 0.5)
(inst a2 kind-0a)
(inst b2 kind-0b)
(corroborate plan-0 first-of)
(corroborate plan-0 second-of)
"""


def renamed_without_the_first_observation(stream):
    """The stream's observations but its first, under new names and in the
    same order, then its corroborations: most of its paths make the claims
    paths of the stream made, between other instances and at other
    indexes."""
    records = parse_stream(stream)
    observations = [payload for head, payload, _ in records if head == "inst"][1:]
    return "".join(
        [f"(inst {obs.instance}-again {obs.schema} :belief {obs.belief!r})\n"
         for obs in observations]
        + [f"(corroborate {' '.join(payload)})\n"
           for head, payload, _ in records if head == "corroborate"])


def test_each_evaluated_record_equals_a_fresh_evaluation_of_its_own_path():
    # `run` evaluates each distinct claim once per base and reuses its
    # values for every path that repeats it, in that call and later ones;
    # each record must equal what evaluating its own path afresh gives.
    # Each case runs its stream and then a second stream on the base the
    # first warmed.
    mixed_base = load_kb(synth_corpus(0, SynthParams(n_plans=1, n_stories=1)).kb_text)
    cases = list(table_cases()) + [
        (mixed_base, EngineConfig(half_threshold=1e-8, max_depth=6), MIXED_BELIEF_STREAM,
         False)]
    evaluated = shared = evaluated_drawn = repeated_drawn = 0
    evaluated_warm = reused_warm = 0
    for base, engine_config, first_stream, drawn in cases:
        config = RunConfig(engine=engine_config)
        claims = set()
        for stream in (first_stream, renamed_without_the_first_observation(first_stream)):
            warm = stream is not first_stream
            report = run(base, config, stream)
            engine = MarkerEngine(base, engine_config)
            for head, payload, _ in parse_stream(stream):
                if head == "inst":
                    engine.seed(payload)
                    engine.spread()
            assert len(report.records) == len(engine.scores)
            beliefs_by_links = {}
            for index, (path, record) in enumerate(zip(engine.scores, report.records),
                                                   start=1):
                if record.judgement is None:
                    continue
                network = build_network(base, path,
                                        relevant_statements(path, f"p{index}-gen-"))
                posterior, residual = exact_posterior(network, default_cpts(
                    base, network, config.gamma1, config.gamma0))
                judgement = record.judgement
                assert (judgement.posterior, judgement.residual) == (posterior, residual)
                assert judgement.approved == approve(network, posterior,
                                                     ratio=config.approval_ratio)
                claim = (path.links, path.start.belief, path.end.belief)
                if warm:
                    evaluated_warm += 1
                    reused_warm += claim in claims
                    continue
                evaluated += 1
                beliefs_by_links.setdefault(path.links, set()).add(
                    (path.start.belief, path.end.belief))
                if drawn:
                    evaluated_drawn += 1
                    repeated_drawn += claim in claims
                claims.add(claim)
            shared += sum(len(beliefs) > 1 for beliefs in beliefs_by_links.values())
    # Some evaluated paths share their links but not their end beliefs.
    assert evaluated > 50 and shared > 0
    # On the random bases, many evaluated paths repeat a claim (750 of 2,494).
    assert evaluated_drawn > 2000 and repeated_drawn > 500
    # Every evaluated record of the second streams (1,913) makes a claim
    # its first stream judged, so its judgement came from the table.
    assert reused_warm == evaluated_warm > 1500


def test_a_repeated_corroboration_is_checked_once(kb, monkeypatch):
    checked, indexes = [], []
    check, evidence_filter = pipeline._check_corroboration, pipeline.evidence_filter

    def counting_check(base, schema, slot):
        checked.append((schema, slot))
        check(base, schema, slot)

    def recording_filter(base, rs, corroborated):
        indexes.append({slot: set(schemas) for slot, schemas in corroborated.items()})
        return evidence_filter(base, rs, corroborated)

    expected = run(kb, fixture_config(), FIXTURE_STREAM).render()
    monkeypatch.setattr(pipeline, "_check_corroboration", counting_check)
    monkeypatch.setattr(pipeline, "evidence_filter", recording_filter)
    repeated = FIXTURE_STREAM + "(corroborate supermarket-shopping store-of)\n" * 3
    assert run(kb, fixture_config(), repeated).render() == expected
    assert checked == [("supermarket-shopping", "store-of"),
                       ("supermarket-shopping", "go-step")]
    assert indexes == [{"store-of": {"supermarket-shopping"},
                        "go-step": {"supermarket-shopping"}}]


def test_a_repeated_bad_corroboration_fails_at_its_first_line(kb):
    stream = FIXTURE_STREAM + "(corroborate supermarket-shopping store-off)\n" * 2
    with pytest.raises(KbError, match="^line 6: slot 'store-off' is declared neither"):
        run(kb, fixture_config(), stream)
