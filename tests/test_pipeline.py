import math
import re

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from planmark import (
    EngineConfig,
    KbError,
    RunConfig,
    load_kb,
    parse_path,
    pipeline,
    run,
    synth_corpus,
)
from planmark.bayes import approve, build_network, default_cpts, exact_posterior
from planmark.marker import MarkerEngine, score_path
from planmark.pipeline import SynthParams, parse_stream
from planmark.semantics import relevant_statements

from conftest import chain_kb_text
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


def fixture_config(**kwargs):
    engine = EngineConfig(half_threshold=0.1, full_threshold=1.0, max_depth=10,
                          **kwargs)
    return RunConfig(engine=engine)


def test_fixture_run_with_full_corroboration(kb):
    report = run(kb, fixture_config(), FIXTURE_STREAM)
    assert (report.reported, report.evaluated) == (1, 1)
    record = report.records[0]
    assert "filtered pass" in record.render()
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
    assert "filtered fail" in record.render()
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
    approved = [record for record in run(base, config, stream).records if record.approved]
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


def table_cases():
    for seed in range(8):
        base = random_kb(seed + 100, n_schemas=30, n_roles=36)
        yield base, EngineConfig(half_threshold=0.0, max_depth=5), random_kb_stream(seed, base, 5)
    for seed in range(3):
        corpus = synth_corpus(seed + 100, SynthParams(n_plans=12, n_stories=10,
                                                      corroboration_density=0.6))
        yield (load_kb(corpus.kb_text), EngineConfig(half_threshold=1e-8, max_depth=6),
               "".join(corpus.streams))


def test_records_from_the_load_time_tables_match_the_direct_forms():
    # `run` reads the scores, link texts, priors and parents the base and
    # the engine keep; each record must equal what the direct forms give
    # for the path the engine emitted.
    checked = passed = 0
    for base, engine_config, stream in table_cases():
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
        assert len(report.records) == len(engine.emitted)
        for index, (path, record) in enumerate(zip(engine.emitted, report.records), start=1):
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
            assert (record.posterior is not None) == verdict
            checked += 1
            passed += verdict
    assert checked > 1000 and 0 < passed < checked


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


def test_each_evaluated_record_equals_a_fresh_evaluation_of_its_own_path():
    # `run` evaluates each distinct claim once and reuses its values for
    # every path that repeats it; each record must equal what evaluating
    # its own path afresh gives.
    mixed_base = load_kb(synth_corpus(0, SynthParams(n_plans=1, n_stories=1)).kb_text)
    cases = list(table_cases()) + [
        (mixed_base, EngineConfig(half_threshold=1e-8, max_depth=6), MIXED_BELIEF_STREAM)]
    evaluated = shared = 0
    for base, engine_config, stream in cases:
        config = RunConfig(engine=engine_config)
        report = run(base, config, stream)
        engine = MarkerEngine(base, engine_config)
        for head, payload, _ in parse_stream(stream):
            if head == "inst":
                engine.seed(payload)
                engine.spread()
        beliefs_by_links = {}
        for index, (path, record) in enumerate(zip(engine.emitted, report.records), start=1):
            if record.posterior is None:
                continue
            network = build_network(base, path, relevant_statements(path, f"p{index}-gen-"))
            posterior, residual = exact_posterior(network, default_cpts(
                base, network, config.gamma1, config.gamma0))
            assert (record.posterior, record.residual) == (posterior, residual)
            assert record.approved == approve(network, posterior, ratio=config.approval_ratio)
            evaluated += 1
            beliefs_by_links.setdefault(path.links, set()).add(
                (path.start.belief, path.end.belief))
        shared += sum(len(beliefs) > 1 for beliefs in beliefs_by_links.values())
    # Some evaluated paths share their links but not their end beliefs.
    assert evaluated > 50 and shared > 0


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
