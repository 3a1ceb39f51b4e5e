import random
import sys

import pytest

from planmark import (
    START_STATE,
    EngineConfig,
    KbError,
    LinkKind,
    MarkerEngine,
    Observation,
    load_kb,
    score_path,
)
from planmark import marker
from planmark.paths import ALL_STATES, SEAM_VALID, STEP

from conftest import (
    FIG31_TEXT,
    FIXTURE_KB_TEXT,
    assert_matches_oracle_modulo_retention,
    chain_kb_text,
)
from oracles import (
    FLIPPED,
    GlueThenValidateEngine,
    OracleGuardError,
    ReferenceEngine,
    blocked_at_depth,
    completeness_check,
    declarative_valid,
    enumerate_paths_oracle,
    flip,
    qualifying_cleaves,
    random_kb,
    step,
    trail,
)


def small_config(**kwargs):
    defaults = dict(half_threshold=0.0, full_threshold=0.0, max_depth=4)
    defaults.update(kwargs)
    return EngineConfig(**defaults)


def fixture_seeds():
    return (Observation("supermarket2", "supermarket", 0.9),
            Observation("go1", "go", 0.9))


def test_fixture_emits_exactly_fig31(kb, fig31):
    engine = MarkerEngine(kb, EngineConfig(half_threshold=0.1,
                                           full_threshold=1.0, max_depth=10))
    for obs in fixture_seeds():
        engine.seed(obs)
    assert engine.spread() is None
    paths = list(engine.scores)
    assert [p.render() for p in paths] == [fig31.render()]
    assert score_path(kb, paths[0]) == pytest.approx(16.2, rel=1e-12)


def test_oracle_on_fixture(kb, fig31):
    o1, o2 = fixture_seeds()
    assert [p.render() for p in enumerate_paths_oracle(kb, o1, o2, 6)] == [fig31.render()]
    assert enumerate_paths_oracle(kb, o1, o2, 1) == []


def test_threshold_above_everything_emits_nothing(kb):
    engine = MarkerEngine(kb, EngineConfig(half_threshold=50.0, max_depth=10))
    for obs in fixture_seeds():
        engine.seed(obs)
    engine.spread()
    assert engine.scores == {}


def test_full_threshold_blocks_emission(kb):
    engine = MarkerEngine(kb, EngineConfig(half_threshold=0.1,
                                           full_threshold=100.0, max_depth=10))
    for obs in fixture_seeds():
        engine.seed(obs)
    engine.spread()
    assert engine.scores == {}


def test_seeding_twice_is_idempotent(kb):
    once, twice = (MarkerEngine(kb, small_config()) for _ in range(2))
    for obs in fixture_seeds():
        once.seed(obs)
        twice.seed(obs)
        twice.seed(obs)
    once.spread()
    twice.spread()
    assert once.scores and list(twice.scores.items()) == list(once.scores.items())
    assert _retained(twice) == _retained(once)
    with pytest.raises(ValueError, match="already observed"):
        twice.seed(Observation("supermarket2", "supermarket", 0.5))


def test_a_conflicting_reobservation_names_the_first(kb):
    engine = MarkerEngine(kb, small_config())
    engine.seed(Observation("a", "go"))
    with pytest.raises(ValueError) as raised:
        engine.seed(Observation("a", "go", 0.5))
    assert str(raised.value) == ("instance 'a' already observed as "
                                 "Observation(instance='a', schema='go', belief=1.0)")


def test_engine_config_defaults():
    assert (EngineConfig.half_threshold, EngineConfig.full_threshold,
            EngineConfig.max_depth) == (30.0, None, 10)
    config = EngineConfig()
    assert (config.half_threshold, config.full_threshold, config.max_depth) == (30.0, 900.0, 10)
    assert EngineConfig(half_threshold=0.1).full_threshold == 0.1 * 0.1
    assert EngineConfig(half_threshold=0.1, full_threshold=0.5).full_threshold == 0.5


def test_seed_validation(kb):
    engine = MarkerEngine(kb, small_config())
    with pytest.raises(KbError):
        engine.seed(Observation("x", "ghost"))
    with pytest.raises(ValueError, match="belief"):
        engine.seed(Observation("x", "go", 0.0))


def test_unconnected_observations_emit_nothing():
    base = load_kb("(eq-prior 0.01)(schema a :prior 0.5)(schema b :prior 0.5)")
    engine = MarkerEngine(base, small_config())
    engine.seed(Observation("x", "a"))
    engine.seed(Observation("y", "b"))
    engine.spread()
    assert engine.scores == {}


def test_seed_emits_nothing_and_spread_orients_from_the_first_origin(kb):
    engine = MarkerEngine(kb, small_config(max_depth=6))
    o1, o2 = fixture_seeds()
    engine.seed(o1)
    assert engine.marks == {}
    engine.spread()
    assert engine.scores == {}
    engine.seed(o2)  # the first origin's marks already sit on go
    assert engine.scores == {}
    engine.spread()
    (emitted,) = engine.scores
    assert emitted.start == o1 and emitted.end == o2


def test_a_re_meeting_checks_the_stored_score(fig31):
    # The second end's marks spread back along the one path and meet the
    # first end's at each of its cleave points; each meeting after the
    # first checks its cleave score against the one the pair's first
    # meeting stored, so a stored score off by 1% is caught.  A fresh base
    # has no entry for the pair, so its meetings are met, not replayed.
    base = load_kb(FIXTURE_KB_TEXT)
    stored = score_path(base, fig31) * 1.01

    class Tampering(MarkerEngine):
        def _meet(self, pair, *meeting):
            super()._meet(pair, *meeting)
            pair[0].update(dict.fromkeys(pair[0], stored))

    engine = Tampering(base, small_config(max_depth=6))
    o1, o2 = fixture_seeds()
    engine.seed(o1)
    engine.spread()
    engine.seed(o2)
    with pytest.raises(AssertionError, match="cleave identity violated"):
        engine.spread()


def test_no_mark_below_threshold_is_placed(kb):
    engine = MarkerEngine(kb, EngineConfig(half_threshold=0.3, max_depth=10))
    for obs in fixture_seeds():
        engine.seed(obs)
    engine.spread()
    for mark in engine.marks.values():
        if mark.prev is not None:
            assert mark.score >= 0.3


def test_no_mark_below_the_normal_range_is_placed_at_threshold_zero():
    # Walking down from a at g through c (x 1e-200/0.9) to d (x 1e-100)
    # leaves a half score of about 1.1e-309, a subnormal.  Without the floor
    # under every half threshold the marks (a, c, 1) and (a, d, 0) are kept
    # at that score.  The emitted path and its score are the same either
    # way, so only the retained marks show the floor.
    base = load_kb("(eq-prior 1e-301)(schema g :prior 0.9)(schema c :isa g :prior 1e-200)"
                   "(schema d :isa c :prior 1e-300)(schema o :prior 0.5)(role o s d)")
    engine = MarkerEngine(base, EngineConfig(0, 0, 6))
    for obs in (Observation("a", "g", 1e-9), Observation("b", "o", 1.0)):
        engine.seed(obs)
        engine.spread()
    assert [path.render() for path in engine.scores] == [
        "(inst a g)(isa- c g)(isa- d c)(role o s d)(inst b o)"]
    marks = engine.marks
    assert ("a", "c", 1) not in marks and ("a", "d", 0) not in marks
    assert min(mark.score for mark in marks.values()) >= sys.float_info.min


def test_determinism_of_emission_order():
    base = random_kb(5, n_schemas=14, n_roles=16)
    names = sorted(base.schemas)
    seeds = (Observation("a", names[0]), Observation("b", names[3]))

    def run_once():
        engine = MarkerEngine(base, small_config())
        for obs in seeds:
            engine.seed(obs)
        engine.spread()
        return [p.render() for p in engine.scores]

    assert run_once() == run_once()


def _engine_run(base, seeds, config):
    engine = MarkerEngine(base, config)
    for obs in seeds:
        engine.seed(obs)
    engine.spread()
    return engine


@pytest.mark.parametrize("seed", range(6))
def test_spread_matches_oracle_on_random_bases(seed):
    base = random_kb(seed, n_schemas=12, n_roles=12)
    names = sorted(base.schemas)
    seeds = (Observation("a", names[2 * seed % len(names)]),
             Observation("b", names[(3 * seed + 5) % len(names)]))
    if seeds[0].schema == seeds[1].schema:
        seeds = (seeds[0], Observation("b", names[(3 * seed + 6) % len(names)]))
    assert_matches_oracle_modulo_retention(base, seeds, max_depth=3)


def test_oracle_guard_trips():
    base = load_kb(chain_kb_text(6))
    with pytest.raises(OracleGuardError):
        enumerate_paths_oracle(base, Observation("x", "c0"),
                               Observation("y", "c6"), 6, prefix_guard=3)


def test_oracle_rejects_identical_instances(kb):
    with pytest.raises(ValueError, match="distinct"):
        enumerate_paths_oracle(kb, Observation("x", "go"), Observation("x", "go"), 3)


def test_completeness_check_fixture_empty(kb):
    report = completeness_check(
        kb, EngineConfig(half_threshold=0.1, full_threshold=0.01, max_depth=6),
        fixture_seeds())
    assert report.empty


def test_completeness_check_empty_at_zero_threshold():
    for seed in range(4):
        base = random_kb(seed, n_schemas=10, n_roles=10)
        names = sorted(base.schemas)
        seeds = (Observation("a", names[0]), Observation("b", names[-1]))
        report = completeness_check(base, small_config(max_depth=3), seeds)
        assert report.empty


def test_completeness_check_reports_an_engine_that_drops_emissions(monkeypatch):
    # With every meeting ignored, the fixture's one path is missed although
    # both its halves are retained: an engine defect, not a half-dip.  A
    # fresh base has no entry for the pair, so its meetings are met.
    monkeypatch.setattr(MarkerEngine, "_meet", lambda self, *meeting: None)
    config = EngineConfig(half_threshold=0.1, full_threshold=0.01, max_depth=6)
    report = completeness_check(load_kb(FIXTURE_KB_TEXT), config, fixture_seeds())
    assert [(entry.path.render(), entry.reason) for entry in report.entries] == [
        (FIG31_TEXT, "unexpected")]


ADVERSARIAL_KB = """
(eq-prior 0.0001)
(schema x :prior 0.5)
(schema y :prior 0.5)
(schema a :prior 0.005)
(schema b :prior 0.005)
(schema big :prior 0.5)
(role a hold-of x)   ; RoleUp from x multiplies by 0.01
(role big into-a a)  ; RoleUp from a multiplies by 100
(role big into-b b)
(role b hold-of y)
"""


def test_completeness_check_lists_a_dipping_path():
    # The only connecting path dips below T on both halves midway, yet its
    # full score clears T^2: the paper-level guarantee's boundary.
    base = load_kb(ADVERSARIAL_KB)
    seeds = (Observation("x1", "x", 1.0), Observation("y1", "y", 1.0))
    config = EngineConfig(half_threshold=0.02, full_threshold=0.0004, max_depth=6)
    engine = _engine_run(base, seeds, config)
    assert engine.scores == {}
    report = completeness_check(base, config, seeds)
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.reason == "half-dip"
    assert entry.sc == pytest.approx(2.0, rel=1e-9)


def test_emitted_scores_match_recomputation_and_threshold():
    for seed in range(4):
        base = random_kb(seed + 50, n_schemas=12, n_roles=14)
        names = sorted(base.schemas)
        seeds = (Observation("a", names[1], 0.7), Observation("b", names[-2], 0.8))
        config = small_config(max_depth=3, full_threshold=1e-6)
        engine = _engine_run(base, seeds, config)
        for path in engine.scores:
            assert score_path(base, path) >= config.full_threshold


class MeetingRecorder(MarkerEngine):
    """`MarkerEngine` that remembers which meeting it is handling: its two
    marks, the earlier origin's first, and the paths, by their links, that
    the pair's earlier meetings emitted."""

    meeting = None

    def _meet(self, pair, end, p2, m2, m1):
        self.meeting = (m1, m2, pair[0])
        super()._meet(pair, end, p2, m2, m1)

    def meets_an_emitted_path(self):
        """Whether the current meeting glues into a path already emitted."""
        m1, m2, emitted = self.meeting
        return trail(m1) + tuple(flip(self.kb, link) for link in reversed(trail(m2))) in emitted


@pytest.mark.parametrize("length", [3, 5, 8])
def test_duplicate_meetings_keep_the_cleave_check(length, monkeypatch):
    # Along a chain every path is met again at each of its cleave points.
    # Put the cleave score off by 1e-6 only at those repeat meetings: the
    # engine must still catch it, although it emits nothing new there.
    # Each run gets a fresh base, since a warm pair table replays the
    # pair's first meetings without meeting anything.
    seeds = (Observation("x", "c0"), Observation("y", f"c{length}"))
    exact_combine = marker.combine

    def spread_with(offset):
        engine = MeetingRecorder(load_kb(chain_kb_text(length)), small_config(max_depth=length))
        repeats = []

        def combine(kb, at, h1, h2):
            full = exact_combine(kb, at, h1, h2)
            if engine.meets_an_emitted_path():
                repeats.append(at)
                return full * (1.0 + offset)
            return full

        monkeypatch.setattr(marker, "combine", combine)
        for obs in seeds:
            engine.seed(obs)
            engine.spread()
        return engine, repeats

    engine, repeats = spread_with(0.0)
    assert len(engine.scores) >= 1 and len(repeats) >= length
    with pytest.raises(AssertionError, match="cleave identity violated"):
        spread_with(1e-6)


def _accepted_trails(max_len):
    """Every kind sequence of at most ``max_len`` moves the DFA accepts,
    with the state it leaves the DFA in."""
    trails = [((), START_STATE)]
    frontier = trails
    for _ in range(max_len):
        frontier = [(kinds + (kind,), after)
                    for kinds, state in frontier
                    for kind in LinkKind
                    if (after := step(state, kind)) is not None]
        trails = trails + frontier
    return trails


def test_seam_table_agrees_with_the_grammar():
    trails = _accepted_trails(4)
    assert len(trails) ** 2 == 44_100
    for kinds1, state1 in trails:
        for kinds2, state2 in trails:
            glued = list(kinds1) + [FLIPPED[kind] for kind in reversed(kinds2)]
            assert SEAM_VALID[state1][state2] == declarative_valid(glued), (kinds1, kinds2)


def test_seam_table_is_symmetric():
    # The engine filters meetings before orienting them, from the new
    # mark's row of the table.
    for state1 in ALL_STATES:
        for state2 in ALL_STATES:
            assert SEAM_VALID[state1][state2] == SEAM_VALID[state2][state1]


def _emissions(engine_class, base, seeds, config):
    """What each seed-and-spread step emits, in order, with its score."""
    engine = engine_class(base, config)
    steps = []
    for obs in seeds:
        engine.seed(obs)
        engine.spread()
        steps.append(list(engine.scores.items())[sum(map(len, steps)):])
    # A later step leaves what earlier steps emitted, and its score, as it was.
    assert list(engine.scores.items()) == [item for items in steps for item in items]
    return steps


def _assert_emits_like_glue_then_validate(base, seeds, config):
    expected = _emissions(GlueThenValidateEngine, base, seeds, config)
    assert _emissions(MarkerEngine, base, seeds, config) == expected
    return sum(len(paths) for paths in expected)


@pytest.mark.parametrize("config", [
    small_config(),
    EngineConfig(half_threshold=0.1, full_threshold=1.0, max_depth=10),
])
def test_fixture_emits_like_glue_then_validate(kb, config):
    assert _assert_emits_like_glue_then_validate(kb, fixture_seeds(), config) >= 1


@pytest.mark.parametrize("length", range(3, 9))
def test_chain_emits_like_glue_then_validate(length):
    base = load_kb(chain_kb_text(length))
    seeds = (Observation("x", "c0"), Observation("m", f"c{length // 2}"),
             Observation("y", f"c{length}"))
    config = small_config(max_depth=length)
    assert _assert_emits_like_glue_then_validate(base, seeds, config) >= 3


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("thresholds", [(0.0, 0.0), (0.01, 1e-4)])
def test_random_base_emits_like_glue_then_validate(seed, thresholds):
    base = random_kb(seed + 300, n_schemas=40, n_roles=40)
    names = sorted(base.schemas)
    seeds = tuple(Observation(f"o{k}", names[(7 * seed + 11 * k) % len(names)], 0.9)
                  for k in range(4))
    config = EngineConfig(half_threshold=thresholds[0], full_threshold=thresholds[1],
                          max_depth=4)
    assert _assert_emits_like_glue_then_validate(base, seeds, config) > 0


def test_retention_at_the_depth_limit_can_lose_the_best_path():
    # The boundary of the dominance guarantee.  a's one-link trail to s4
    # and a two-link trail through s2 both multiply by p(s4)/p(s3); the
    # longer one rounds an ulp higher and displaces the shorter before it
    # is extended.  At max_depth 2 the longer one is never extended
    # either, and b's one-link half dips below T, so the best path
    # between a and b is lost and nothing is emitted.
    base = random_kb(36, n_schemas=5, n_roles=6)
    seeds = (Observation("a", "s3"), Observation("b", "s0", 0.5))
    config = EngineConfig(half_threshold=0.5, full_threshold=0.0, max_depth=2)
    engine = _engine_run(base, seeds, config)
    assert engine.scores == {}
    lost = [path for path in enumerate_paths_oracle(base, *seeds, 2)
            if qualifying_cleaves(base, config, path)]
    assert [path.render() for path in lost] == [
        "(inst a s3)(role s4 slot-3 s3)(role- s4 slot-2 s0)(inst b s0)"]
    assert qualifying_cleaves(base, config, lost[0]) == [2]
    assert blocked_at_depth(engine, lost[0], 2)
    assert trail(engine.marks["a", "s4", 2]) == tuple(
        base.links[text] for text in ("(role s2 slot-5 s3)", "(role s4 slot-1 s2)"))
    # `completeness_check` excuses it under the retention rule.
    assert completeness_check(base, config, seeds).empty


def _retained(engine):
    return [(key, mark.score, len(trail(mark))) for key, mark in engine.marks.items()]


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("thresholds", [(0.0, 0.0), (0.01, 1e-4), (0.3, 0.09)])
@pytest.mark.parametrize("batch", [False, True], ids=["stepwise", "batch"])
def test_replayed_programs_emit_and_retain_like_the_reference(seed, thresholds, batch):
    # Observations drawn from a few schemas and beliefs repeat seeds, so
    # a later origin replays the program an earlier one recorded, and the
    # second engine on the base replays every program warm.  The
    # reference spreads each observation before the next is seeded; the
    # engine does too, or is seeded in one batch and spread once.
    base = random_kb(seed + 700, n_schemas=40, n_roles=40)
    rng = random.Random(seed)
    names = rng.sample(sorted(base.schemas), 6)
    seeds = [Observation(f"o{k}", rng.choice(names), rng.choice((1.0, 0.9, 0.5)))
             for k in range(8)]
    config = EngineConfig(half_threshold=thresholds[0], full_threshold=thresholds[1],
                          max_depth=4)
    engines = [engine_class(base, config)
               for engine_class in (ReferenceEngine, MarkerEngine, MarkerEngine)]
    for engine in engines:
        for obs in seeds:
            engine.seed(obs)
            if not batch or engine is engines[0]:
                engine.spread()
        engine.spread()
    reference, cold, warm = engines
    assert reference.scores
    for engine in (cold, warm):
        assert list(engine.scores.items()) == list(reference.scores.items())
        assert _retained(engine) == _retained(reference)
    assert base.spread_marks == sum(map(len, base.spreads.values()))


@pytest.mark.parametrize("seed", range(12))
def test_batching_does_not_change_emission(seed):
    # One list of observations, split at random points between `spread`
    # calls: every split emits the same paths in the same order with the
    # same scores, and retains the same marks, as one `spread` after each
    # observation does.  Each split runs on a fresh base, so that cold
    # programs are recorded under every batching, and paths from
    # different bases compare by their text.
    rng = random.Random(seed)
    kb_seed = seed + 900
    names = sorted(random_kb(kb_seed, n_schemas=30, n_roles=34).schemas)
    seeds = [Observation(f"o{k}", rng.choice(names), rng.choice((1.0, 0.7)))
             for k in range(7)]
    config = EngineConfig(half_threshold=rng.choice((0.0, 0.01)), full_threshold=0.0,
                          max_depth=4)
    outcomes = []
    for splits in [range(1, len(seeds) + 1), [len(seeds)],
                   *(sorted(rng.sample(range(1, len(seeds)), rng.randint(1, 3)))
                     + [len(seeds)] for _ in range(4))]:
        engine = MarkerEngine(random_kb(kb_seed, n_schemas=30, n_roles=34), config)
        done = 0
        for end in splits:
            for obs in seeds[done:end]:
                engine.seed(obs)
            engine.spread()
            done = end
        outcomes.append(([(path.render(), score) for path, score in engine.scores.items()],
                         _retained(engine)))
    assert outcomes[0][0]
    assert outcomes == [outcomes[0]] * len(outcomes)


@pytest.mark.parametrize("seed", range(16))
def test_a_shared_base_emits_what_a_fresh_one_does_in_any_call_order(seed, monkeypatch):
    # Calls on one base fill its pair table, so a later call replays the
    # pairs an earlier one met, alone or beside pairs it meets itself, in
    # whatever order the calls come.  Each call draws its observations
    # from a few schemas and beliefs, so seed keys repeat within a call
    # and across calls, and one observation is seeded twice; every other
    # call is seeded stepwise.  Each call must emit what it emits on a
    # fresh base, which is what the reference emits, bit for bit.
    kb_seed = seed + 1300
    rng = random.Random(seed)
    names = rng.sample(sorted(random_kb(kb_seed, n_schemas=30, n_roles=34).schemas), 5)
    config = EngineConfig(half_threshold=rng.choice((0.0, 0.01)),
                          full_threshold=rng.choice((0.0, 1e-4)), max_depth=4)
    calls = []
    for _ in range(6):
        seeds = [Observation(f"o{k}", rng.choice(names), rng.choice((1.0, 0.6)))
                 for k in range(6)]
        seeds.insert(rng.randrange(len(seeds) + 1), rng.choice(seeds))
        calls.append(seeds)

    def emitted(engine_class, base, seeds, stepwise):
        engine = engine_class(base, config)
        for obs in seeds:
            engine.seed(obs)
            if stepwise:
                engine.spread()
        engine.spread()
        return [(path.render(), score) for path, score in engine.scores.items()]

    expected = [emitted(ReferenceEngine, random_kb(kb_seed, n_schemas=30, n_roles=34),
                        seeds, True) for seeds in calls]
    assert sum(map(len, expected)) > 0
    for number, seeds in enumerate(calls):
        fresh = random_kb(kb_seed, n_schemas=30, n_roles=34)
        assert emitted(MarkerEngine, fresh, seeds, number % 2) == expected[number]
    shared, fills = random_kb(kb_seed, n_schemas=30, n_roles=34), []
    fill = MarkerEngine._fill
    monkeypatch.setattr(MarkerEngine, "_fill",
                        lambda self, *args: fills.append(args) or fill(self, *args))
    for order in range(3):
        numbers = list(range(len(calls)))
        rng.shuffle(numbers)
        fills.clear()
        for number in numbers:
            assert emitted(MarkerEngine, shared, calls[number], number % 2) == expected[number]
    # By the last order every pair is in the table, so nothing is met.
    assert shared.pairs and fills == []
    assert shared.pair_paths == sum(map(len, shared.pairs.values()))


def _program_shape(program):
    """A program's marks as plain values, each mark's ``prev`` as its
    index, so programs recorded on different bases compare."""
    index = {id(mark): k for k, mark in enumerate(program)}
    return [(mark.at, mark.state, mark.score, mark.link and mark.link.text,
             mark.prev and index[id(mark.prev)], len(trail(mark))) for mark in program]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("half_threshold", [0.0, 0.01])
def test_every_program_mark_extends_an_earlier_one(seed, half_threshold):
    # `marks` shows only retained marks; a program also holds those
    # displaced after they were placed, and every case here has some.
    # Every mark is a DFA-valid, floored one-link extension of an earlier
    # mark within max_depth, and the programs an engine records mid-run,
    # after other origins spread, are those `_program` records for the
    # same key on a fresh base.
    kb_seed = seed + 1100
    base = random_kb(kb_seed, n_schemas=30, n_roles=34)
    rng = random.Random(seed)
    seeds = [Observation(f"o{k}", rng.choice(sorted(base.schemas)), rng.choice((1.0, 0.7)))
             for k in range(5)]
    config = EngineConfig(half_threshold=half_threshold, full_threshold=0.0, max_depth=4)
    engine = MarkerEngine(base, config)
    for obs in seeds:
        engine.seed(obs)
    engine.spread()
    half_floor = max(half_threshold, sys.float_info.min)
    fresh = random_kb(kb_seed, n_schemas=30, n_roles=34)
    displaced = 0
    for obs in seeds:
        key = (obs.schema, obs.belief, half_floor, config.max_depth)
        program = base.spreads[key]
        root = program[0]
        assert (root.at, root.state, root.score, root.link, root.prev, len(trail(root))) == (
            obs.schema, START_STATE, obs.belief, None, None, 0)
        placed = {id(root)}
        for mark in program[1:]:
            prev, link = mark.prev, mark.link
            assert id(prev) in placed
            assert link.source == prev.at and link.destination == mark.at
            assert STEP[prev.state][link.kind] == mark.state
            assert mark.score == prev.score * link.multiplier >= half_floor
            assert len(trail(mark)) == len(trail(prev)) + 1 <= config.max_depth
            placed.add(id(mark))
        displaced += len(program) - len({(mark.at, mark.state) for mark in program})
        assert _program_shape(program) == _program_shape(
            marker._program(fresh.adjacency, *key)[0])
    assert fresh.spreads == {} and displaced > 0


@pytest.mark.parametrize("kb_seed", [None, 1202, 1203, 1204, 1205])
def test_a_spread_stops_at_the_first_level_that_places_nothing(kb, kb_seed):
    # On these bases every spread runs out of marks long before a thousand
    # levels, so a depth limit of 10**9 records the same programs, and
    # must not spend a pass on each empty level to do it.  A base with a
    # lap that rounds above 1 never runs out (the test below).
    base = kb if kb_seed is None else random_kb(kb_seed, n_schemas=12, n_roles=8)
    recorded = 0
    for schema in sorted(base.schemas):
        for belief, half_floor in [(1.0, sys.float_info.min), (0.7, 0.01)]:
            shallow = marker._program(base.adjacency, schema, belief, half_floor, 1000)[0]
            deep = marker._program(base.adjacency, schema, belief, half_floor, 10 ** 9)[0]
            assert _program_shape(deep) == _program_shape(shallow)
            recorded += len(deep)
    assert recorded > 2 * len(base.schemas)


@pytest.mark.xfail(strict=True, reason="a lap whose multipliers multiply to 1 can "
                                       "round above 1, and each lap then displaces")
def test_a_spread_stops_on_a_base_with_a_lap_that_rounds_above_one():
    # s7 fills slot-2 of s0, its own isa grandparent, so from s7 the lap
    # (role s0 slot-2 s7), (isa- s2 s0), (isa- s7 s2) returns to s7 in the
    # same DFA state, its multipliers' product 1 in exact arithmetic.  In
    # floats the lap gains an ulp, so its trail displaces the one retained
    # there and goes round again, level after level, until max_depth.
    base = random_kb(1201, n_schemas=12, n_roles=8)
    shallow = marker._program(base.adjacency, "s2", 1.0, 0.3, 300)[0]
    deeper = marker._program(base.adjacency, "s2", 1.0, 0.3, 600)[0]
    assert len(deeper) == len(shallow)
