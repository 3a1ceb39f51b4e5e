"""Fuzzing of the three readers and of the marker engine.

Whatever the text, a KB, stream or path source either loads or fails with
the reader's own domain error, which the CLI turns into exit 1 with a
message.  Whatever the random base, thresholds, depth and observation
order, the engine emits only valid paths whose halves recombine to their
direct score, which is the exact rational product of its inputs to 1e-12,
misses no path the oracle finds except by a half-dip, and emits the same
paths on a rerun."""

import math
import sys
from fractions import Fraction
from itertools import combinations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from planmark import (
    EngineConfig,
    KbError,
    MarkerEngine,
    Observation,
    PathError,
    combine,
    extend_half,
    load_kb,
    parse_path,
    score_path,
    validate,
)
from planmark.pipeline import parse_stream

from conftest import FIG31_TEXT, FIXTURE_KB_TEXT
from oracles import (
    blocked_at_depth,
    completeness_check,
    enumerate_paths_oracle,
    flip,
    path_schemas,
    qualifying_cleaves,
    random_kb,
    sc_by_fractions,
)

KB = load_kb(FIXTURE_KB_TEXT)

# Arguments drawn from all three formats, so that forms get past the
# reader into every form's checks.
ATOMS = [
    ":isa", ":prior", ":belief",
    "0.001", "0.5", "1", "0", "-1", "2", "1e-300", "1e999", "nan", "inf", "x",
    "a", "b", "9bad", "gen-1", "p1-gen-1",
    "store-", "supermarket", "supermarket-shopping", "shopping", "go",
    "store-of", "go-step",
]

# Whole forms of the fixture base and path, and of the stream format.
FORMS = (FIXTURE_KB_TEXT.strip().split("\n")
         + [form + ")" for form in FIG31_TEXT.split(")") if form]
         + ["(inst a go :belief 0.5)", "(corroborate shopping go-step)"])


def sources(*heads: str):
    """Texts made of forms that start with one of ``heads`` and take up to
    five arguments (or two, a keyword and its value), mixed with whole
    fixture forms, stray parentheses and comments; plus unstructured
    text."""
    head = st.sampled_from(heads + ("x",))
    atom = st.sampled_from(ATOMS)
    form = st.builds(lambda head, args: f"({' '.join([head, *args])})",
                     head, st.lists(atom, max_size=5))
    keyword_form = st.builds(lambda *items: f"({' '.join(items)})",
                             head, atom, atom,
                             st.sampled_from([":isa", ":prior", ":belief"]), atom)
    chunk = st.one_of(form, keyword_form, st.sampled_from(FORMS),
                      st.sampled_from(["(", ")", "()", "; note\n", "\n"]))
    return st.one_of(
        st.lists(chunk, max_size=8).map(" ".join),
        st.text(alphabet="() ;\n\tab-.0e", max_size=40),
        st.text(max_size=40),
    )


PATH_HEADS = ("inst", "role", "role-", "isa", "isa-")

# Path literals whose ends are valid observations reach the link checks.
path_texts = st.one_of(
    sources(*PATH_HEADS),
    sources(*PATH_HEADS).map(lambda middle: f"(inst a supermarket){middle}(inst b go)"),
)

FUZZ = settings(max_examples=400, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(sources("eq-prior", "schema", "role"))
def test_load_kb_raises_only_kb_errors(text):
    try:
        load_kb(text)
    except KbError:
        pass


@FUZZ
@given(sources("inst", "corroborate"))
def test_parse_stream_raises_only_kb_errors(text):
    try:
        parse_stream(text)
    except KbError:
        pass


@FUZZ
@given(path_texts)
def test_parse_path_raises_only_path_errors(text):
    try:
        parse_path(KB, text)
    except PathError:
        pass


def _emissions(base, config, observations):
    # Each observation spreads before the next arrives, as in `run`.
    engine = MarkerEngine(base, config)
    for obs in observations:
        engine.seed(obs)
        engine.spread()
    return engine


def _assert_cleaves_recombine(base, path):
    direct = score_path(base, path)
    schemas = path_schemas(path)
    n = len(path.links)
    forward = [path.start.belief]
    for link in path.links:
        forward.append(extend_half(base, forward[-1], link))
    backward = [path.end.belief]
    for link in reversed(path.links):
        backward.append(extend_half(base, backward[-1], flip(base, link)))
    for j in range(n + 1):
        whole = combine(base, schemas[j], forward[j], backward[n - j])
        assert math.isclose(whole, direct, rel_tol=1e-9), (j, path.render())


# Random bases, thresholds and depths, and 2 to 4 observations in a
# random order on each (`_draw_observations`).
RANDOM_RUNS = dict(seed=st.integers(0, 10 ** 6), n_schemas=st.integers(4, 14),
                   n_roles=st.integers(1, 14),
                   half_threshold=st.sampled_from([0.0, 1e-3, 0.02, 0.2]),
                   full_threshold=st.sampled_from([0.0, 1e-4, 1e-2, 1.0]),
                   max_depth=st.integers(1, 3), data=st.data())


def _draw_observations(data, base):
    names = sorted(base.schemas)
    count = data.draw(st.integers(2, 4), label="observations")
    return data.draw(st.permutations([
        Observation(f"o{k}", data.draw(st.sampled_from(names)),
                    data.draw(st.floats(0.3, 1.0)))
        for k in range(count)]), label="order")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**RANDOM_RUNS)
def test_marker_engine_on_random_bases(seed, n_schemas, n_roles, half_threshold,
                                       full_threshold, max_depth, data):
    base = random_kb(seed, n_schemas=n_schemas, n_roles=n_roles)
    observations = _draw_observations(data, base)
    config = EngineConfig(half_threshold=half_threshold,
                          full_threshold=full_threshold, max_depth=max_depth)

    engine = _emissions(base, config, observations)
    emitted = list(engine.scores)
    for path in emitted:
        assert validate(path)
        assert engine.scores[path] == score_path(base, path)
        assert score_path(base, path) >= config.full_threshold
        _assert_cleaves_recombine(base, path)
    rerun = _emissions(base, config, observations).scores
    assert [p.render() for p in rerun] == [p.render() for p in emitted]

    # A path is lost only when every cleave dips one half below T, which a
    # half threshold of 0 rules out.
    for seeds in combinations(observations, 2):
        report = completeness_check(base, config, seeds)
        assert all(entry.reason == "half-dip" for entry in report.entries)
        if half_threshold == 0.0:
            assert report.empty


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**RANDOM_RUNS)
def test_emitted_scores_match_exact_rationals(seed, n_schemas, n_roles, half_threshold,
                                              full_threshold, max_depth, data):
    # Every emitted score is in the normal float range, so the float fold
    # rounds each of its few products once: to 1e-12 it is the exact
    # rational product of the same inputs.
    base = random_kb(seed, n_schemas=n_schemas, n_roles=n_roles)
    config = EngineConfig(half_threshold=half_threshold,
                          full_threshold=full_threshold, max_depth=max_depth)
    engine = _emissions(base, config, _draw_observations(data, base))
    for path, sc in engine.scores.items():
        exact = sc_by_fractions(base, path)
        assert abs(Fraction(sc) - exact) <= exact * Fraction(1e-12), path.render()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10 ** 6), n_schemas=st.integers(4, 14),
       n_roles=st.integers(1, 14),
       half_threshold=st.sampled_from([0.0, 1e-3, 0.02, 0.2, 0.5]),
       full_threshold=st.sampled_from([0.0, 1e-4, 1e-2, 1.0]),
       max_depth=st.integers(1, 4), data=st.data())
def test_retention_keeps_a_path_at_least_as_good(seed, n_schemas, n_roles, half_threshold,
                                                  full_threshold, max_depth, data):
    # A trail displaced at a key leaves one there that scores at least as
    # high, and the last marks retained at any two keys meet, since the
    # later to arrive meets the other.  So a path lost to retention, not
    # to a half-dip, has an emitted path between the same observations
    # that scores at least as high, to the cleave check's 1e-9: trails
    # tied on half score can fold to direct scores an ulp apart.  The
    # argument needs the retained trail to go on where the lost one would
    # have: it fails only where one sits at the depth limit
    # (`test_marker.py::test_retention_at_the_depth_limit_can_lose_the_best_path`).
    base = random_kb(seed, n_schemas=n_schemas, n_roles=n_roles)
    names = sorted(base.schemas)
    seeds = tuple(Observation(instance, data.draw(st.sampled_from(names)),
                              data.draw(st.floats(0.3, 1.0)))
                  for instance in ("a", "b"))
    config = EngineConfig(half_threshold=half_threshold,
                          full_threshold=full_threshold, max_depth=max_depth)
    engine = _emissions(base, config, seeds)
    best = max(engine.scores.values(), default=0.0)
    threshold = max(full_threshold, sys.float_info.min)
    for path in enumerate_paths_oracle(base, *seeds, max_depth):
        sc = score_path(base, path)
        if sc < threshold or path in engine.scores:
            continue
        cleaves = qualifying_cleaves(base, config, path)
        if all(blocked_at_depth(engine, path, j) for j in cleaves):
            continue  # a half-dip (no cleave), or blocked at the depth limit
        assert best >= sc or math.isclose(best, sc, rel_tol=1e-9), path.render()
