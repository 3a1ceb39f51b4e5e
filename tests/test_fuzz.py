"""Fuzzing of the three readers and of the marker engine.

Whatever the text, a KB, stream or path source either loads or fails with
the reader's own domain error, which the CLI turns into exit 1 with a
message.  Whatever the random base, thresholds, depth and observation
order, the engine emits only valid paths whose halves recombine to their
direct score, misses no path the oracle finds except by a half-dip, and
emits the same paths on a rerun."""

import math
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
    initial_score,
    load_kb,
    parse_path,
    score_path,
    validate,
)
from planmark.pipeline import parse_stream

from conftest import FIG31_TEXT, FIXTURE_KB_TEXT
from oracles import completeness_check, flip, path_schemas, random_kb

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
    return engine.emitted


def _assert_cleaves_recombine(base, path):
    direct = score_path(base, path)
    schemas = path_schemas(path)
    n = len(path.links)
    forward = [initial_score(path.start)]
    for link in path.links:
        forward.append(extend_half(base, forward[-1], link))
    backward = [initial_score(path.end)]
    for link in reversed(path.links):
        backward.append(extend_half(base, backward[-1], flip(base, link)))
    for j in range(n + 1):
        whole = combine(base, schemas[j], forward[j], backward[n - j])
        assert math.isclose(whole, direct, rel_tol=1e-9), (j, path.render())


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10 ** 6), n_schemas=st.integers(4, 14),
       n_roles=st.integers(1, 14),
       half_threshold=st.sampled_from([0.0, 1e-3, 0.02, 0.2]),
       full_threshold=st.sampled_from([0.0, 1e-4, 1e-2, 1.0]),
       max_depth=st.integers(1, 3), data=st.data())
def test_marker_engine_on_random_bases(seed, n_schemas, n_roles, half_threshold,
                                       full_threshold, max_depth, data):
    base = random_kb(seed, n_schemas=n_schemas, n_roles=n_roles)
    names = sorted(base.schemas)
    count = data.draw(st.integers(2, 4), label="observations")
    observations = data.draw(st.permutations([
        Observation(f"o{k}", data.draw(st.sampled_from(names)),
                    data.draw(st.floats(0.3, 1.0)))
        for k in range(count)]), label="order")
    config = EngineConfig(half_threshold=half_threshold,
                          full_threshold=full_threshold, max_depth=max_depth)

    emitted = _emissions(base, config, observations)
    for path in emitted:
        assert validate(path)
        assert score_path(base, path) >= config.full_threshold
        _assert_cleaves_recombine(base, path)
    rerun = _emissions(base, config, observations)
    assert [p.render() for p in rerun] == [p.render() for p in emitted]

    # A path is lost only when every cleave dips one half below T, which a
    # half threshold of 0 rules out.
    for seeds in combinations(observations, 2):
        report = completeness_check(base, config, seeds)
        assert all(entry.reason == "half-dip" for entry in report.entries)
        if half_threshold == 0.0:
            assert report.empty
