import random

import pytest

from planmark import MarkerEngine, Observation, load_kb, random_kb, validate
from planmark.marker import EngineConfig, OracleGuardError, enumerate_paths_oracle
from planmark.paths import Path, START_STATE, parse_path, step

# The running example base: shopping plans and their stores.
FIXTURE_KB_TEXT = """
(eq-prior 0.001)
(schema store- :prior 0.05)
(schema supermarket :isa store- :prior 0.01)
(schema supermarket-shopping :isa shopping :prior 0.02)
(schema shopping :prior 0.05)
(role supermarket-shopping store-of supermarket)
(role shopping go-step go)
(schema go :prior 0.1)
"""

FIG31_TEXT = ("(inst supermarket2 supermarket)"
              "(role supermarket-shopping store-of supermarket)"
              "(isa supermarket-shopping shopping)"
              "(role- shopping go-step go)"
              "(inst go1 go)")


@pytest.fixture(scope="session")
def kb():
    return load_kb(FIXTURE_KB_TEXT)


@pytest.fixture
def fig31(kb):
    return parse_path(kb, FIG31_TEXT, beliefs=(0.9, 0.9))


def sample_paths(seed, n_kbs=4, max_depth=5, max_roles=None, limit=200,
                 beliefs=False, **kb_kwargs):
    """Valid paths harvested from random bases by exhaustive enumeration.

    Returns (kb, path) pairs; with ``beliefs`` the endpoint observations get
    random beliefs instead of 1.0.
    """
    rng = random.Random(seed)
    out = []
    for k in range(n_kbs):
        base = random_kb(seed * 101 + k, **kb_kwargs)
        names = sorted(base.schemas)
        for _ in range(6):
            a, b = rng.choice(names), rng.choice(names)
            b1 = rng.uniform(0.3, 1.0) if beliefs else 1.0
            b2 = rng.uniform(0.3, 1.0) if beliefs else 1.0
            o1, o2 = Observation("obsA", a, b1), Observation("obsB", b, b2)
            try:
                found = enumerate_paths_oracle(base, o1, o2, max_depth,
                                               prefix_guard=300_000)
            except OracleGuardError:
                continue
            for path in found:
                if max_roles is not None and path.role_count() > max_roles:
                    continue
                out.append((base, path))
                if len(out) >= limit:
                    return out
    return out


def with_beliefs(path, b1, b2):
    start = Observation(path.start.instance, path.start.schema, b1)
    end = Observation(path.end.instance, path.end.schema, b2)
    return Path(start=start, links=path.links, end=end)


# A straight chain of role links: c<i+1> has slot step filled by c<i>.
def chain_kb_text(length):
    lines = ["(eq-prior 0.0001)"]
    for i in range(length + 1):
        lines.append(f"(schema c{i} :prior 0.5)")
    for i in range(length):
        lines.append(f"(role c{i + 1} step c{i})")
    return "\n".join(lines)


def _dfa_state(links):
    state = START_STATE
    for link in links:
        state = step(state, link)
    return state


def assert_matches_oracle_modulo_retention(base, seeds, max_depth):
    """Emitted == oracle set, modulo the best-trail retention rule:

    * soundness: every emitted path is a valid path between the seeds with
      at most 2*max_depth links (the oracle's set at that depth);
    * completeness: every oracle path at max_depth is emitted, unless at
      every cleave position one of its halves lost the (origin, schema,
      state) slot to a trail with at least its score.
    """
    engine = MarkerEngine(base, EngineConfig(half_threshold=0.0,
                                             full_threshold=0.0,
                                             max_depth=max_depth))
    for obs in seeds:
        engine.seed(obs)
    engine.spread()
    emitted = {p.render() for p in engine.emitted}
    o1, o2 = seeds
    for path in engine.emitted:
        assert validate(path)
        assert {path.start, path.end} == {o1, o2}
        assert len(path.links) <= 2 * max_depth

    for path in enumerate_paths_oracle(base, o1, o2, max_depth):
        if path.render() in emitted:
            continue
        schemas = path.schemas()
        n = len(path.links)
        rev = tuple(link.flip() for link in reversed(path.links))
        for j in range(n + 1):
            m1 = engine.marks.get((o1.instance, schemas[j], _dfa_state(path.links[:j])))
            m2 = engine.marks.get((o2.instance, schemas[j], _dfa_state(rev[:n - j])))
            own1 = m1 is not None and m1.trail == path.links[:j]
            own2 = m2 is not None and m2.trail == rev[:n - j]
            assert not (own1 and own2), (
                f"path retained at cleave {j} but never emitted: {path.render()}")
