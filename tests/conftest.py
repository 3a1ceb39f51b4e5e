import os
import random
import subprocess
import sys
from pathlib import Path as FilePath

import pytest

import planmark as package
from planmark import MarkerEngine, Observation, load_kb, validate
from planmark.marker import EngineConfig
from planmark.paths import Path, parse_path

from oracles import (OracleGuardError, completeness_check, enumerate_paths_oracle, random_kb,
                     role_count)

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


def package_env():
    """The environment for a child interpreter that imports the package
    under test, wherever it was imported from."""
    paths = [str(FilePath(package.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def planmark(*args, stdin=None):
    """The `planmark` command in a fresh interpreter, output captured."""
    return subprocess.run([sys.executable, "-m", "planmark", *args], capture_output=True,
                          text=True, input=stdin, env=package_env())


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
                if max_roles is not None and role_count(path) > max_roles:
                    continue
                out.append((base, path))
                if len(out) >= limit:
                    return out
    return out


def marker_paths(n_bases=20, max_depth=4):
    """Paths the marker engine emits on random bases from four observations
    each: (kb, path, fresh prefix) triples, numbered as `run` numbers them."""
    out = []
    for seed in range(n_bases):
        base = random_kb(seed + 500, n_schemas=40, n_roles=40)
        names = sorted(base.schemas)
        engine = MarkerEngine(base, EngineConfig(half_threshold=0.0, full_threshold=0.0,
                                                 max_depth=max_depth))
        for k in range(4):
            engine.seed(Observation(f"o{k}", names[(7 * seed + 11 * k) % len(names)], 0.9))
            engine.spread()
        out.extend((base, path, f"p{index}-gen-")
                   for index, path in enumerate(engine.scores, start=1))
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


def program_size(mark):
    """The marks of a spread program from ``mark`` down."""
    return 1 + sum(map(program_size, mark.children))


def assert_matches_oracle_modulo_retention(base, seeds, max_depth):
    """Emitted == oracle set, modulo the best-trail retention rule:

    * soundness: every emitted path is a valid path between the seeds with
      at most 2*max_depth links (the oracle's set at that depth);
    * completeness: every oracle path at max_depth is emitted, unless at
      every cleave position one of its halves lost the (origin, schema,
      state) slot to a trail with at least its score.  At T = 0 every
      cleave qualifies, so that is `completeness_check` at thresholds 0/0
      listing nothing.
    """
    config = EngineConfig(half_threshold=0.0, full_threshold=0.0, max_depth=max_depth)
    engine = MarkerEngine(base, config)
    for obs in seeds:
        engine.seed(obs)
    engine.spread()
    o1, o2 = seeds
    for path in engine.scores:
        assert validate(path)
        assert {path.start, path.end} == {o1, o2}
        assert len(path.links) <= 2 * max_depth

    report = completeness_check(base, config, seeds)
    assert report.empty, [f"{entry.reason}: {entry.path.render()}"
                          for entry in report.entries]
