"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete; without ``-s`` pytest shows them in its captured-output summary.
"""

import functools
import random
import subprocess
import sys
import time

import pytest

from planmark import (
    EngineConfig,
    Observation,
    build_network,
    default_cpts,
    exact_posterior,
    extend_half,
    load_kb,
    relevant_statements,
    run,
    score_path,
    statements_of,
    synth_corpus,
    validate,
)
from planmark.paths import LinkKind, Path
from planmark.pipeline import RunConfig, SynthParams

from conftest import (
    FIG31_TEXT,
    FIXTURE_KB_TEXT,
    assert_matches_oracle_modulo_retention,
    package_env,
    sample_paths,
)
from oracles import completeness_check, flip, path_schemas, random_kb, step


def criterion(number, title, limit_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL - {title}")
                raise
            elapsed = time.monotonic() - started
            assert elapsed < limit_seconds, (
                f"criterion {number} took {elapsed:.1f}s, limit {limit_seconds}s")
            print(f"ACCEPTANCE {number} PASS - {title} ({elapsed:.1f}s)")
        return wrapper
    return decorate


@criterion(1, "worked-example fidelity (S(P) and RS(P) of the running example)", 1.0)
def test_criterion_1_worked_example(kb, fig31):
    sset = statements_of(fig31)
    rs = relevant_statements(fig31)
    # RS(P) names the instances in spine order: the one fresh instance
    # sits between the two observed ones.
    (generated,) = rs.names[1:-1]
    rendered = [s.replace(generated, "shopping3") for s in sset]
    assert rendered == [
        "(inst supermarket2 supermarket)",
        "(= (store-of shopping3) supermarket2)",
        "(inst shopping3 supermarket-shopping)",
        "(inst shopping3 shopping)",
        "(= (go-step shopping3) go1)",
        "(inst go1 go)",
    ]
    rs_rendered = [s.replace(generated, "shopping3") for s in rs.statements]
    assert rs_rendered == [s for s in rendered if s != "(inst shopping3 shopping)"]


@criterion(2, "grammar suite (DFA vs declarative rules, all sequences <= 5)", 10.0)
def test_criterion_2_grammar_suite(kb):
    def restatement(kinds):
        # Def-by-def: some role; no IsaUp immediately followed by IsaDown;
        # no RoleUp after any RoleDown.
        if not any(k.is_role for k in kinds):
            return False
        for a, b in zip(kinds, kinds[1:]):
            if a is LinkKind.ISA_UP and b is LinkKind.ISA_DOWN:
                return False
        for i, k in enumerate(kinds):
            if k is LinkKind.ROLE_DOWN:
                if any(later is LinkKind.ROLE_UP for later in kinds[i + 1:]):
                    return False
        return True

    # Kind level: every sequence over the four link kinds, length 1..5.
    from itertools import product

    from planmark.paths import START_STATE

    kind_checked = 0
    for length in range(1, 6):
        for kinds in product(list(LinkKind), repeat=length):
            state = START_STATE
            for kind in kinds:
                if state is not None:
                    state = step(state, kind)
            accepted = state is not None and any(k.is_role for k in kinds)
            assert accepted == restatement(list(kinds))
            kind_checked += 1
    assert kind_checked == 4 + 16 + 64 + 256 + 1024

    # Walk level: every chained sequence of fixture links, via validate().
    walk_checked = 0
    for start in sorted(kb.schemas):
        stack = [(start, ())]
        while stack:
            at, links = stack.pop()
            if links:
                path = Path(start=Observation("a", links[0].source),
                            links=links, end=Observation("b", at))
                assert validate(path) == restatement([l.kind for l in links])
                walk_checked += 1
            if len(links) < 5:
                for link in kb.adjacency[at]:
                    stack.append((link.destination, links + (link,)))
    assert walk_checked > 100  # the fixture admits 160 such walks


@criterion(3, "scoring fixture (16.2, both accumulation directions)", 5.0)
def test_criterion_3_scoring_fixture(kb, fig31):
    forward = score_path(kb, fig31)
    assert forward == pytest.approx(16.2, rel=1e-12)
    backward = fig31.end.belief / kb.priors[fig31.end.schema]
    for link in reversed(fig31.links):
        backward *= link.multiplier
    backward *= fig31.start.belief
    assert backward == pytest.approx(forward, rel=1e-12)


@criterion(4, "cleave identity at every position of 100+ random paths", 30.0)
def test_criterion_4_cleave_identity():
    from planmark import combine

    pairs = sample_paths(seed=643, n_kbs=8, limit=150, beliefs=True)
    assert len(pairs) >= 100
    for base, path in pairs:
        whole = score_path(base, path)
        for j in range(len(path.links) + 1):
            h1 = path.start.belief
            for link in path.links[:j]:
                h1 = extend_half(base, h1, link)
            h2 = path.end.belief
            for link in reversed(path.links[j:]):
                h2 = extend_half(base, h2, flip(base, link))
            at = path_schemas(path)[j]
            assert combine(base, at, h1, h2) == pytest.approx(whole, rel=1e-12)


@criterion(5, "factorization identity and upper bound on 500+ networks", 120.0)
def test_criterion_5_factorization_identity():
    rng = random.Random(565)
    pairs = sample_paths(seed=565, n_kbs=16, limit=520, max_roles=5, beliefs=True)
    assert len(pairs) >= 500
    bounded = 0
    for base, path in pairs:
        gamma1 = rng.uniform(0.05, 1.0)
        if rng.random() < 0.5:
            gamma0 = rng.uniform(gamma1, 1.0)  # residual <= 1 guaranteed
        else:
            gamma0 = rng.uniform(0.05, 1.0)
        rs = relevant_statements(path)
        network = build_network(base, path, rs)
        cpts = default_cpts(base, network, gamma1, gamma0)
        joint, residual = exact_posterior(network, cpts)
        sc = score_path(base, path)
        assert joint == pytest.approx(sc * residual, rel=1e-9)
        if residual <= 1.0:
            bounded += 1
            assert joint <= sc * (1 + 1e-12)
    assert bounded >= 200


@criterion(6, "marker completeness against the oracle on 50+ random bases", 300.0)
def test_criterion_6_marker_vs_oracle():
    rng = random.Random(66)
    dips_seen = 0
    for trial in range(52):
        n_schemas = rng.randint(8, 30)
        # Keep total links (roles plus isa edges) at or below 60.
        base = random_kb(trial + 900, n_schemas=n_schemas, n_roles=30)
        names = sorted(base.schemas)
        seeds = (Observation("left", rng.choice(names), rng.uniform(0.4, 1.0)),
                 Observation("right", rng.choice(names), rng.uniform(0.4, 1.0)))

        # T = 0: emitted equals the oracle set modulo best-trail retention.
        assert_matches_oracle_modulo_retention(base, seeds, max_depth=4)

        # T > 0: any missed high-scoring path must be a genuine half-dip.
        config = EngineConfig(half_threshold=0.05, full_threshold=0.0025,
                              max_depth=3)
        report = completeness_check(base, config, seeds)
        for entry in report.entries:
            assert entry.reason == "half-dip"
            dips_seen += 1
    assert dips_seen >= 0  # dips are allowed but must be classified


@criterion(7, "synthetic-corpus approval rate >= 0.9 at density 1.0", 120.0)
def test_criterion_7_synth_approval_rate():
    config = RunConfig(engine=EngineConfig(half_threshold=1e-8,
                                           full_threshold=1e-8, max_depth=6))
    evaluated = approved = 0
    for seed in range(20):
        corpus = synth_corpus(seed, SynthParams(corroboration_density=1.0))
        base = load_kb(corpus.kb_text)
        for stream in corpus.streams:
            report = run(base, config, stream)
            evaluated += report.evaluated
            approved += report.approved
    assert evaluated >= 20
    assert approved / evaluated >= 0.9


@criterion(8, "byte-identical reruns of every command", 120.0)
def test_criterion_8_determinism(tmp_path):
    kb_file = tmp_path / "fixture.kb"
    kb_file.write_text(FIXTURE_KB_TEXT)
    stream_file = tmp_path / "story.stream"
    stream_file.write_text("(inst supermarket2 supermarket :belief 0.9)\n"
                           "(inst go1 go :belief 0.9)\n"
                           "(corroborate supermarket-shopping store-of)\n"
                           "(corroborate supermarket-shopping go-step)\n")
    invocations = [
        ["check", "--kb", str(kb_file)],
        ["run", "--kb", str(kb_file), "--input", str(stream_file),
         "--threshold", "0.1", "--full-threshold", "1.0"],
        ["score", "--kb", str(kb_file), "--path", FIG31_TEXT, "--beliefs", "0.9,0.9"],
        ["translate", "--kb", str(kb_file), "--path", FIG31_TEXT],
        ["network", "--kb", str(kb_file), "--path", FIG31_TEXT],
        ["eval", "--kb", str(kb_file), "--path", FIG31_TEXT, "--beliefs", "0.9,0.9"],
        ["synth", "--seed", "11", "--stories", "4"],
    ]
    for argv in invocations:
        results = [subprocess.run([sys.executable, "-m", "planmark", *argv],
                                  capture_output=True, env=package_env())
                   for _ in range(2)]
        assert results[0].returncode == 0, results[0].stderr
        assert results[0].stdout == results[1].stdout
        assert results[0].returncode == results[1].returncode
