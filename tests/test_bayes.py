import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planmark import (
    KbError,
    MarkerEngine,
    Observation,
    PathError,
    RunConfig,
    approve,
    build_network,
    default_cpts,
    evidence_filter,
    exact_posterior,
    load_kb,
    parse_path,
    relevant_statements,
    render_network,
    score_path,
)
from planmark.paths import Path

from conftest import (
    FIG31_TEXT,
    FIXTURE_KB_TEXT,
    chain_kb_text,
    marker_paths,
    planmark,
    sample_paths,
)
from oracles import (
    ScanRegistry,
    ancestors_or_self,
    eqs_of,
    evidence_filter_by_scan,
    insts_of,
    masses_by_enumeration,
    posterior_by_elimination,
    posterior_by_enumeration,
    posterior_by_fractions,
    relevant_statements_by_fold,
    role_count,
)


def single_role_path(kb, beliefs=(1.0, 1.0)):
    return parse_path(kb, "(inst s1 supermarket)"
                          "(role supermarket-shopping store-of supermarket)"
                          "(inst p1 supermarket-shopping)", beliefs=beliefs)


def network_of(kb, path, gamma1=0.9, gamma0=1e-7):
    rs = relevant_statements(path)
    network = build_network(kb, path, rs)
    return network, default_cpts(kb, network, gamma1, gamma0)


def test_base_spine_shape(kb):
    network, _ = network_of(kb, single_role_path(kb))
    assert network.rs.names == ("s1", "p1")
    assert len(network.rs.roles) == 1
    ids = {src for src, _ in network.edges()} | {dst for _, dst in network.edges()}
    assert {"e1", "e2", "EI"} <= ids
    assert len(network.edges()) == 5


def test_fig31_network_shape(kb, fig31):
    network, _ = network_of(kb, fig31)
    assert network.rs.names == ("supermarket2", "gen-1", "go1")
    assert network.rs.types == ("supermarket", "supermarket-shopping", "go")
    assert len(network.rs.roles) == 2
    interior_edges = [e for e in network.edges() if e[1] == "EI"]
    assert len(interior_edges) == 2


def test_structural_recurrence_on_sampled_paths():
    for base, path in sample_paths(seed=53, limit=80, beliefs=True):
        rs = relevant_statements(path)
        network = build_network(base, path, rs)
        cpts = default_cpts(base, network, 0.9, 1e-7)
        roles = role_count(path)
        assert len(network.rs.names) == len(network.rs.types) == roles + 1
        assert len(network.rs.roles) == roles
        assert len(network.edges()) == 4 * roles + 1
        # Thm-style bijection: non-evidence nodes <-> RS(P) statements.
        assert network.non_evidence_count == len(rs.statements)
        # The network is RS(P) plus priors: its instances are RS(P)'s own,
        # each with its relevant type's prior, and each equality's table
        # reads its role link's declared filler type.
        assert network.rs is rs
        folded = relevant_statements_by_fold(base, path)
        assert network.priors == tuple(base.prior(inst.schema) for inst in insts_of(folded))
        assert cpts.eq_true == tuple(base.eq_prior / base.prior(link.filler)
                                     for link in path.links if link.kind.is_role)


def test_equality_cpt_value(kb):
    _, cpts = network_of(kb, single_role_path(kb))
    assert cpts.eq_true[0] == pytest.approx(0.001 / 0.01, rel=1e-12)


# The network's tables are probabilities only for coherent inputs: every
# p(==)/p(filler) at most 1, interior strengths in (0,1], and belief 1 on a
# type whose prior is 1.  Each input's reader rejects the rest, so no path
# is ever left unevaluated for a fault of the input.

def assert_rejected(result, message):
    assert result.returncode == 1
    assert result.stderr == f"error: {message}\n"
    assert "Traceback" not in result.stderr


def test_equality_prior_above_filler_prior_rejected(tmp_path):
    text = ("(eq-prior 0.5)\n(schema tiny :prior 0.01)\n"
            "(schema plan :prior 0.02)\n(role plan thing-of tiny)\n")
    with pytest.raises(KbError, match="^line 4: equality prior 0.5 exceeds the prior "
                                      "of filler type 'tiny'$"):
        load_kb(text)
    kb_file = tmp_path / "bad.kb"
    kb_file.write_text(text)
    assert_rejected(planmark("check", "--kb", str(kb_file)),
                    "line 4: equality prior 0.5 exceeds the prior of filler type 'tiny'")


def test_exact_posterior_matches_the_rational_closed_form():
    # The oracle the out-of-range CLI cases check against agrees with the
    # package on in-range paths.
    for base, path in sample_paths(seed=61, limit=80, max_roles=5, beliefs=True):
        network, cpts = network_of(base, path)
        joint, _ = exact_posterior(network, cpts)
        exact = float(posterior_by_fractions(base, path, cpts.gamma1, cpts.gamma0))
        assert joint == pytest.approx(exact, rel=1e-9), path.render()


def test_gamma_range_checked(tmp_path):
    for gamma1, gamma0 in ((0.0, 0.5), (0.9, 0.0), (1.5, 1e-7), (0.9, 2.0)):
        with pytest.raises(ValueError, match=r"interior strengths must be in \(0,1\]"):
            RunConfig(gamma1=gamma1, gamma0=gamma0)
    kb_file = tmp_path / "fixture.kb"
    kb_file.write_text(FIXTURE_KB_TEXT)
    stream = tmp_path / "story.stream"
    stream.write_text("(inst supermarket2 supermarket)\n(inst go1 go)\n")
    assert_rejected(planmark("run", "--kb", str(kb_file), "--input", str(stream),
                             "--gamma1", "0"),
                    "interior strengths must be in (0,1]")
    assert_rejected(planmark("eval", "--kb", str(kb_file), "--path", FIG31_TEXT,
                             "--gamma0", "0"),
                    "interior strengths must be in (0,1]")


CERTAIN_KB_TEXT = ("(eq-prior 0.001)\n(schema anything :prior 1.0)\n"
                   "(schema thing :isa anything :prior 0.5)\n"
                   "(schema plan :prior 0.01)\n(role plan of anything)\n")


def test_certain_type_with_uncertain_belief_cannot_scale(tmp_path):
    message = "cannot scale evidence for 'a1': type prior is 1 but belief is 0.5"
    base = load_kb(CERTAIN_KB_TEXT)
    with pytest.raises(ValueError, match=message):
        MarkerEngine(base).seed(Observation("a1", "anything", 0.5))
    # Rejected whichever path would reach it: the direct one, or a detour
    # that re-types the endpoint through a child with a smaller prior.
    paths = ["(inst a1 anything)(role plan of anything)(inst p1 plan)",
             "(inst a1 anything)(isa- thing anything)(isa thing anything)"
             "(role plan of anything)(inst p1 plan)"]
    for text in paths:
        with pytest.raises(PathError, match=rf"{message} \(at position 0\)"):
            parse_path(base, text, beliefs=(0.5, 1.0))
    end_text = "(inst p1 plan)(role- plan of anything)(inst a1 anything)"
    with pytest.raises(PathError, match=rf"{message} \(at position 38\)"):
        parse_path(base, end_text, beliefs=(1.0, 0.5))
    kb_file = tmp_path / "certain.kb"
    kb_file.write_text(CERTAIN_KB_TEXT)
    result = planmark("run", "--kb", str(kb_file), "--threshold", "0",
                      stdin="(inst p1 plan)\n(inst a1 anything :belief 0.5)\n"
                            "(corroborate plan of)\n")
    assert_rejected(result, f"line 2: {message}")


def test_belief_equal_to_prior_carries_no_information(kb):
    # Likelihood pair degenerates to equal entries: posterior == prior.
    path = single_role_path(kb, beliefs=(0.01, 1.0))
    _, cpts = network_of(kb, path)
    p_true, p_false = cpts.evidence[0]
    assert p_true == pytest.approx(p_false, rel=1e-12)


def test_equal_gammas_cancel(kb, fig31):
    network, _ = network_of(kb, fig31)
    joints = set()
    for gamma in (0.9, 0.2):
        cpts = default_cpts(kb, network, gamma, gamma)
        joint, _ = exact_posterior(network, cpts)
        joints.add(round(joint, 14))
    assert len(joints) == 1


def test_factorization_identity_on_fixture(kb, fig31):
    network, cpts = network_of(kb, fig31)
    joint, residual = exact_posterior(network, cpts)
    assert joint == pytest.approx(score_path(kb, fig31) * residual, rel=1e-9)


def test_factorization_identity_base_network(kb):
    path = single_role_path(kb, beliefs=(0.8, 0.7))
    network, cpts = network_of(kb, path)
    joint, residual = exact_posterior(network, cpts)
    assert joint == pytest.approx(score_path(kb, path) * residual, rel=1e-9)


def test_retyped_endpoint_still_satisfies_identity():
    # A trailing IsaUp types the end instance more specifically than it was
    # observed; the evidence CPT projects the belief onto the relevant type.
    base = load_kb("(eq-prior 0.001)(schema act :prior 0.2)"
                   "(schema go :isa act :prior 0.1)"
                   "(schema plan :prior 0.01)(role plan step-of go)")
    path = parse_path(base, "(inst p1 plan)(role- plan step-of go)"
                            "(isa go act)(inst a1 act)", beliefs=(0.9, 0.6))
    network = build_network(base, path, relevant_statements(path))
    assert network.rs.types[-1] == "go"
    cpts = default_cpts(base, network, 0.7, 0.01)
    joint, residual = exact_posterior(network, cpts)
    assert joint == pytest.approx(score_path(base, path) * residual, rel=1e-9)


def test_identity_and_bound_randomized(kb):
    rng = random.Random(99)
    checked_bound = 0
    for base, path in sample_paths(seed=59, limit=150, max_roles=5, beliefs=True):
        gamma1 = rng.uniform(0.05, 1.0)
        gamma0 = rng.uniform(0.05, 1.0) if rng.random() < 0.5 else gamma1 * rng.uniform(1.0, 2.0)
        gamma0 = min(gamma0, 1.0)
        rs = relevant_statements(path)
        network = build_network(base, path, rs)
        cpts = default_cpts(base, network, gamma1, gamma0)
        sc = score_path(base, path)
        joint, residual = exact_posterior(network, cpts)
        assert joint == pytest.approx(sc * residual, rel=1e-9)
        if residual <= 1.0:
            assert joint <= sc * (1 + 1e-12)
            checked_bound += 1
    assert checked_bound >= 30


BOUND_CASES = sample_paths(seed=67, limit=120, max_roles=4, beliefs=True)


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(BOUND_CASES),
       gamma1=st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False),
       gamma0=st.floats(1e-9, 1.0))
def test_residual_bound_for_any_interior_strengths(case, gamma1, gamma0):
    # s1/s0 = gamma0 + (gamma1 - gamma0) * A/s0 with 0 <= A <= s0, so the
    # spinal contribution bounds the joint up to p(==)^k * gamma1 / min(gamma0,
    # gamma1): an upper bound exactly when gamma0 >= gamma1.
    base, path = case
    network, cpts = network_of(base, path, gamma1, gamma0)
    _, residual = exact_posterior(network, cpts)
    floor = min(gamma0, gamma1)
    bound = cpts.eq_prior ** role_count(path) * gamma1 / floor
    # Below the normal range a float has no 1e-12 relative precision.
    assert residual <= bound * (1 + 1e-12) + sys.float_info.min
    s0, s1, _ = masses_by_enumeration(network, cpts)
    assert s1 >= floor * s0 * (1 - 1e-12)


def tightness_case(x):
    """A two-role path between two `a` instances observed at belief 1, so
    both end evidence nodes are certain, on a base with p(plan) = x and
    p(==)/p(a) = x: the all-true weight is A/s0 = x**3 of the end mass."""
    base = load_kb(f"(eq-prior {0.2 * x!r})(schema a :prior 0.2)(schema plan :prior {x!r})"
                   "(role plan x-of a)(role plan y-of a)")
    return base, parse_path(base, "(inst a1 a)(role plan x-of a)(role- plan y-of a)"
                                  "(inst a2 a)")


@pytest.mark.parametrize("gamma1,gamma0,toward", [(0.9, 0.1, 0.0), (0.1, 0.9, 1.0)],
                         ids=["gamma0-below-A-to-0", "gamma1-below-A-to-1"])
def test_residual_bound_is_tight(gamma1, gamma0, toward):
    # residual / bound = min(gamma0, gamma1) / (gamma0 + (gamma1 - gamma0) * A/s0),
    # so the bound is reached as A/s0 -> 0 when gamma0 < gamma1, and as
    # A/s0 -> 1 when gamma1 < gamma0.
    gaps = []
    for eps in (1e-1, 1e-3, 1e-5):
        base, path = tightness_case(abs(toward - eps))
        network, cpts = network_of(base, path, gamma1, gamma0)
        _, residual = exact_posterior(network, cpts)
        ratio = residual / (cpts.eq_prior ** role_count(path) * gamma1 / min(gamma0, gamma1))
        s0, _, numerator = masses_by_enumeration(network, cpts)
        a = numerator / gamma1 / s0
        assert abs(a - toward) <= 3 * eps
        assert ratio == pytest.approx(
            min(gamma0, gamma1) / (gamma0 + (gamma1 - gamma0) * a), rel=1e-12)
        assert ratio <= 1
        gaps.append(1 - ratio)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def chain_path(base, length, beliefs=(1.0, 1.0)):
    """The straight path c0 -> c1 -> ... -> c<length> up the chain base's
    role links, one role per step."""
    links = tuple(base.links[f"(role c{i + 1} step c{i})"] for i in range(length))
    return Path(start=Observation("x", "c0", beliefs[0]), links=links,
                end=Observation("y", f"c{length}", beliefs[1]))


def test_enumeration_agrees_with_elimination(kb, fig31):
    # Three-way: the closed form against both reference oracles.
    cases = [(kb, fig31)] + sample_paths(seed=61, limit=25, max_roles=4, beliefs=True)
    cases += [(base, chain_path(base, n, beliefs=(0.7, 0.6)))
              for n in range(3, 9) for base in [load_kb(chain_kb_text(n))]]
    cases.append(prior_one_case())
    for base, path in cases:
        network, cpts = network_of(base, path, gamma1=0.8, gamma0=0.3)
        closed = exact_posterior(network, cpts)
        enumerated = posterior_by_enumeration(network, cpts)
        eliminated = posterior_by_elimination(network, cpts)
        for oracle in (enumerated, eliminated):
            assert closed[0] == pytest.approx(oracle[0], rel=1e-12)
            assert closed[1] == pytest.approx(oracle[1], rel=1e-12)
    network, cpts = network_of(*prior_one_case())
    assert exact_posterior(network, cpts)[0] == pytest.approx(0.7590362085934151, rel=1e-12)


def prior_one_case():
    """A path from an observation typed at prior 1, whose end evidence
    reads (1, 0): the type is certain, so the node is always true."""
    base = load_kb("(eq-prior 0.01)(schema thing :prior 1)(schema obj :prior 0.2)"
                   "(schema plan :prior 0.001)(role plan x-of thing)(role plan y-of obj)")
    path = parse_path(base, "(inst t1 thing)(role plan x-of thing)(role- plan y-of obj)"
                            "(inst o1 obj)", beliefs=(1.0, 0.7))
    return base, path


def test_twelve_role_chain_is_evaluated():
    base = load_kb(chain_kb_text(12))
    path = chain_path(base, 12)
    network = build_network(base, path, relevant_statements(path))
    assert network.non_evidence_count == 25
    cpts = default_cpts(base, network, 0.9, 0.1)
    joint, residual = exact_posterior(network, cpts)
    assert joint == pytest.approx(score_path(base, path) * residual, rel=1e-9)


def registry_for_fig31():
    # The index `run` keeps: each slot maps to the schemas it is
    # corroborated at.
    return {"store-of": {"supermarket-shopping"}, "go-step": {"supermarket-shopping"}}


def test_evidence_filter_passes_with_full_corroboration(kb, fig31):
    rs = relevant_statements(fig31)
    assert evidence_filter(kb, rs, registry_for_fig31())


def test_evidence_filter_fails_with_empty_registry(kb, fig31):
    rs = relevant_statements(fig31)
    assert not evidence_filter(kb, rs, {})


def test_evidence_filter_needs_every_equality_corroborated(kb, fig31):
    rs = relevant_statements(fig31)
    registry = registry_for_fig31()
    registry["go-step"].discard("supermarket-shopping")
    assert not evidence_filter(kb, rs, registry)


def test_evidence_filter_base_path(kb):
    path = single_role_path(kb)
    rs = relevant_statements(path)
    assert evidence_filter(kb, rs, {"store-of": {"supermarket-shopping"}})


def test_evidence_filter_matches_ancestors(kb, fig31):
    # A record at the isa parent covers the more specific relevant type.
    rs = relevant_statements(fig31)
    assert evidence_filter(kb, rs, {"store-of": {"shopping"}, "go-step": {"shopping"}})


def test_evidence_filter_needs_the_slot_at_the_owner_or_an_ancestor(kb):
    # The slot is indexed either way; only a record at the owner's relevant
    # type or an isa ancestor of it corroborates the equality.
    rs = relevant_statements(single_role_path(kb))
    assert not evidence_filter(kb, rs, {"store-of": {"go"}})
    assert evidence_filter(kb, rs, {"store-of": {"shopping"}})


def _random_registries(rng, base, path, folded, count):
    """Registries holding the same random records twice: as the index
    `run` keeps, from each slot to the schemas it is corroborated at,
    and as the record set of the scan, which also lists the path's ends as
    observed, as `run` does for every path it reports.  Most of a path's
    equalities get a record for their slot at a random ancestor of the
    owner's relevant type or at a random schema; random noise is added."""
    names = sorted(base.schemas)
    slots = sorted({slot for schema in base.schemas.values() for slot, _ in schema.slots})
    rt = {s.instance: s.schema for s in insts_of(folded)}
    for _ in range(count):
        records = [(rng.choice(names), rng.choice(slots)) for _ in range(rng.randrange(4))]
        for eq in eqs_of(folded):
            if rng.random() < 0.8:
                near = ancestors_or_self(base, rt[eq.owner]) + [rng.choice(names)]
                records.append((rng.choice(near), eq.slot))
        index = {}
        scan = ScanRegistry(observed={path.start.instance, path.end.instance})
        for schema, slot in records:
            index.setdefault(slot, set()).add(schema)
            scan.add_corroboration(schema, slot)
        yield index, scan


def test_evidence_filter_matches_the_record_scan():
    rng = random.Random(43)
    pairs = sample_paths(seed=43, n_kbs=120, limit=6000)
    assert len(pairs) >= 5000
    verdicts = Counter()
    for base, path, prefix in [(b, p, "gen-") for b, p in pairs] + marker_paths():
        rs = relevant_statements(path, prefix)
        folded = relevant_statements_by_fold(base, path, prefix)
        for index, scan in _random_registries(rng, base, path, folded, 8):
            passed = evidence_filter(base, rs, index)
            assert passed == evidence_filter_by_scan(base, path, scan, prefix), path.render()
            verdicts[passed] += 1
    assert min(verdicts[True], verdicts[False]) >= 0.2 * sum(verdicts.values())


def test_approve_rule():
    base = load_kb("(eq-prior 0.00001)(schema thing :prior 0.1)"
                   "(schema rare-plan :prior 0.0001)"
                   "(role rare-plan a-of thing)(role rare-plan b-of thing)")
    path = parse_path(base, "(inst t1 thing)(role rare-plan a-of thing)"
                            "(role- rare-plan b-of thing)(inst t2 thing)")
    network = build_network(base, path, relevant_statements(path))
    assert approve(network, 0.2, ratio=1000.0)      # 0.2 >= 0.1
    assert not approve(network, 0.0999, ratio=1000.0)
    assert not approve(network, 0.0001, ratio=2.0)  # == prior, ratio > 1
    assert approve(network, 0.0001, ratio=1.0)      # boundary inclusive


def test_approve_empty_plan_product(kb):
    # Both instances observed: the prior product is empty (1.0), so no
    # bounded posterior can clear a ratio above 1.
    network, _ = network_of(kb, single_role_path(kb))
    assert not approve(network, 1.0, ratio=1000.0)
    assert approve(network, 1.0, ratio=1.0)


def test_render_network_fixture_dump(kb, fig31):
    network, _ = network_of(kb, fig31)
    dump = render_network(network)
    assert dump.splitlines() == [
        "node supermarket2 kind=inst type=supermarket prior=0.01",
        "node gen-1 kind=inst type=supermarket-shopping prior=0.02",
        "node go1 kind=inst type=go prior=0.1",
        "node eq1 kind=eq type=- prior=-",
        "node eq2 kind=eq type=- prior=-",
        "node e1 kind=ev type=- prior=-",
        "node e2 kind=ev type=- prior=-",
        "node EI kind=interior type=- prior=-",
        "edge gen-1 go1",
        "edge supermarket2 e1",
        "edge go1 e2",
        "edge supermarket2 eq1",
        "edge gen-1 eq1",
        "edge gen-1 eq2",
        "edge go1 eq2",
        "edge eq1 EI",
        "edge eq2 EI",
    ]
