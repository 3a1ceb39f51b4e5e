import random

import pytest

from planmark import (
    EvidenceRegistry,
    NetworkError,
    Observation,
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
from planmark.paths import Path, TraversalLink

from conftest import chain_kb_text, sample_paths
from oracles import posterior_by_elimination, posterior_by_enumeration


def single_role_path(kb, beliefs=(1.0, 1.0)):
    return parse_path(kb, "(inst s1 supermarket)"
                          "(role supermarket-shopping store-of supermarket)"
                          "(inst p1 supermarket-shopping)", beliefs=beliefs)


def network_of(kb, path, gamma1=0.9, gamma0=1e-7):
    rs = relevant_statements(kb, path)
    network = build_network(kb, path, rs)
    return network, default_cpts(kb, network, gamma1, gamma0)


def test_base_spine_shape(kb):
    network, _ = network_of(kb, single_role_path(kb))
    assert len(network.insts) == 2
    assert len(network.eqs) == 1
    ids = {src for src, _ in network.edges()} | {dst for _, dst in network.edges()}
    assert {"e1", "e2", "EI"} <= ids
    assert len(network.edges()) == 5


def test_fig31_network_shape(kb, fig31):
    network, _ = network_of(kb, fig31)
    assert [n.instance for n in network.insts] == ["supermarket2", "gen-1", "go1"]
    assert [n.rt for n in network.insts] == ["supermarket", "supermarket-shopping", "go"]
    assert len(network.eqs) == 2
    interior_edges = [e for e in network.edges() if e[1] == "EI"]
    assert len(interior_edges) == 2


def test_structural_recurrence_on_sampled_paths():
    for base, path in sample_paths(seed=53, limit=80, beliefs=True):
        rs = relevant_statements(base, path)
        network = build_network(base, path, rs)
        roles = path.role_count()
        assert len(network.insts) == roles + 1
        assert len(network.eqs) == roles
        assert len(network.edges()) == 4 * roles + 1
        # Thm-style bijection: non-evidence nodes <-> RS(P) statements.
        assert network.non_evidence_count == len(rs.statements)


def test_equality_cpt_value(kb):
    _, cpts = network_of(kb, single_role_path(kb))
    assert cpts.eq_true[0] == pytest.approx(0.001 / 0.01, rel=1e-12)


def test_equality_prior_above_filler_prior_rejected():
    base = load_kb("(eq-prior 0.5)(schema tiny :prior 0.01)"
                   "(schema plan :prior 0.02)(role plan thing-of tiny)")
    path = parse_path(base, "(inst t1 tiny)(role plan thing-of tiny)(inst p1 plan)")
    network = build_network(base, path, relevant_statements(base, path))
    with pytest.raises(NetworkError, match="exceeds the prior"):
        default_cpts(base, network, 0.9, 0.1)


def test_gamma_range_checked(kb):
    path = single_role_path(kb)
    network = build_network(kb, path, relevant_statements(kb, path))
    with pytest.raises(NetworkError, match="interior strengths"):
        default_cpts(kb, network, 0.0, 0.5)


def test_certain_type_with_uncertain_belief_cannot_scale():
    base = load_kb("(eq-prior 0.001)(schema anything :prior 1.0)"
                   "(schema plan :prior 0.01)(role plan of anything)")
    path = parse_path(base, "(inst a1 anything)(role plan of anything)(inst p1 plan)",
                      beliefs=(0.5, 1.0))
    network = build_network(base, path, relevant_statements(base, path))
    with pytest.raises(NetworkError, match="cannot scale evidence"):
        default_cpts(base, network, 0.9, 0.1)


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
    network = build_network(base, path, relevant_statements(base, path))
    assert network.insts[-1].rt == "go"
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
        rs = relevant_statements(base, path)
        network = build_network(base, path, rs)
        cpts = default_cpts(base, network, gamma1, gamma0)
        sc = score_path(base, path)
        joint, residual = exact_posterior(network, cpts)
        assert joint == pytest.approx(sc * residual, rel=1e-9)
        if residual <= 1.0:
            assert joint <= sc * (1 + 1e-12)
            checked_bound += 1
    assert checked_bound >= 30


def chain_path(length, beliefs=(1.0, 1.0)):
    """The straight path c0 -> c1 -> ... -> c<length> up the chain base's
    role links, one role per step."""
    links = tuple(TraversalLink.role_up(f"c{i + 1}", "step", f"c{i}")
                  for i in range(length))
    return Path(start=Observation("x", "c0", beliefs[0]), links=links,
                end=Observation("y", f"c{length}", beliefs[1]))


def test_enumeration_agrees_with_elimination(kb, fig31):
    # Three-way: the closed form against both reference oracles.
    cases = [(kb, fig31)] + sample_paths(seed=61, limit=25, max_roles=4, beliefs=True)
    cases += [(load_kb(chain_kb_text(n)), chain_path(n, beliefs=(0.7, 0.6)))
              for n in range(3, 9)]
    for base, path in cases:
        network, cpts = network_of(base, path, gamma1=0.8, gamma0=0.3)
        closed = exact_posterior(network, cpts)
        enumerated = posterior_by_enumeration(network, cpts)
        eliminated = posterior_by_elimination(network, cpts)
        for oracle in (enumerated, eliminated):
            assert closed[0] == pytest.approx(oracle[0], rel=1e-12)
            assert closed[1] == pytest.approx(oracle[1], rel=1e-12)


def test_twelve_role_chain_is_evaluated():
    base = load_kb(chain_kb_text(12))
    path = chain_path(12)
    network = build_network(base, path, relevant_statements(base, path))
    assert network.non_evidence_count == 25
    cpts = default_cpts(base, network, 0.9, 0.1)
    joint, residual = exact_posterior(network, cpts)
    assert joint == pytest.approx(score_path(base, path) * residual, rel=1e-9)


def registry_for_fig31():
    registry = EvidenceRegistry()
    registry.add_observed("supermarket2")
    registry.add_observed("go1")
    registry.add_corroboration("supermarket-shopping", "store-of")
    registry.add_corroboration("supermarket-shopping", "go-step")
    return registry


def test_evidence_filter_passes_with_full_corroboration(kb, fig31):
    rs = relevant_statements(kb, fig31)
    assert evidence_filter(kb, rs, registry_for_fig31())


def test_evidence_filter_fails_with_empty_registry(kb, fig31):
    rs = relevant_statements(kb, fig31)
    registry = EvidenceRegistry()
    registry.add_observed("supermarket2")
    registry.add_observed("go1")
    assert not evidence_filter(kb, rs, registry)


def test_evidence_filter_needs_every_equality_corroborated(kb, fig31):
    rs = relevant_statements(kb, fig31)
    registry = registry_for_fig31()
    registry.records.discard(("supermarket-shopping", "go-step"))
    assert not evidence_filter(kb, rs, registry)


def test_evidence_filter_base_path(kb):
    path = single_role_path(kb)
    rs = relevant_statements(kb, path)
    registry = EvidenceRegistry()
    registry.add_observed("s1")
    registry.add_observed("p1")
    registry.add_corroboration("supermarket-shopping", "store-of")
    assert evidence_filter(kb, rs, registry)


def test_evidence_filter_matches_ancestors(kb, fig31):
    # A record at the isa parent covers the more specific relevant type.
    rs = relevant_statements(kb, fig31)
    registry = EvidenceRegistry()
    registry.add_observed("supermarket2")
    registry.add_observed("go1")
    registry.add_corroboration("shopping", "store-of")
    registry.add_corroboration("shopping", "go-step")
    assert evidence_filter(kb, rs, registry)


def test_approve_rule():
    base = load_kb("(eq-prior 0.00001)(schema thing :prior 0.1)"
                   "(schema rare-plan :prior 0.0001)"
                   "(role rare-plan a-of thing)(role rare-plan b-of thing)")
    path = parse_path(base, "(inst t1 thing)(role rare-plan a-of thing)"
                            "(role- rare-plan b-of thing)(inst t2 thing)")
    rs = relevant_statements(base, path)
    assert approve(base, path, rs, 0.2, ratio=1000.0)      # 0.2 >= 0.1
    assert not approve(base, path, rs, 0.0999, ratio=1000.0)
    assert not approve(base, path, rs, 0.0001, ratio=2.0)  # == prior, ratio > 1
    assert approve(base, path, rs, 0.0001, ratio=1.0)      # boundary inclusive


def test_approve_empty_plan_product(kb):
    # Both instances observed: the prior product is empty (1.0), so no
    # bounded posterior can clear a ratio above 1.
    path = single_role_path(kb)
    rs = relevant_statements(kb, path)
    assert not approve(kb, path, rs, 1.0, ratio=1000.0)
    assert approve(kb, path, rs, 1.0, ratio=1.0)


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
