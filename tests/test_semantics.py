from planmark import (
    load_kb,
    parse_path,
    relevant_statements,
    statements_of,
)
from planmark.paths import LinkKind

from conftest import marker_paths, sample_paths
from oracles import (Inst, declared_slot, eqs_of, insts_of, isa_star, link_names,
                     relevant_instance_trace, relevant_statements_by_fold, role_count,
                     statements_by_walk, texts_of)


def test_trace_of_fig31(fig31):
    assert relevant_instance_trace(fig31) == ["supermarket2", "gen-1", "gen-1", "go1"]


def test_single_role_path_has_no_fresh_instance(kb):
    path = parse_path(kb, "(inst s1 supermarket)"
                          "(role supermarket-shopping store-of supermarket)"
                          "(inst p1 supermarket-shopping)")
    assert relevant_instance_trace(path) == ["s1", "p1"]
    assert relevant_statements(path).names == ("s1", "p1")


def test_two_role_path_has_one_fresh_instance(fig31):
    assert role_count(fig31) == 2
    assert relevant_statements(fig31).names == ("supermarket2", "gen-1", "go1")


def test_statements_of_fig31_match_the_worked_example(fig31):
    assert statements_of(fig31) == ("(inst supermarket2 supermarket)",
                                    "(= (store-of gen-1) supermarket2)",
                                    "(inst gen-1 supermarket-shopping)",
                                    "(inst gen-1 shopping)",
                                    "(= (go-step gen-1) go1)",
                                    "(inst go1 go)")


def test_single_role_path_statements(kb):
    path = parse_path(kb, "(inst s1 supermarket)"
                          "(role supermarket-shopping store-of supermarket)"
                          "(inst p1 supermarket-shopping)")
    assert statements_of(path) == ("(inst s1 supermarket)", "(= (store-of p1) s1)",
                                   "(inst p1 supermarket-shopping)")


def test_relevant_type_picks_most_specific(fig31):
    rs = relevant_statements(fig31)
    rt = dict(zip(rs.names, rs.types, strict=True))
    assert rt["gen-1"] == "supermarket-shopping"
    assert rt["go1"] == "go"


def test_relevant_type_three_level_chain():
    base = load_kb("(eq-prior 0.001)(schema top :prior 0.5)"
                   "(schema mid :isa top :prior 0.2)"
                   "(schema leaf :isa mid :prior 0.1)"
                   "(schema plan :prior 0.01)(role plan thing-of top)")
    path = parse_path(base, "(inst p1 plan)(role- plan thing-of top)"
                            "(isa- mid top)(isa- leaf mid)(inst t1 leaf)")
    sset = statements_of(path)
    assert [s for s in sset if s.startswith("(inst t1 ")] == [
        "(inst t1 top)", "(inst t1 mid)", "(inst t1 leaf)"]
    rs = relevant_statements(path)
    assert (rs.names[-1], rs.types[-1], rs.statements[-1]) == ("t1", "leaf", "(inst t1 leaf)")


def test_relevant_statements_of_fig31(kb, fig31):
    rs = relevant_statements(fig31)
    full = statements_of(fig31)
    assert rs.statements == tuple(s for s in full if s != "(inst gen-1 shopping)")
    assert len(rs.names) == len(rs.types) == 3


def test_rs_equals_s_without_isa_links(kb):
    path = parse_path(kb, "(inst s1 supermarket)"
                          "(role supermarket-shopping store-of supermarket)"
                          "(inst p1 supermarket-shopping)")
    rs, full = relevant_statements(path), statements_of(path)
    assert rs.statements == full == texts_of(statements_by_walk(path))


def test_fresh_prefix_is_configurable(fig31):
    sset = statements_of(fig31, fresh_prefix="p3-gen-")
    assert "(inst p3-gen-1 supermarket-shopping)" in sset
    rs = relevant_statements(fig31, fresh_prefix="p3-gen-")
    assert rs.names[1:-1] == ("p3-gen-1",)


def _typing_events(path, trace):
    """Every (instance, schema) typing the derivation touches, with
    multiplicity: endpoints plus one per link arrival."""
    events = [(path.start.instance, path.start.schema)]
    for i, link in enumerate(path.links):
        names = link_names(link)
        if link.kind is LinkKind.ROLE_UP:
            events.append((trace[i + 1], names[0]))  # the slot's owner
        elif link.kind is LinkKind.ROLE_DOWN:
            events.append((trace[i + 1], names[2]))  # its filler type
        elif link.kind is LinkKind.ISA_UP:
            events.append((trace[i + 1], names[1]))  # the general schema
        else:
            events.append((trace[i + 1], names[0]))  # the specific schema
    events.append((path.end.instance, path.end.schema))
    return events


def test_structural_counts_on_sampled_paths():
    pairs = sample_paths(seed=23, limit=150)
    assert len(pairs) >= 120
    for base, path in pairs:
        # The package's texts are the oracles' statements, whose kinds and
        # owners the checks below read.
        sset, folded = statements_by_walk(path), relevant_statements_by_fold(base, path)
        rs = relevant_statements(path)
        assert statements_of(path) == texts_of(sset)
        assert rs.statements == texts_of(folded)
        eqs = eqs_of(folded)
        roles = role_count(path)
        isas = len(path.links) - roles
        assert len(eqs_of(sset)) == roles
        assert len(eqs) == len(rs.roles) == roles
        events = _typing_events(path, relevant_instance_trace(path))
        assert len(insts_of(sset)) == len(set(events))
        if len(set(events)) == len(events):
            # No revisits: the closed-form count applies.
            assert len(insts_of(sset)) == 2 + isas + roles - 1
        # One inst statement per distinct instance.
        assert len(insts_of(folded)) == len(rs.types) == roles + 1
        assert set(folded) <= set(sset)
        # Spine order: the ends first and last, the fresh instances between.
        fresh = [f"gen-{j}" for j in range(1, roles)]
        assert rs.names == (path.start.instance, *fresh, path.end.instance)
        # No fresh instance only fills slots (slot-filler valley ban).
        assert set(fresh) <= {eq.owner for eq in eqs}
        # An endpoint's relevant type is no likelier than its observed schema.
        assert base.prior(rs.types[0]) <= base.prior(path.start.schema)
        assert base.prior(rs.types[-1]) <= base.prior(path.end.schema)


def test_dropped_statements_are_implied(kb):
    pairs = sample_paths(seed=31, limit=60)
    for base, path in pairs:
        sset, folded = statements_by_walk(path), relevant_statements_by_fold(base, path)
        rs = relevant_statements(path)
        assert (statements_of(path), rs.statements) == (texts_of(sset), texts_of(folded))
        rt = dict(zip(rs.names, rs.types, strict=True))
        for dropped in set(sset) - set(folded):
            assert isinstance(dropped, Inst)
            assert isa_star(base, rt[dropped.instance], dropped.schema)


def test_sloteq_well_typed_on_sampled_paths():
    for base, path in sample_paths(seed=37, limit=100):
        rs, folded = relevant_statements(path), relevant_statements_by_fold(base, path)
        assert rs.statements == texts_of(folded)
        rt = dict(zip(rs.names, rs.types, strict=True))
        for eq in eqs_of(folded):
            declared = declared_slot(base, rt[eq.owner], eq.slot)
            assert declared is not None, "owner's relevant type must have the slot"
            _, filler_type = declared
            filler_rt = rt[eq.filler]
            assert filler_rt == filler_type or isa_star(base, filler_rt, filler_type)


def test_determinism(kb, fig31):
    assert statements_of(fig31) == statements_of(fig31)
    assert relevant_statements(fig31) == relevant_statements(fig31)


def test_rs_matches_the_isa_fold():
    # Relevant types read off the walk's shape equal the ones the isa_star
    # fold finds, statement for statement and in the same order.
    pairs = sample_paths(seed=41, n_kbs=120, limit=6000)
    assert len(pairs) >= 5000
    cases = [(base, path, "gen-") for base, path in pairs] + marker_paths()
    for base, path, prefix in cases:
        rs = relevant_statements(path, prefix)
        folded = relevant_statements_by_fold(base, path, prefix)
        assert rs.statements == texts_of(folded), path.render()
        insts = insts_of(folded)
        assert rs.names == tuple(inst.instance for inst in insts), path.render()
        assert rs.types == tuple(inst.schema for inst in insts), path.render()
        assert [link.slot for link in rs.roles] == [eq.slot for eq in eqs_of(folded)]


def test_statements_of_matches_the_independent_walk():
    # S(P) shares RS(P)'s walk, instance naming and owner rule; the
    # reference walk names instances with its own counter and picks each
    # owner by comparing the link's kind.
    pairs = sample_paths(seed=43, n_kbs=120, limit=6000)
    assert len(pairs) >= 5000
    cases = [(path, "p1-gen-") for _, path in pairs]
    cases += [(path, prefix) for _, path, prefix in marker_paths()]
    for path, prefix in cases:
        for fresh_prefix in ("gen-", prefix):
            assert statements_of(path, fresh_prefix) == texts_of(
                statements_by_walk(path, fresh_prefix)), path.render()
