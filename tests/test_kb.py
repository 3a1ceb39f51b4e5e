import random
import time

import pytest

from planmark import KbError, KnowledgeBase, Observation, load_kb
from planmark.paths import LinkKind

from conftest import planmark
from oracles import FLIPPED, flip, link_names, random_kb


def test_fixture_loads(kb):
    assert len(kb.schemas) == 5
    assert sum(len(s.slots) for s in kb.schemas.values()) == 2
    assert kb.eq_prior == 0.001
    assert kb.prior("supermarket") == 0.01
    assert kb.schemas["supermarket"].parent == "store-"


def test_empty_input_is_missing_eq_prior():
    with pytest.raises(KbError, match="missing eq-prior"):
        load_kb("")


def test_child_prior_above_parent_rejected():
    text = "(eq-prior 0.1)(schema a :prior 0.5)(schema b :isa a :prior 0.9)"
    with pytest.raises(KbError, match="above its parent"):
        load_kb(text)


def test_children_sum_above_parent_rejected():
    text = ("(eq-prior 0.1)(schema a :prior 0.5)"
            "(schema b :isa a :prior 0.3)(schema c :isa a :prior 0.3)")
    with pytest.raises(KbError, match="summing"):
        load_kb(text)


def test_children_sum_error_names_the_parent_line():
    # The parent's schema form is on line 3, after one of its children.
    text = ("(eq-prior 0.01)\n(schema c1 :isa p :prior 0.06)\n"
            "(schema p :prior 0.1)\n(schema c2 :isa p :prior 0.06)\n")
    with pytest.raises(KbError) as caught:
        load_kb(text)
    assert str(caught.value) == ("line 3: children of 'p' have priors summing "
                                 "to 0.12, above the parent prior 0.1")
    assert caught.value.line == 3


def test_children_sum_check_scales_with_tiny_priors():
    # 1.8e-13 is 80% above the parent's 1e-13 but less than 1e-12 above it.
    text = ("(eq-prior 1e-15)(schema p :prior 1e-13)"
            "(schema a :isa p :prior 9e-14)(schema b :isa p :prior 9e-14)")
    with pytest.raises(KbError) as caught:
        load_kb(text)
    assert str(caught.value) == ("line 1: children of 'p' have priors summing "
                                 "to 1.8e-13, above the parent prior 1e-13")


def test_children_sum_allows_rounding_in_the_sum():
    # 0.1 + 0.2 rounds to 0.30000000000000004, above the parent's 0.3.
    text = ("(eq-prior 0.01)(schema p :prior 0.3)"
            "(schema a :isa p :prior 0.1)(schema b :isa p :prior 0.2)")
    assert load_kb(text).prior("p") == 0.3


def test_a_deep_isa_chain_loads_in_linear_time(tmp_path):
    # An isa-cycle check that walks from every schema to its root takes
    # time quadratic in the depth: about a minute on this chain.
    lines = ["(eq-prior 0.5)", "(schema c0 :prior 1.0)"]
    lines += [f"(schema c{k} :isa c{k - 1} :prior 1.0)" for k in range(1, 20_001)]
    text = "\n".join(lines) + "\n"
    start = time.perf_counter()
    base = load_kb(text)
    assert time.perf_counter() - start < 5.0
    assert base.parents["c20000"] == "c19999"
    kb_file = tmp_path / "chain.kb"
    kb_file.write_text(text)
    start = time.perf_counter()
    result = planmark("check", "--kb", str(kb_file))
    assert time.perf_counter() - start < 5.0
    assert result.returncode == 0
    assert result.stdout == "ok: 20001 schemas, 0 role links, eq-prior 0.5\n"


def test_a_cycle_under_a_long_chain_names_the_first_schema_that_leads_into_it():
    # A rooted chain first, whose walks the check remembers, then a chain
    # hanging under the cycle x -> y -> x, its forms shuffled.  Every
    # schema of the second chain leads into the cycle; the first one in
    # the text is reported, with its line.
    lines = ["(eq-prior 0.5)", "(schema r0 :prior 1.0)"]
    lines += [f"(schema r{k} :isa r{k - 1} :prior 1.0)" for k in range(1, 2000)]
    hanging = ["(schema x :isa y :prior 1.0)", "(schema y :isa x :prior 1.0)",
               "(schema d0 :isa x :prior 1.0)"]
    hanging += [f"(schema d{k} :isa d{k - 1} :prior 1.0)" for k in range(1, 2000)]
    random.Random(7).shuffle(hanging)
    lines += hanging
    first = hanging[0].split()[1]
    with pytest.raises(KbError) as caught:
        load_kb("\n".join(lines))
    assert str(caught.value) == f"line 2002: isa cycle through {first!r}"
    assert caught.value.line == 2002


@pytest.mark.parametrize("text,match", [
    ("(eq-prior 0.1)(schema a :prior 0.5)(schema a :prior 0.4)", "duplicate schema"),
    ("(eq-prior 0.1)(schema a :isa ghost :prior 0.5)", "unknown parent"),
    ("(eq-prior 0.1)(schema a :prior 0.5)(role a s ghost)", "unknown filler"),
    ("(eq-prior 0.1)(schema a :prior 0.5)(role ghost s a)", "unknown schema"),
    ("(eq-prior 0.1)(schema a :isa b :prior 0.2)(schema b :isa a :prior 0.2)", "cycle"),
    ("(eq-prior 0.1)(schema a :prior 1.5)", "in \\(0,1\\]"),
    ("(eq-prior 0.1)(schema a :prior 0)", "in \\(0,1\\]"),
    ("(eq-prior 1e-320)\n(schema a :prior 1e-310)", "line 2: prior of 'a' is subnormal"),
    ("(eq-prior 1.0)(schema a :prior 0.5)", "in \\(0,1\\)"),
    ("(eq-prior 0.1)(eq-prior 0.2)(schema a :prior 0.5)", "duplicate eq-prior"),
    ("(eq-prior 0.1)(schema a :prior 0.5)(role a s a)(role a s a)", "duplicate slot"),
    ("(eq-prior 0.1)(schema 9bad :prior 0.5)", "bad name"),
    ("(eq-prior 0.1)(schema a :prior x)", "bad number"),
    ("(eq-prior 0.1)(schema a", "unterminated"),
    ("(eq-prior 0.1)(widget a)", "unknown form"),
    ("(eq-prior 0.1)(schema a b c)", "schema form is"),
])
def test_load_errors(text, match):
    with pytest.raises(KbError, match=match):
        load_kb(text)


def test_errors_carry_line_numbers():
    with pytest.raises(KbError, match="line 3"):
        load_kb("(eq-prior 0.1)\n(schema a :prior 0.5)\n(schema a :prior 0.4)")


def test_comments_and_whitespace_ignored():
    text = "; header\n(eq-prior  0.1) ; trailing\n\t(schema a :prior 0.5)"
    assert load_kb(text).prior("a") == 0.5


def test_unknown_schema_raises(kb):
    with pytest.raises(KbError, match="unknown schema"):
        kb.prior("ghost")


def test_neighbors_of_supermarket(kb):
    assert [link.text for link in kb.adjacency["supermarket"]] == [
        "(isa supermarket store-)",
        "(role supermarket-shopping store-of supermarket)",
    ]


def test_parallel_role_links_are_listed_by_slot():
    # Slots declared out of order, all filled by the same schema: the
    # moves tie on destination and kind, and the slot breaks the tie.
    base = load_kb("(eq-prior 0.1)(schema trip :prior 0.2)(schema place :prior 0.5)"
                   "(role trip via place)(role trip from place)(role trip to place)")
    assert [move.text for move in base.adjacency["place"]] == [
        "(role trip from place)", "(role trip to place)", "(role trip via place)"]
    assert [move.text for move in base.adjacency["trip"]] == [
        "(role- trip from place)", "(role- trip to place)", "(role- trip via place)"]


def test_isolated_schema_has_no_neighbors():
    base = load_kb("(eq-prior 0.1)(schema lonely :prior 0.5)")
    assert base.adjacency["lonely"] == ()


@pytest.mark.parametrize("seed", range(5))
def test_neighbors_symmetric(seed):
    base = random_kb(seed)
    for name in base.schemas:
        for link in base.adjacency[name]:
            assert link.source == name
            inverse = flip(base, link)
            assert inverse in base.adjacency[link.destination]


def test_prior_invariants_hold_on_random_bases():
    for seed in range(8):
        base = random_kb(seed)
        for schema in base.schemas.values():
            assert 0.0 < schema.prior <= 1.0
            if schema.parent is not None:
                assert schema.prior <= base.prior(schema.parent)
        for parent in base.schemas:
            total = sum(s.prior for s in base.schemas.values()
                        if s.parent == parent)
            assert total <= base.prior(parent) + 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_render_round_trip(seed, kb):
    for base in (kb, random_kb(seed)):
        assert load_kb(base.render()) == base


def test_equal_schemas_and_observations_hash_equal(kb):
    copy = load_kb(kb.render())
    for name, schema in kb.schemas.items():
        assert copy.schemas[name] is not schema
        assert copy.schemas[name] == schema and hash(copy.schemas[name]) == hash(schema)
    assert {schema: name for name, schema in kb.schemas.items()}[copy.schemas["go"]] == "go"
    obs, twin = Observation("a", "go", 0.5), Observation(instance="a", schema="go", belief=0.5)
    assert obs == twin and hash(obs) == hash(twin) and {obs: 1}[twin] == 1
    assert Observation("a", "go") == Observation("a", "go", 1.0) != obs


def test_bases_compare_on_schemas_and_eq_prior_only(kb):
    assert load_kb(kb.render()) == kb
    assert KnowledgeBase(kb.schemas, kb.eq_prior, {}, {}, {}, {}, {}) == kb
    assert load_kb(kb.render().replace("(eq-prior 0.001)", "(eq-prior 0.002)")) != kb
    assert load_kb(kb.render().replace(":prior 0.1)", ":prior 0.2)")) != kb


def test_adjacency_covers_every_link(kb):
    moves = [link for name in kb.schemas for link in kb.adjacency[name]]
    roles = [m for m in moves if m.kind.is_role]
    isas = [m for m in moves if not m.kind.is_role]
    assert len(roles) == 4  # two role links, one move in each direction
    assert len(isas) == 4
    assert {m.kind for m in roles} == {LinkKind.ROLE_UP, LinkKind.ROLE_DOWN}


def prior_ratio(base, link):
    """The spinal contribution's factor for one link, restated from the
    priors and the link's names: p(filled)/p(filler) up a role,
    p(specific)/p(general) down an isa edge, 1 otherwise."""
    names = link_names(link)
    if link.kind is LinkKind.ROLE_UP:
        return base.prior(names[0]) / base.prior(names[2])
    if link.kind is LinkKind.ISA_DOWN:
        return base.prior(names[0]) / base.prior(names[1])
    return 1.0


def ends(link):
    """(source, destination) restated from the kind and the names."""
    names = link_names(link)
    if link.kind is LinkKind.ROLE_UP:
        return names[2], names[0]
    if link.kind is LinkKind.ROLE_DOWN:
        return names[0], names[2]
    if link.kind is LinkKind.ISA_UP:
        return names[0], names[1]
    return names[1], names[0]


def declares(base, link):
    """Whether the base declares the link its names spell out."""
    names = link_names(link)
    if link.kind.is_role:
        filled, slot, filler = names
        return (slot, filler) in base.schemas[filled].slots
    specific, general = names
    return base.schemas[specific].parent == general


@pytest.mark.parametrize("seed", [None, *range(6)])
def test_adjacency_moves_cache_what_the_link_implies(kb, seed):
    # The marker multiplies by a link's multiplier and glues from its twin,
    # parsing reads the link table and a path's text joins the links'
    # texts, so the scores and paths they produce rest on these holding
    # exactly.  Each is checked against a restatement from the names.
    base = kb if seed is None else random_kb(seed, n_schemas=30, n_roles=30)
    links = [link for entries in base.adjacency.values() for link in entries]
    assert links
    for link in links:
        names = link_names(link)
        assert declares(base, link)
        assert link.multiplier == prior_ratio(base, link)
        assert link.text == f"({link.kind.tag} {' '.join(names)})"
        assert (link.source, link.destination) == ends(link)
        assert (link.slot, link.filler) == (names[1:] if link.kind.is_role else ("", ""))
        assert link.twin.kind is FLIPPED[link.kind]
        assert link_names(link.twin) == names
        assert link.twin.twin is link
        assert link.twin is flip(base, link)
        assert base.links[link.text] is link
    isa_edges = sum(1 for s in base.schemas.values() if s.parent is not None)
    role_links = sum(len(s.slots) for s in base.schemas.values())
    assert len(base.links) == len(links) == 2 * (isa_edges + role_links)
    # The marker emits in adjacency order, so the report bytes rest on it.
    for name in base.schemas:
        leaving = [link for link in base.links.values() if link.source == name]
        leaving.sort(key=lambda link: (link.destination, link.kind, link.slot))
        assert base.adjacency[name] == tuple(leaving)
    # The filter and the networks read these flat tables.
    assert base.priors == {name: schema.prior for name, schema in base.schemas.items()}
    assert base.parents == {name: schema.parent for name, schema in base.schemas.items()}
    # The corroboration check reads this one.
    owners = {}
    for name, schema in base.schemas.items():
        for slot, _ in schema.slots:
            owners.setdefault(slot, set()).add(name)
    assert base.slot_owners == owners
