import pytest

from planmark import KbError, load_kb
from planmark.paths import LinkKind

from oracles import flip, random_kb


def test_fixture_loads(kb):
    assert len(kb.schemas) == 5
    assert sum(len(s.slots) for s in kb.schemas.values()) == 2
    assert kb.eq_prior == 0.001
    assert kb.prior("supermarket") == 0.01
    assert kb.schema("supermarket").parent == "store-"


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


def test_isa_star(kb):
    assert kb.isa_star("supermarket", "store-")
    assert not kb.isa_star("supermarket", "supermarket")  # proper ancestry only
    assert not kb.isa_star("store-", "supermarket")


def test_isa_star_transitive():
    base = load_kb("(eq-prior 0.1)(schema top :prior 0.5)"
                   "(schema mid :isa top :prior 0.2)"
                   "(schema leaf :isa mid :prior 0.1)")
    assert base.isa_star("leaf", "mid")
    assert base.isa_star("leaf", "top")
    assert not base.isa_star("top", "leaf")


def test_unknown_schema_raises(kb):
    with pytest.raises(KbError, match="unknown schema"):
        kb.prior("ghost")
    with pytest.raises(KbError):
        kb.isa_star("ghost", "store-")


def test_neighbors_of_supermarket(kb):
    moves = [move.link for move in kb.adjacency["supermarket"]]
    assert [m.render() for m in moves] == [
        "(isa supermarket store-)",
        "(role supermarket-shopping store-of supermarket)",
    ]


def test_isolated_schema_has_no_neighbors():
    base = load_kb("(eq-prior 0.1)(schema lonely :prior 0.5)")
    assert base.adjacency["lonely"] == ()


@pytest.mark.parametrize("seed", range(5))
def test_neighbors_symmetric(seed):
    base = random_kb(seed)
    for name in base.schemas:
        for link in (move.link for move in base.adjacency[name]):
            assert link.source == name
            inverse = flip(link)
            assert inverse in [move.link for move in base.adjacency[link.destination]]


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


def test_adjacency_covers_every_link(kb):
    moves = [move.link for name in kb.schemas for move in kb.adjacency[name]]
    roles = [m for m in moves if m.kind.is_role]
    isas = [m for m in moves if not m.kind.is_role]
    assert len(roles) == 4  # two role links, one move in each direction
    assert len(isas) == 4
    assert {m.kind for m in roles} == {LinkKind.ROLE_UP, LinkKind.ROLE_DOWN}


def prior_ratio(base, link):
    """The spinal contribution's factor for one link, restated from the
    priors: p(filled)/p(filler) up a role, p(specific)/p(general) down an
    isa edge, 1 otherwise."""
    if link.kind is LinkKind.ROLE_UP:
        return base.prior(link.filled) / base.prior(link.filler)
    if link.kind is LinkKind.ISA_DOWN:
        return base.prior(link.specific) / base.prior(link.general)
    return 1.0


@pytest.mark.parametrize("seed", [None, *range(6)])
def test_adjacency_moves_cache_what_the_link_implies(kb, seed):
    # The marker multiplies by a move's cached multiplier, glues from its
    # cached twin and scores whole paths from the twin multipliers, scoring
    # and parsing read the link table and a run joins the cached texts, so
    # the scores and paths they produce rest on these holding exactly.
    base = kb if seed is None else random_kb(seed, n_schemas=30, n_roles=30)
    moves = [move for entries in base.adjacency.values() for move in entries]
    assert moves
    for move in moves:
        link = move.link
        assert move.multiplier == prior_ratio(base, link)
        assert move.twin == flip(link)
        assert move.destination == link.destination
        assert move.kind == link.kind.order
        assert base.moves[link] is move
        assert move.twin_multiplier == base.moves[move.twin].multiplier
        assert move.text == link.render()
    isa_edges = sum(1 for s in base.schemas.values() if s.parent is not None)
    role_links = sum(len(s.slots) for s in base.schemas.values())
    assert len(base.moves) == len(moves) == 2 * (isa_edges + role_links)
    # The filter and the networks read these flat tables.
    assert base.priors == {name: schema.prior for name, schema in base.schemas.items()}
    assert base.parents == {name: schema.parent for name, schema in base.schemas.items()}
