import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planmark import Observation, PathError, load_kb, parse_path, validate
from planmark.paths import (
    ALL_STATES,
    LinkKind,
    Path,
    START_STATE,
    form_start,
    read_forms,
)

from conftest import FIG31_TEXT, sample_paths
from oracles import declarative_valid, random_kb, read_forms_by_tokens, reverse, step

U, D, RU, RD = LinkKind.ISA_UP, LinkKind.ISA_DOWN, LinkKind.ROLE_UP, LinkKind.ROLE_DOWN


def run_dfa(kinds):
    state = START_STATE
    for kind in kinds:
        state = step(state, kind)
        if state is None:
            return None
    return state


def test_isa_plateau_rejected():
    assert run_dfa([U, D]) is None
    assert run_dfa([RU, U, D]) is None


def test_slot_filler_valley_rejected():
    assert run_dfa([RD, RU]) is None
    assert run_dfa([RD, U, RU]) is None
    assert run_dfa([RD, D, RU]) is None


def test_up_then_down_accepted_at_every_step():
    state = START_STATE
    for kind in [RU, U, RD]:
        state = step(state, kind)
        assert state is not None


def test_down_then_up_within_isa_is_allowed():
    # Specialize-then-generalize revisits a node but breaks no rule.
    assert run_dfa([D, U, RU]) is not None


def test_exactly_six_reachable_states():
    reachable = {START_STATE}
    frontier = [START_STATE]
    while frontier:
        state = frontier.pop()
        for kind in LinkKind:
            nxt = step(state, kind)
            if nxt is not None and nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    assert reachable == set(ALL_STATES)
    assert len(reachable) == 6


def test_link_kinds_are_step_table_columns(kb):
    # A kind's value is its STEP column and its rank in neighbor listings;
    # link text is written from its tag, never by formatting the member.
    assert list(LinkKind) == [U, D, RU, RD]
    assert [kind.value for kind in LinkKind] == [0, 1, 2, 3]
    assert " ".join(kind.tag for kind in LinkKind) == "isa isa- role role-"
    assert [kind.is_role for kind in LinkKind] == [False, False, True, True]
    assert [kind.owner_side for kind in LinkKind] == [None, None, 1, 0]
    for base in (kb, random_kb(0, 30, 30)):
        assert base.links
        for link in base.links.values():
            assert repr(link) == f"TraversalLink{link.text}"
            assert link.text.startswith(f"({link.kind.tag} ")


kinds_strategy = st.lists(st.sampled_from(list(LinkKind)), max_size=8)


@given(kinds_strategy)
@settings(max_examples=300, deadline=None)
def test_dfa_agrees_with_declarative_statement(kinds):
    state = run_dfa(kinds)
    accepted = state is not None and any(k.is_role for k in kinds)
    assert accepted == declarative_valid(kinds)


@given(kinds_strategy, st.sampled_from(list(LinkKind)))
@settings(max_examples=300, deadline=None)
def test_rejection_is_prefix_closed(kinds, extra):
    if run_dfa(kinds) is None:
        assert run_dfa(kinds + [extra]) is None


def test_fig31_parses_and_validates(kb, fig31):
    assert validate(fig31)
    assert fig31.render() == FIG31_TEXT
    assert [l.kind for l in fig31.links] == [RU, U, RD]
    assert fig31.start.instance == "supermarket2"
    assert fig31.end.belief == 0.9


def test_parse_accepts_direction_left_to_the_chain(kb, fig31):
    # Older renderings tag the final descent plain "role"; the chain
    # disambiguates it.
    legacy = FIG31_TEXT.replace("(role- shopping go-step go)",
                                "(role shopping go-step go)")
    assert parse_path(kb, legacy, beliefs=(0.9, 0.9)) == fig31


def test_equal_paths_hash_equal(kb, fig31):
    again = parse_path(kb, FIG31_TEXT, beliefs=(0.9, 0.9))
    assert again is not fig31
    assert again == fig31 and hash(again) == hash(fig31) and {fig31: 1}[again] == 1
    assert parse_path(kb, FIG31_TEXT) != fig31


def test_isa_only_path_is_invalid(kb):
    path = Path(start=Observation("supermarket2", "supermarket"),
                links=(kb.links["(isa supermarket store-)"],),
                end=Observation("store5", "store-"))
    assert not validate(path)


def test_structural_violation_raises_not_false(kb):
    bad = Path(start=Observation("go1", "go"),
               links=(kb.links["(isa supermarket store-)"],),
               end=Observation("store5", "store-"))
    with pytest.raises(PathError, match="departs from"):
        validate(bad)
    with pytest.raises(PathError, match="no links"):
        validate(Path(start=Observation("a", "go"), links=(),
                      end=Observation("b", "go")))


def test_reverse_of_fig31(kb, fig31):
    rev = reverse(kb, fig31)
    assert rev.render() == ("(inst go1 go)"
                            "(role shopping go-step go)"
                            "(isa- supermarket-shopping shopping)"
                            "(role- supermarket-shopping store-of supermarket)"
                            "(inst supermarket2 supermarket)")
    assert validate(rev)
    assert reverse(kb, rev) == fig31


def test_single_role_reverse(kb):
    path = parse_path(kb, "(inst s1 supermarket)"
                          "(role supermarket-shopping store-of supermarket)"
                          "(inst p1 supermarket-shopping)")
    assert [l.kind for l in reverse(kb, path).links] == [RD]


def test_reverse_properties_on_sampled_paths():
    pairs = sample_paths(seed=7, limit=100)
    assert len(pairs) >= 100
    for base, path in pairs:
        rev = reverse(base, path)
        assert validate(rev)  # the grammar is mirror-symmetric
        assert reverse(base, rev) == path


def test_parse_render_round_trip_on_sampled_paths():
    for base, path in sample_paths(seed=11, limit=80, beliefs=True):
        again = parse_path(base, path.render(),
                           beliefs=(path.start.belief, path.end.belief))
        assert again == path


@pytest.mark.parametrize("text,match", [
    ("(inst a supermarket)(role supermarket-shopping store-of supermarket)", "at least one link"),
    ("(isa supermarket store-)(inst a store-)(inst b store-)", "begin and end"),
    ("(inst a ghost)(isa supermarket store-)(inst b store-)", "unknown schema"),
    ("(inst a supermarket)(role shopping store-of supermarket)(inst b shopping)", "no role link"),
    ("(inst a supermarket)(isa supermarket shopping)(inst b shopping)", "no isa edge"),
    ("(inst a supermarket)(role shopping go-step go)(inst b go)", "does not chain"),
    ("(inst a supermarket)(frob x y)(inst b go)", "unknown link form"),
    ("(inst a supermarket", "unterminated"),
    # Errors of the whole walk are reported at its end (inst ...) form.
    ("(inst a supermarket)(role supermarket-shopping store-of supermarket)(inst b shopping)",
     r"^path ends at 'supermarket-shopping' but the end observation is typed "
     r"'shopping' \(at position 68\)$"),
    ("(inst a supermarket)(role supermarket-shopping store-of supermarket)"
     "(inst a supermarket-shopping)",
     r"^path endpoints must be distinct instances \(at position 68\)$"),
    ("(inst a supermarket)(isa supermarket store-)(inst b store-)",
     r"^link sequence violates the path validity grammar \(at position 44\)$"),
])
def test_parse_errors(kb, text, match):
    with pytest.raises(PathError, match=match):
        parse_path(kb, text)


def test_parse_errors_carry_position(kb):
    try:
        parse_path(kb, "(inst a supermarket)(frob x y)(inst b go)")
    except PathError as exc:
        assert exc.position == 20
    else:
        pytest.fail("expected PathError")


@pytest.mark.parametrize("old,new,position", [
    ("supermarket2", "gen-1", 0),
    ("go1", "gen-12", FIG31_TEXT.rindex("(inst")),
])
def test_reserved_fresh_names_are_rejected_at_their_form(kb, old, new, position):
    with pytest.raises(PathError, match=f"instance ID '{new}' is reserved") as info:
        parse_path(kb, FIG31_TEXT.replace(old, new))
    assert info.value.position == position


@pytest.mark.parametrize("name", ["gen-", "gen-1x", "xgen-1", "p1-gen-1"])
def test_names_outside_the_reserved_form_are_accepted(kb, name):
    assert parse_path(kb, FIG31_TEXT.replace("supermarket2", name)).start.instance == name


def test_readme_path_syntax_block_parses(kb, fig31):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Path syntax", 1)[1]
    block = section.split("```", 2)[1]
    assert ";" in block
    assert parse_path(kb, block, beliefs=(0.9, 0.9)) == fig31


class ReaderError(Exception):
    """A reader's syntax error; its args are (message, line, position)."""


def read_with_starts(text, error):
    """The package's reader, each form's items given with the line and
    position `form_start` finds for it, as the oracle gives them."""
    return [(items, *form_start(text, index))
            for index, items in enumerate(read_forms(text, error))]


def read_both(text):
    """What the package's reader and the token-by-token oracle make of
    ``text``: their forms, or their error's (message, line, position)."""
    outcomes = []
    for reader in (read_with_starts, read_forms_by_tokens):
        try:
            outcomes.append(reader(text, ReaderError))
        except ReaderError as exc:
            outcomes.append(exc.args)
    return outcomes


READER_WHITESPACE = ["\n", "\r", "\t", "\x0b", "\x1c", " ", "\u2028", "\u3000"]


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.text(alphabet=["(", ")", ";", *READER_WHITESPACE, "a", "b", "x"], max_size=60),
    st.lists(st.sampled_from(["(", ")", "(a b)", "(x)", "; c)\n", ";", "a", "\n",
                              "\r\n", " ", "\u2028", "\x1c"]),
             max_size=12).map("".join),
))
def test_reader_agrees_with_the_token_oracle(text):
    new, old = read_both(text)
    assert new == old


@pytest.mark.parametrize("text,expected", [
    ("(schema a ; note)\n :prior 0.5)", [(["schema", "a", ":prior", "0.5"], 1, 0)]),
    ("()", ("empty form", 1, 0)),
    ("(a)\n( ; c\n)", ("empty form", 2, 4)),
    ("(a)\n(b (c))", ("unterminated form", 2, 4)),
    ("(a)\n  )", ("expected '(' but found ')'", 2, 6)),
    ("(a) b", ("expected '(' but found 'b'", 1, 4)),
    ("(a)\n(b c", ("unterminated form", 2, 4)),
    ("(a)\n(b ; c)", ("unterminated form", 2, 4)),
    ("(a)\r\n(b c)\r\n; d\r\n(e)", [(["a"], 1, 0), (["b", "c"], 2, 5), (["e"], 4, 17)]),
    ("; only a comment", []),
    ("", []),
    ("(a ; (x\n b)", [(["a", "b"], 1, 0)]),
])
def test_reader_cases(text, expected):
    new, old = read_both(text)
    assert new == old == expected


def test_a_comment_inside_a_form_does_not_end_it():
    base = load_kb("(eq-prior 0.1)\n(schema a ; note)\n :prior 0.5)\n")
    assert base.prior("a") == 0.5
