"""Traversal paths between two observed instances, and their validity grammar.

A path records how a walk through the schema network got from one observed
instance to another.  Links are normalized to the direction of travel:

* ``RoleUp``   -- from a slot's filler schema up into the schema that owns
  the slot ("this store is the store-of *some shopping trip*"),
* ``RoleDown`` -- from a slot's owner down into the filler schema,
* ``IsaUp``    -- from a schema to its isa parent,
* ``IsaDown``  -- from a schema to one of its isa children.

Not every walk is worth interpreting.  Two step pairs are banned outright:
generalizing and then immediately re-specializing (an "isa plateau" -- the
two sides land in disjoint sibling sets and cannot support each other), and
descending into a filler and later climbing into another owner (a
"slot-filler valley" -- nothing ever observes the shared filler).  A walk
must also cross at least one role link, otherwise it claims nothing beyond
re-typing.  The whole grammar compiles to a six-state DFA whose states are
the ints 0-5: a 6x4 table `STEP` advances it by one move, and a 6x6 table
`SEAM_VALID` says whether two trails glued end to end form a valid path.
Both are plain tuple lookups, cheap enough for the marker passer to run at
every extension and every meeting.  Links hash by identity and link
kinds as their ints, so paths and their links hash without calling
Python code.

Surface syntax, used everywhere a path is printed or parsed::

    (inst supermarket2 supermarket)
    (role supermarket-shopping store-of supermarket)   ; RoleUp
    (isa supermarket-shopping shopping)                ; IsaUp
    (role- shopping go-step go)                        ; RoleDown
    (inst go1 go)

``role``/``isa`` name the upward kinds and ``role-``/``isa-`` the downward
ones, always with arguments in declaration order: ``(role FILLED SLOT
FILLER)`` and ``(isa SPECIFIC GENERAL)``.  The parser also accepts a
link whose tag points the wrong way when the chain of schemas makes the
intended direction unambiguous, since older renderings of the same paths
leave the direction to the reader.  A path's links are the base's own
link objects: `parse_path` looks each link form up by its text in the
base's link table, and `Path.render` joins the links' stored texts.
``;`` comments run to the end of the line, as in the KB and stream
formats, whose reader (`read_forms`) this module shares.  Endpoint IDs
of the form ``gen-<digits>`` are reserved for the fresh instances of the
path's translation.
"""

from __future__ import annotations

import enum
import itertools
import re
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

if TYPE_CHECKING:  # pragma: no cover
    from .kb import KnowledgeBase, Observation


class PathError(Exception):
    """A path is malformed: bad surface syntax, broken chaining, or an
    unknown KB link.  Carries a character ``position`` when parsing."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position

    @classmethod
    def from_reader(cls, message: str, line: int, position: int) -> "PathError":
        """`read_forms` syntax error: path literals report positions."""
        return cls(message, position)


class LinkKind(enum.IntEnum):
    """The four move kinds.  A kind's value is its column in the `STEP`
    table and its tie-break rank in neighbor listings; each up kind sits
    beside its down kind.  ``tag`` is its surface tag and ``is_role``
    whether it crosses a slot.  Link text is written from ``tag``, never
    by formatting the member, whose `str` differs across Python versions."""

    ISA_UP = 0
    ISA_DOWN = 1
    ROLE_UP = 2
    ROLE_DOWN = 3

    def __init__(self, value: int):
        self.tag = ("isa", "isa-", "role", "role-")[value]
        self.is_role = value >= 2


class TraversalLink:
    """One direction of one KB link: the base's link table entry itself.

    ``kind`` is the direction, ``slot`` and ``filler`` the slot's name and
    declared filler type for role kinds (empty for isa kinds), ``source``
    and ``destination`` the schemas the move leaves and reaches,
    ``multiplier`` its factor in the spinal contribution, ``twin`` the
    same KB link walked the other way and ``text`` its surface form, with
    the link's names in declaration order.  Only `load_kb` builds links,
    one object per direction, so links compare and hash by identity, in C."""

    __slots__ = ("kind", "slot", "filler", "source", "destination",
                 "multiplier", "twin", "text")

    def __init__(self, kind: LinkKind, slot: str, filler: str, source: str,
                 destination: str, multiplier: float, text: str):
        self.kind = kind
        self.slot = slot
        self.filler = filler
        self.source = source
        self.destination = destination
        self.multiplier = multiplier
        self.text = text

    def __repr__(self) -> str:
        return f"TraversalLink{self.text}"


# DFA states are the ints 0-5: twice the role phase, plus one when the
# last move was an IsaUp (plateau detection).  The phase is 0 before any
# role link, 1 while the walk climbs roles and 2 once it has descended one.
_NO_ROLE_YET, _UP_PHASE, _DOWN_PHASE = 0, 1, 2

START_STATE = 0
ALL_STATES = tuple(range(6))


def _next_state(state: int, kind: LinkKind) -> int | None:
    phase, last_was_isa_up = divmod(state, 2)
    if kind is LinkKind.ISA_UP:
        return 2 * phase + 1
    if kind is LinkKind.ISA_DOWN:
        return None if last_was_isa_up else 2 * phase  # isa plateau
    if kind is LinkKind.ROLE_UP:
        return None if phase == _DOWN_PHASE else 2 * _UP_PHASE  # slot-filler valley
    return 2 * _DOWN_PHASE


# STEP[state][kind]: the state after one more move, or None when the
# prefix can never extend to a valid path (rejection is terminal).
STEP = tuple(tuple(_next_state(state, kind) for kind in LinkKind)
             for state in ALL_STATES)


def _seam_valid(state1: int, state2: int) -> bool:
    # Each trail is grammatical on its own, so only a pair of moves that
    # straddles the meeting point can break the grammar.
    (phase1, isa_up1), (phase2, isa_up2) = divmod(state1, 2), divmod(state2, 2)
    if isa_up1 and isa_up2:
        return False  # isa plateau: IsaUp, then the other trail's IsaUp flipped
    if phase1 == phase2 == _DOWN_PHASE:
        return False  # slot-filler valley: a RoleDown, then a flipped RoleDown
    return not phase1 == phase2 == _NO_ROLE_YET  # no role link at all


# SEAM_VALID[s1][s2]: whether a trail that left the DFA in state s1, glued
# to the reversal of a trail that left it in state s2, is a valid path.
# The table is symmetric, so it does not matter which trail comes first.
SEAM_VALID = tuple(tuple(_seam_valid(s1, s2) for s2 in ALL_STATES)
                   for s1 in ALL_STATES)


class Path(NamedTuple):
    """An alternating walk between two observations.  ``links`` run in
    travel order from ``start`` to ``end``."""

    start: "Observation"
    links: tuple[TraversalLink, ...]
    end: "Observation"

    def role_count(self) -> int:
        return len([link for link in self.links if link.kind.is_role])

    def render(self) -> str:
        start, end = self.start, self.end
        return (f"(inst {start.instance} {start.schema})"
                f"{''.join([link.text for link in self.links])}"
                f"(inst {end.instance} {end.schema})")


def _check_structure(path: Path) -> None:
    if not path.links:
        raise PathError("path has no links")
    if path.start.instance == path.end.instance:
        raise PathError("path endpoints must be distinct instances")
    at = path.start.schema
    for i, link in enumerate(path.links):
        if link.source != at:
            raise PathError(
                f"link {i + 1} departs from {link.source!r} but the path is at {at!r}")
        at = link.destination
    if at != path.end.schema:
        raise PathError(
            f"path ends at {at!r} but the end observation is typed {path.end.schema!r}")


def validate(path: Path) -> bool:
    """True iff the path's link sequence is grammatical: the DFA never
    rejects and at least one role link occurs.  Broken chaining or empty
    link lists raise `PathError` instead of returning False."""
    _check_structure(path)
    state: int | None = START_STATE
    for link in path.links:
        state = STEP[state][link.kind]
        if state is None:
            return False
    return state // 2 != _NO_ROLE_YET


# A form with at least one item, once comments are cut out: group 1 is
# the text between its parentheses after any leading whitespace.
# Splitting a text on it leaves the forms' bodies at the odd indices and
# what lies outside them at the even ones.
_FORM_RE = re.compile(r"\(\s*([^\s()][^()]*)\)")

_COMMENT_RE = re.compile(r";[^\n]*")

# An atom, a parenthesis or a ';' comment running to the end of the line;
# whitespace between them is skipped.
_TOKEN_RE = re.compile(r";[^\n]*|[()]|[^\s();]+")


def read_forms(text: str,
               error: Callable[[str, int, int], Exception]) -> Iterator[list[str]]:
    """The s-expression reader of the KB, stream and path formats: the
    items of each flat form ``(head arg ...)``, in order; ``;`` comments
    run to the end of the line and nesting is not allowed.  A syntax error
    raises ``error(message, line, position)``, with the 1-based line and
    the character position of the token at fault.

    The comments are cut out and the text is split into forms in one
    regex pass, which checks the whole text; only an error reads it again,
    token by token.  Each form is split on whitespace as the caller takes
    it, so one form's list is alive at a time.  Where a form starts is
    found by `form_start`, when a caller reports a problem with it."""
    source = text
    if ";" in text:
        text = _COMMENT_RE.sub("", text)
    parts = _FORM_RE.split(text)
    outside = "".join(parts[::2])
    if outside and not outside.isspace():
        raise _syntax_error(source, error)
    return map(str.split, parts[1::2])


def _line(text: str, at: int) -> int:
    return text.count("\n", 0, at) + 1


def _syntax_error(text: str, error: Callable[[str, int, int], Exception]) -> Exception:
    # The first problem a token-by-token reading of a malformed text meets.
    at = None  # where the open form's '(' is
    empty = True
    for match in _TOKEN_RE.finditer(text):
        tok = match.group()
        if tok[0] == ";":
            continue
        if at is None:
            at = match.start()
            if tok != "(":
                return error(f"expected '(' but found {tok!r}", _line(text, at), at)
            empty = True
        elif tok == ")":
            if empty:
                return error("empty form", _line(text, at), at)
            at = None
        elif tok == "(":
            break
        else:
            empty = False
    return error("unterminated form", _line(text, at), at)


def form_start(text: str, index: int) -> tuple[int, int]:
    """The 1-based line and the position of the opening parenthesis of
    form ``index`` of a text that `read_forms` read without error."""
    opens = (match.start() for match in _TOKEN_RE.finditer(text)
             if match.group() == "(")
    at = next(itertools.islice(opens, index, None))
    return _line(text, at), at


# The fresh instances of RS(P) are named gen-<j> when a path is translated
# on its own, so a path literal may not use that form for an endpoint.
_RESERVED_ID_RE = re.compile(r"gen-[0-9]+\Z")

# A path literal's link forms, by the tags link text is written from.
_KIND_OF_TAG = {kind.tag: kind for kind in LinkKind}


def parse_path(kb: "KnowledgeBase", text: str,
               beliefs: tuple[float, float] = (1.0, 1.0)) -> Path:
    """Parse the canonical surface syntax back into a `Path`.

    Every link must name a role or isa edge in ``kb``'s link table and
    must chain onto the previous position.  Observation beliefs are not
    part of the surface form and are supplied separately, and checked by
    `KnowledgeBase.check_observation` like a stream observation's.
    """
    from .kb import KbError, Observation

    forms = list(read_forms(text, PathError.from_reader))
    last = len(forms) - 1
    if last < 2:
        raise PathError("a path needs two (inst ...) forms and at least one link")

    def at(index: int) -> int:
        return form_start(text, index)[1]

    head, tail = forms[0], forms[last]
    for items, index in ((head, 0), (tail, last)):
        if items[0] != "inst" or len(items) != 3:
            raise PathError("path must begin and end with (inst ID SCHEMA)", at(index))
        if _RESERVED_ID_RE.match(items[1]):
            raise PathError(f"instance ID {items[1]!r} is reserved: gen-<j> names "
                            "the fresh instances of a path", at(index))
    start = Observation(instance=head[1], schema=head[2], belief=beliefs[0])
    end = Observation(instance=tail[1], schema=tail[2], belief=beliefs[1])
    for obs, index in ((start, 0), (end, last)):
        try:
            kb.check_observation(obs)
        except (KbError, ValueError) as exc:
            raise PathError(str(exc), at(index)) from None

    links = []
    at_schema = start.schema
    for index in range(1, last):
        items = forms[index]
        kind = _KIND_OF_TAG.get(items[0])
        if kind is None:
            raise PathError(f"unknown link form {items[0]!r}", at(index))
        if kind.is_role:
            if len(items) != 4:
                raise PathError("role link needs (role FILLED SLOT FILLER)", at(index))
            missing = "no role link (role"
        else:
            if len(items) != 3:
                raise PathError("isa link needs (isa SPECIFIC GENERAL)", at(index))
            missing = "no isa edge (isa"
        link = kb.links.get(f"({' '.join(items)})")
        if link is None:
            raise PathError(f"{missing} {' '.join(items[1:])})", at(index))
        # Prefer the tagged direction; fall back to the flipped reading when
        # only that one chains (legacy renderings leave direction implicit).
        if link.source != at_schema:
            link = link.twin
            if link.source != at_schema:
                raise PathError(
                    f"link does not chain: path is at {at_schema!r}", at(index))
        links.append(link)
        at_schema = link.destination

    # Chaining and grammar are properties of the whole walk; name its end.
    path = Path(start=start, links=tuple(links), end=end)
    try:
        valid = validate(path)
    except PathError as exc:
        raise PathError(str(exc), at(last)) from None
    if not valid:
        raise PathError("link sequence violates the path validity grammar", at(last))
    return path

