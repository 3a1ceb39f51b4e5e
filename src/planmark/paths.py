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
re-typing.  The whole grammar compiles to a six-state DFA (`step`), small
enough to run inside the marker passer at every extension.

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
leave the direction to the reader.  ``;`` comments run to the end of the
line, as in the KB and stream formats, whose reader (`read_forms`) this
module shares.  Endpoint IDs of the form ``gen-<digits>`` are reserved for
the fresh instances of the path's translation.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

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


class LinkKind(enum.Enum):
    ROLE_UP = "role"
    ROLE_DOWN = "role-"
    ISA_UP = "isa"
    ISA_DOWN = "isa-"

    @property
    def is_role(self) -> bool:
        return self in (LinkKind.ROLE_UP, LinkKind.ROLE_DOWN)

    @property
    def flipped(self) -> "LinkKind":
        return _FLIP[self]


_FLIP = {
    LinkKind.ROLE_UP: LinkKind.ROLE_DOWN,
    LinkKind.ROLE_DOWN: LinkKind.ROLE_UP,
    LinkKind.ISA_UP: LinkKind.ISA_DOWN,
    LinkKind.ISA_DOWN: LinkKind.ISA_UP,
}

# Stable tie-break order for neighbor listings.
KIND_ORDER = {
    LinkKind.ISA_UP: 0,
    LinkKind.ISA_DOWN: 1,
    LinkKind.ROLE_UP: 2,
    LinkKind.ROLE_DOWN: 3,
}


@dataclass(frozen=True)
class TraversalLink:
    """One move of a walk.  Role kinds carry (filled, slot, filler); isa
    kinds carry (specific, general).  Unused fields stay empty."""

    kind: LinkKind
    filled: str = ""
    slot: str = ""
    filler: str = ""
    specific: str = ""
    general: str = ""

    @staticmethod
    def role_up(filled: str, slot: str, filler: str) -> "TraversalLink":
        return TraversalLink(LinkKind.ROLE_UP, filled=filled, slot=slot, filler=filler)

    @staticmethod
    def role_down(filled: str, slot: str, filler: str) -> "TraversalLink":
        return TraversalLink(LinkKind.ROLE_DOWN, filled=filled, slot=slot, filler=filler)

    @staticmethod
    def isa_up(specific: str, general: str) -> "TraversalLink":
        return TraversalLink(LinkKind.ISA_UP, specific=specific, general=general)

    @staticmethod
    def isa_down(specific: str, general: str) -> "TraversalLink":
        return TraversalLink(LinkKind.ISA_DOWN, specific=specific, general=general)

    @property
    def source(self) -> str:
        """Schema the move departs from."""
        if self.kind is LinkKind.ROLE_UP:
            return self.filler
        if self.kind is LinkKind.ROLE_DOWN:
            return self.filled
        if self.kind is LinkKind.ISA_UP:
            return self.specific
        return self.general

    @property
    def destination(self) -> str:
        """Schema the move arrives at."""
        if self.kind is LinkKind.ROLE_UP:
            return self.filled
        if self.kind is LinkKind.ROLE_DOWN:
            return self.filler
        if self.kind is LinkKind.ISA_UP:
            return self.general
        return self.specific

    def flip(self) -> "TraversalLink":
        """The same KB link traversed the other way."""
        return TraversalLink(self.kind.flipped, filled=self.filled, slot=self.slot,
                             filler=self.filler, specific=self.specific,
                             general=self.general)

    def render(self) -> str:
        if self.kind.is_role:
            return f"({self.kind.value} {self.filled} {self.slot} {self.filler})"
        return f"({self.kind.value} {self.specific} {self.general})"


class Phase(enum.Enum):
    NO_ROLE_YET = 0
    UP_PHASE = 1
    DOWN_PHASE = 2


@dataclass(frozen=True)
class ValidityState:
    """DFA state: which role phase the walk is in, plus whether the
    immediately preceding move was an IsaUp (plateau detection)."""

    phase: Phase = Phase.NO_ROLE_YET
    last_was_isa_up: bool = False


START_STATE = ValidityState()

ALL_STATES = tuple(
    ValidityState(phase, liu)
    for phase in Phase
    for liu in (False, True)
)


def step(state: ValidityState, link: TraversalLink | LinkKind) -> ValidityState | None:
    """Advance the validity DFA by one move; ``None`` means the prefix can
    never extend to a valid path (rejection is terminal)."""
    kind = link.kind if isinstance(link, TraversalLink) else link
    if kind is LinkKind.ISA_UP:
        return ValidityState(state.phase, True)
    if kind is LinkKind.ISA_DOWN:
        if state.last_was_isa_up:
            return None  # isa plateau
        return ValidityState(state.phase, False)
    if kind is LinkKind.ROLE_UP:
        if state.phase is Phase.DOWN_PHASE:
            return None  # slot-filler valley
        return ValidityState(Phase.UP_PHASE, False)
    return ValidityState(Phase.DOWN_PHASE, False)


def _seam_valid(state1: ValidityState, state2: ValidityState) -> bool:
    # Each trail is grammatical on its own, so only a pair of moves that
    # straddles the meeting point can break the grammar.
    if state1.last_was_isa_up and state2.last_was_isa_up:
        return False  # isa plateau: IsaUp, then the other trail's IsaUp flipped
    if state1.phase is Phase.DOWN_PHASE and state2.phase is Phase.DOWN_PHASE:
        return False  # slot-filler valley: a RoleDown, then a flipped RoleDown
    return not (state1.phase is Phase.NO_ROLE_YET
                and state2.phase is Phase.NO_ROLE_YET)  # no role link at all


# SEAM_VALID[s1, s2]: whether a trail that left the DFA in state s1, glued
# to the reversal of a trail that left it in state s2, is a valid path.
SEAM_VALID = {(s1, s2): _seam_valid(s1, s2)
              for s1 in ALL_STATES for s2 in ALL_STATES}


@dataclass(frozen=True)
class Path:
    """An alternating walk between two observations.  ``links`` run in
    travel order from ``start`` to ``end``."""

    start: "Observation"
    links: tuple[TraversalLink, ...]
    end: "Observation"

    def schemas(self) -> list[str]:
        """Schema at every position, start first (length = links + 1)."""
        seq = [self.start.schema]
        for link in self.links:
            seq.append(link.destination)
        return seq

    def role_count(self) -> int:
        return sum(1 for link in self.links if link.kind.is_role)

    def render(self) -> str:
        forms = [f"(inst {self.start.instance} {self.start.schema})"]
        forms.extend(link.render() for link in self.links)
        forms.append(f"(inst {self.end.instance} {self.end.schema})")
        return "".join(forms)


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
    state: ValidityState | None = START_STATE
    for link in path.links:
        state = step(state, link)
        if state is None:
            return False
    return state.phase is not Phase.NO_ROLE_YET


def reverse(path: Path) -> Path:
    """The same path read from the other end; an involution."""
    flipped = tuple(link.flip() for link in reversed(path.links))
    return Path(start=path.end, links=flipped, end=path.start)


# An atom, a parenthesis or a ';' comment running to the end of the line;
# whitespace between them is skipped.
_TOKEN_RE = re.compile(r";[^\n]*|[()]|[^\s();]+")

Form = tuple[list[str], int, int]


def read_forms(text: str,
               error: Callable[[str, int, int], Exception]) -> list[Form]:
    """The s-expression reader of the KB, stream and path formats: flat
    forms ``(head arg ...)`` with their 1-based line and the character
    position of their opening parenthesis; ``;`` comments run to the end
    of the line and nesting is not allowed.  A syntax error raises
    ``error(message, line, position)``."""
    tokens = [(m.group(), m.start()) for m in _TOKEN_RE.finditer(text)
              if m.group()[0] != ";"]
    forms: list[Form] = []
    line, counted = 1, 0
    i, n = 0, len(tokens)
    while i < n:
        tok, at = tokens[i]
        line += text.count("\n", counted, at)
        counted = at
        if tok != "(":
            raise error(f"expected '(' but found {tok!r}", line, at)
        j = i + 1
        while j < n and tokens[j][0] not in ("(", ")"):
            j += 1
        if j == n or tokens[j][0] != ")":
            raise error("unterminated form", line, at)
        if j == i + 1:
            raise error("empty form", line, at)
        forms.append(([item for item, _ in tokens[i + 1:j]], line, at))
        i = j + 1
    return forms


# The fresh instances of RS(P) are named gen-<j> when a path is translated
# on its own, so a path literal may not use that form for an endpoint.
_RESERVED_ID_RE = re.compile(r"gen-[0-9]+\Z")


def parse_path(kb: "KnowledgeBase", text: str,
               beliefs: tuple[float, float] = (1.0, 1.0)) -> Path:
    """Parse the canonical surface syntax back into a `Path`.

    Every link must name a role or isa edge that exists in ``kb`` and must
    chain onto the previous position.  Observation beliefs are not part of
    the surface form and are supplied separately.
    """
    from .kb import Observation

    forms = read_forms(text, PathError.from_reader)
    if len(forms) < 3:
        raise PathError("a path needs two (inst ...) forms and at least one link")
    head, _, head_at = forms[0]
    tail, _, tail_at = forms[-1]
    for items, at in ((head, head_at), (tail, tail_at)):
        if items[0] != "inst" or len(items) != 3:
            raise PathError("path must begin and end with (inst ID SCHEMA)", at)
        if _RESERVED_ID_RE.match(items[1]):
            raise PathError(f"instance ID {items[1]!r} is reserved: gen-<j> names "
                            "the fresh instances of a path", at)
    for belief in beliefs:
        if not 0.0 < belief <= 1.0:
            raise PathError(f"belief must be in (0,1], got {belief!r}")
    start = Observation(instance=head[1], schema=head[2], belief=beliefs[0])
    end = Observation(instance=tail[1], schema=tail[2], belief=beliefs[1])
    if start.schema not in kb.schemas:
        raise PathError(f"unknown schema {start.schema!r}", head_at)
    if end.schema not in kb.schemas:
        raise PathError(f"unknown schema {end.schema!r}", tail_at)

    links = []
    at_schema = start.schema
    for items, _, at in forms[1:-1]:
        tag = items[0]
        if tag in ("role", "role-"):
            if len(items) != 4:
                raise PathError("role link needs (role FILLED SLOT FILLER)", at)
            filled, slot, filler = items[1], items[2], items[3]
            if not kb.has_role(filled, slot, filler):
                raise PathError(f"no role link (role {filled} {slot} {filler})", at)
            up = TraversalLink.role_up(filled, slot, filler)
            down = TraversalLink.role_down(filled, slot, filler)
            tagged = up if tag == "role" else down
            other = down if tag == "role" else up
        elif tag in ("isa", "isa-"):
            if len(items) != 3:
                raise PathError("isa link needs (isa SPECIFIC GENERAL)", at)
            specific, general = items[1], items[2]
            if not kb.has_isa_edge(specific, general):
                raise PathError(f"no isa edge (isa {specific} {general})", at)
            up = TraversalLink.isa_up(specific, general)
            down = TraversalLink.isa_down(specific, general)
            tagged = up if tag == "isa" else down
            other = down if tag == "isa" else up
        else:
            raise PathError(f"unknown link form {tag!r}", at)
        # Prefer the tagged direction; fall back to the flipped reading when
        # only that one chains (legacy renderings leave direction implicit).
        if tagged.source == at_schema:
            link = tagged
        elif other.source == at_schema:
            link = other
        else:
            raise PathError(
                f"link does not chain: path is at {at_schema!r}", at)
        links.append(link)
        at_schema = link.destination

    path = Path(start=start, links=tuple(links), end=end)
    if not validate(path):
        raise PathError("link sequence violates the path validity grammar")
    return path

