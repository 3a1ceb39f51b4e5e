"""What a path asserts: its statement set and the relevant subset.

A path is read as a claim about how its two ends relate.  Walking it from
the start, each position is occupied by some instance: isa moves keep the
current instance and merely re-type it, while each role move hands off to
the instance on the other side of the slot.  Interior hand-offs introduce
fresh instances (``gen-1``, ``gen-2``, ... numbered by role link); the
final role hand-off lands on the end observation's own instance, so a path
with r role links mentions exactly r + 1 distinct instances.

The full statement set S(P) collects one ``(inst ...)`` statement per
(re-)typing plus one slot equality ``(= (slot owner) filler)`` per role
link, in derivation order.  The relevant subset RS(P) keeps every equality
but only one ``inst`` statement per instance, at its most specific
(relevant) type; the dropped retypings are implied by the retained ones
through the isa tree.

This module is the one place that decides what a path claims.  One flat
walk derives either set as a list, and the instance at each position is
read off the same walk: the grammar fixes the shape of each instance's isa
moves, so the walk can tell which typing is the relevant one without
consulting the isa tree.  RS(P) of a valid path runs along the spine, with
the start instance first, the end instance last and the fresh instances in
between, so its inst statements name every instance the path mentions, in
spine order.  Every fresh instance owns one of the path's slot equalities
(a fresh instance that only fills slots would sit in a slot-filler valley).
Statements are named tuples, so building one per step of the walk is
cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .paths import LinkKind, Path

# Reading a member off the Enum class costs several times a global read,
# so the walk compares each move's kind against these.
_ROLE_UP, _ISA_UP, _ISA_DOWN = LinkKind.ROLE_UP, LinkKind.ISA_UP, LinkKind.ISA_DOWN


class Inst(NamedTuple):
    instance: str
    schema: str

    def render(self) -> str:
        return f"(inst {self.instance} {self.schema})"


class SlotEq(NamedTuple):
    owner: str
    slot: str
    filler: str

    def render(self) -> str:
        return f"(= ({self.slot} {self.owner}) {self.filler})"


Statement = Inst | SlotEq


@dataclass(frozen=True)
class StatementSet:
    """Statements in derivation order (first occurrence wins)."""

    statements: tuple[Statement, ...]

    @property
    def insts(self) -> tuple[Inst, ...]:
        return tuple([s for s in self.statements if isinstance(s, Inst)])

    @property
    def eqs(self) -> tuple[SlotEq, ...]:
        return tuple([s for s in self.statements if isinstance(s, SlotEq)])

    def render(self) -> str:
        return "".join([s.render() for s in self.statements])


def _derive(path: Path, fresh_prefix: str, full: bool) -> list[Statement]:
    """Walk the path once: the statements of S(P) in derivation order, with
    repeats, when ``full``, else those of RS(P).

    Isa moves carry the instance forward; each role move hands off to a
    fresh instance, except the last role move of the path, which hands off
    to the end observation's instance (any trailing isa moves just re-type
    it).  The grammar leaves each instance's isa moves as a run of IsaDowns
    followed by a run of IsaUps (an IsaUp followed by an IsaDown is an isa
    plateau), so an instance's relevant type is the schema it arrived at,
    or the schema its last IsaDown landed on: the typing that no IsaDown
    follows, and that no IsaUp produced.  Each typing therefore waits for
    the next move before RS(P) keeps or drops it.
    """
    end = path.end
    roles = path.role_count()
    statements: list[Statement] = []
    # The instance at the current position, the schema it was just typed
    # as, and whether that typing can be its relevant one.
    instance, schema, relevant = path.start.instance, path.start.schema, True
    handed = 0
    for link in path.links:
        kind = link.kind
        if full or (relevant and kind is not _ISA_DOWN):
            statements.append(Inst(instance, schema))
        if kind.is_role:
            handed += 1
            arriving = f"{fresh_prefix}{handed}" if handed < roles else end.instance
            if kind is _ROLE_UP:
                # The arriving instance owns the slot; the instance we came
                # from fills it.
                statements.append(SlotEq(arriving, link.slot, instance))
                schema = link.filled
            else:
                statements.append(SlotEq(instance, link.slot, arriving))
                schema = link.filler
            instance, relevant = arriving, True
        elif kind is _ISA_UP:
            schema, relevant = link.general, False
        else:
            schema, relevant = link.specific, True
    if full:
        # A valid path has already typed its end instance as observed here.
        statements += (Inst(instance, schema), Inst(end.instance, end.schema))
    elif relevant:
        statements.append(Inst(instance, schema))
    return statements


def statements_of(path: Path, fresh_prefix: str = "gen-") -> StatementSet:
    """S(P): every typing and slot equality the path asserts."""
    statements = _derive(path, fresh_prefix, full=True)
    return StatementSet(statements=tuple(dict.fromkeys(statements)))


def relevant_statements(path: Path, fresh_prefix: str = "gen-") -> StatementSet:
    """RS(P) of a valid path: every slot equality and one inst statement per
    instance at its relevant type, in S(P) order.  That order runs along
    the spine: start instance, first equality, first fresh instance, ...,
    last equality, end instance."""
    return StatementSet(statements=tuple(_derive(path, fresh_prefix, full=False)))
