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

This module is the one place that decides what a path claims.  One walk
derives both sets: the grammar fixes the shape of each instance's isa
moves, so the walk can tell which typing is the relevant one without
consulting the isa tree.  RS(P) of a valid path runs along the spine, with
the start instance first, the end instance last and the fresh instances in
between, and every fresh instance owns one of the path's slot equalities
(a fresh instance that only fills slots would sit in a slot-filler valley).
"""

from __future__ import annotations

from dataclasses import dataclass

from .paths import LinkKind, Path


@dataclass(frozen=True)
class Inst:
    instance: str
    schema: str

    def render(self) -> str:
        return f"(inst {self.instance} {self.schema})"


@dataclass(frozen=True)
class SlotEq:
    owner: str
    slot: str
    filler: str

    def render(self) -> str:
        return f"(= ({self.slot} {self.owner}) {self.filler})"


Statement = Inst | SlotEq


@dataclass(frozen=True)
class StatementSet:
    """Statements in derivation order (first occurrence wins), plus the
    fresh instance identifiers the derivation introduced."""

    statements: tuple[Statement, ...]
    fresh: tuple[str, ...]

    @property
    def insts(self) -> tuple[Inst, ...]:
        return tuple([s for s in self.statements if isinstance(s, Inst)])

    @property
    def eqs(self) -> tuple[SlotEq, ...]:
        return tuple([s for s in self.statements if isinstance(s, SlotEq)])

    def render(self) -> str:
        return "".join(s.render() for s in self.statements)


def relevant_instance_trace(path: Path, fresh_prefix: str = "gen-") -> list[str]:
    """Instance occupying each path position, start first.

    Isa moves carry the instance forward; each role move hands off to a
    fresh instance, except the last role move of the path, which hands off
    to the end observation's instance (any trailing isa moves just re-type
    it).
    """
    role_positions = [i for i, link in enumerate(path.links)
                      if link.kind.is_role]
    last_role = role_positions[-1] if role_positions else None
    trace = [path.start.instance]
    current = path.start.instance
    counter = 0
    for i, link in enumerate(path.links):
        if link.kind.is_role:
            if i == last_role:
                current = path.end.instance
            else:
                counter += 1
                current = f"{fresh_prefix}{counter}"
        trace.append(current)
    return trace


def _derive(path: Path, fresh_prefix: str):
    """Walk the path once: every statement of S(P) in derivation order, each
    paired with whether RS(P) keeps it.

    The grammar leaves each instance's isa moves as a run of IsaDowns
    followed by a run of IsaUps (an IsaUp followed by an IsaDown is an isa
    plateau), so an instance's relevant type is the schema it arrived at,
    or the schema its last IsaDown landed on: the typing that no IsaDown
    follows, and that no IsaUp produced.
    """
    trace = relevant_instance_trace(path, fresh_prefix)
    kinds = [link.kind for link in path.links] + [None]
    yield Inst(path.start.instance, path.start.schema), kinds[0] is not LinkKind.ISA_DOWN
    for i, link in enumerate(path.links):
        arriving = trace[i + 1]
        relevant = kinds[i + 1] is not LinkKind.ISA_DOWN
        if link.kind is LinkKind.ROLE_UP:
            # The arriving instance owns the slot; the instance we came
            # from fills it.
            yield SlotEq(arriving, link.slot, trace[i]), True
            yield Inst(arriving, link.filled), relevant
        elif link.kind is LinkKind.ROLE_DOWN:
            yield SlotEq(trace[i], link.slot, arriving), True
            yield Inst(arriving, link.filler), relevant
        elif link.kind is LinkKind.ISA_UP:
            yield Inst(arriving, link.general), False
        else:
            yield Inst(arriving, link.specific), relevant
    # A valid path has already typed its end instance as observed here.
    yield Inst(path.end.instance, path.end.schema), False


def _fresh(path: Path, fresh_prefix: str) -> tuple[str, ...]:
    return tuple([f"{fresh_prefix}{k}" for k in range(1, path.role_count())])


def statements_of(path: Path, fresh_prefix: str = "gen-") -> StatementSet:
    """S(P): every typing and slot equality the path asserts."""
    statements = dict.fromkeys(s for s, _ in _derive(path, fresh_prefix))
    return StatementSet(statements=tuple(statements),
                        fresh=_fresh(path, fresh_prefix))


def relevant_statements(path: Path, fresh_prefix: str = "gen-") -> StatementSet:
    """RS(P) of a valid path: every slot equality and one inst statement per
    instance at its relevant type, in S(P) order.  That order runs along
    the spine: start instance, first equality, first fresh instance, ...,
    last equality, end instance."""
    kept = tuple([s for s, relevant in _derive(path, fresh_prefix) if relevant])
    return StatementSet(statements=kept, fresh=_fresh(path, fresh_prefix))
