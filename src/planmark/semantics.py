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
"""

from __future__ import annotations

from dataclasses import dataclass

from .kb import KnowledgeBase
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
        return tuple(s for s in self.statements if isinstance(s, Inst))

    @property
    def eqs(self) -> tuple[SlotEq, ...]:
        return tuple(s for s in self.statements if isinstance(s, SlotEq))

    def instances(self) -> list[str]:
        seen: dict[str, None] = {}
        for inst in self.insts:
            seen.setdefault(inst.instance, None)
        return list(seen)

    def types_of(self, instance: str) -> list[str]:
        return [s.schema for s in self.insts if s.instance == instance]

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


def statements_of(path: Path, fresh_prefix: str = "gen-") -> StatementSet:
    """S(P): every typing and slot equality the path asserts."""
    trace = relevant_instance_trace(path, fresh_prefix)
    statements: dict[Statement, None] = {}

    def add(statement: Statement) -> None:
        statements.setdefault(statement, None)

    add(Inst(path.start.instance, path.start.schema))
    for i, link in enumerate(path.links):
        arriving = trace[i + 1]
        if link.kind is LinkKind.ROLE_UP:
            # The arriving instance owns the slot; the instance we came
            # from fills it.
            add(SlotEq(arriving, link.slot, trace[i]))
            add(Inst(arriving, link.filled))
        elif link.kind is LinkKind.ROLE_DOWN:
            add(SlotEq(trace[i], link.slot, arriving))
            add(Inst(arriving, link.filler))
        else:
            other = link.general if link.kind is LinkKind.ISA_UP else link.specific
            add(Inst(arriving, other))
    add(Inst(path.end.instance, path.end.schema))

    fresh = tuple(f"{fresh_prefix}{k}" for k in range(1, 1 + _fresh_count(path)))
    return StatementSet(statements=tuple(statements), fresh=fresh)


def _fresh_count(path: Path) -> int:
    return max(path.role_count() - 1, 0)


def relevant_type(instance: str, sset: StatementSet, kb: KnowledgeBase) -> str:
    """RT(i): the most specific type the statement set gives ``instance``."""
    types = sset.types_of(instance)
    if not types:
        raise ValueError(f"no inst statement for {instance!r}")
    return _most_specific(kb, instance, types)


def _most_specific(kb: KnowledgeBase, instance: str, types: list[str]) -> str:
    best = types[0]
    for t in types[1:]:
        if t == best or kb.isa_star(t, best):
            best = t
        elif not kb.isa_star(best, t):
            raise ValueError(
                f"types of {instance!r} are not on one isa chain: {best!r}, {t!r}")
    return best


def relevant_statements(kb: KnowledgeBase, path: Path,
                        fresh_prefix: str = "gen-") -> StatementSet:
    """RS(P): all slot equalities, one inst statement per instance at its
    relevant type, in S(P) order."""
    full = statements_of(path, fresh_prefix)
    types: dict[str, list[str]] = {}
    for s in full.statements:
        if isinstance(s, Inst):
            types.setdefault(s.instance, []).append(s.schema)
    rts = {i: _most_specific(kb, i, ts) for i, ts in types.items()}
    kept = tuple(
        s for s in full.statements
        if isinstance(s, SlotEq) or rts[s.instance] == s.schema
    )
    return StatementSet(statements=kept, fresh=full.fresh)
