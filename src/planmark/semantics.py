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

This module is the one place that decides what a path claims.  Each set
has one walk, and the instance at each position is read off it: the
grammar fixes the shape of each instance's isa moves, so the RS(P) walk
can tell which typing is the relevant one without consulting the isa
tree.  RS(P) of a valid path runs along the spine, with the start
instance first, the end instance last and the fresh instances in between,
so its inst statements name every instance the path mentions, in spine
order, and role link k joins instances k and k+1.  Every fresh instance
owns one of the path's slot equalities (a fresh instance that only fills
slots would sit in a slot-filler valley).

S(P) is a tuple of statements in derivation order, for the single-path
commands and the tests.  RS(P) is a `RelevantStatements`, which holds
only what a run reads of every path it reports, most of which the
evidence filter rejects: the text the report prints, each instance's
name and relevant type in spine order, and the path's role links, which
give each equality's slot, filler type and owner.  Its statements are
built when read, for the single-path commands and the tests, which pick
the inst statements and equalities out of them.
"""

from __future__ import annotations

from typing import NamedTuple

from .paths import LinkKind, Path, TraversalLink

# Reading a member off the Enum class costs several times a global read,
# so the walk compares each move's kind against these.
_ROLE_UP, _ISA_DOWN = LinkKind.ROLE_UP, LinkKind.ISA_DOWN

# A named tuple's constructor is a Python function around this one.
_new = tuple.__new__


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


class RelevantStatements(NamedTuple):
    """RS(P) as a run reads it: its text, each instance's name and relevant
    type in spine order, and the path's role links in travel order (role k
    joins instances k and k+1).  Its statements are built only when read."""

    text: str
    names: tuple[str, ...]
    types: tuple[str, ...]
    roles: tuple[TraversalLink, ...]

    @property
    def statements(self) -> tuple[Statement, ...]:
        names, types = self.names, self.types
        statements = [Inst(names[0], types[0])]
        for k, link in enumerate(self.roles):
            # A RoleUp's arriving instance owns the slot that the instance
            # it came from fills; a RoleDown's is the filler.
            here, there = names[k], names[k + 1]
            owner, filler = (there, here) if link.kind is _ROLE_UP else (here, there)
            statements += (SlotEq(owner, link.slot, filler), Inst(there, types[k + 1]))
        return tuple(statements)


def statements_of(path: Path, fresh_prefix: str = "gen-") -> tuple[Statement, ...]:
    """S(P): every typing and slot equality the path asserts, in derivation
    order, the first occurrence of each kept.  Isa moves carry the
    instance forward and re-type it; each role move hands off to a fresh
    instance, except the last role move of the path, which hands off to
    the end observation's instance."""
    end = path.end
    last = path.role_count()
    statements: list[Statement] = []
    instance, schema = path.start.instance, path.start.schema
    handed = 0
    for link in path.links:
        statements.append(Inst(instance, schema))
        if link.kind.is_role:
            handed += 1
            arriving = f"{fresh_prefix}{handed}" if handed < last else end.instance
            if link.kind is _ROLE_UP:
                statements.append(SlotEq(arriving, link.slot, instance))
            else:
                statements.append(SlotEq(instance, link.slot, arriving))
            instance = arriving
        schema = link.destination
    # A valid path has already typed its end instance as observed here.
    statements += (Inst(instance, schema), Inst(end.instance, end.schema))
    return tuple(dict.fromkeys(statements))


def relevant_statements(path: Path, fresh_prefix: str = "gen-") -> RelevantStatements:
    """RS(P) of a valid path in one walk: every slot equality and one inst
    statement per instance at its relevant type, in S(P) order.  That order
    runs along the spine: start instance, first equality, first fresh
    instance, ..., last equality, end instance.

    The grammar leaves each instance's isa moves as a run of IsaDowns
    followed by a run of IsaUps (an IsaUp followed by an IsaDown is an isa
    plateau), so an instance's relevant type is the schema it arrived at,
    or the schema its last IsaDown landed on: the typing that no IsaDown
    follows, and that no IsaUp produced.  Each typing therefore waits for
    the next move before RS(P) keeps or drops it."""
    links, end = path.links, path.end
    roles = tuple([link for link in links if link.kind.is_role])
    last = len(roles)
    names = [path.start.instance]
    types: list[str] = []
    texts: list[str] = []
    # The instance at the current position, the schema it was just typed
    # as, and whether that typing can be its relevant one.
    instance, schema, relevant = names[0], path.start.schema, True
    for link in links:
        kind = link.kind
        if relevant and kind is not _ISA_DOWN:
            types.append(schema)
            texts.append(f"(inst {instance} {schema})")
        if kind.is_role:
            # Instance j of the spine is fresh, except the last, the end's.
            j = len(names)
            arriving = f"{fresh_prefix}{j}" if j < last else end.instance
            names.append(arriving)
            if kind is _ROLE_UP:
                texts.append(f"(= ({link.slot} {arriving}) {instance})")
            else:
                texts.append(f"(= ({link.slot} {instance}) {arriving})")
            instance, relevant = arriving, True
        else:
            relevant = kind is _ISA_DOWN
        schema = link.destination
    if relevant:
        types.append(schema)
        texts.append(f"(inst {instance} {schema})")
    return _new(RelevantStatements, ("".join(texts), tuple(names), tuple(types), roles))
