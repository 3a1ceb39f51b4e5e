"""What a path asserts: its statement set and the relevant subset.

A path is read as a claim about how its two ends relate.  Walking it from
the start, each position is occupied by some instance: isa moves keep the
current instance and merely re-type it, while each role move hands off to
the instance on the other side of the slot and asserts one slot equality
``(= (slot owner) filler)`` between the two; the kind's ``owner_side``
says which of them owns the slot.  Interior hand-offs introduce fresh
instances (``gen-1``, ``gen-2``, ... numbered by role link); the final
role hand-off lands on the end observation's own instance, so a path with
r role links mentions exactly r + 1 distinct instances.

The full statement set S(P) collects one ``(inst ...)`` statement per
(re-)typing plus every slot equality, in derivation order, the first
occurrence of each kept.  The relevant subset RS(P) keeps every equality
but only one ``inst`` statement per instance, at its most specific
(relevant) type; the dropped retypings are implied by the retained ones
through the isa tree.

This module is the one place that decides what a path claims.  One walk
(`_walker`) names the instances and writes each statement as its text,
``(inst instance schema)`` or ``(= (slot owner) filler)``, choosing each
equality's owner as it goes; the two sets differ only in the typings it
keeps.  The grammar fixes the shape of each instance's isa moves, so the
walk tells the relevant typing without consulting the isa tree.  RS(P)
of a valid path runs along the spine, with the start instance first, the
end instance last and the fresh instances in between, so role link k
joins instances k and k+1.  Every fresh instance owns one of the path's
slot equalities (a fresh instance that only fills slots would sit in a
slot-filler valley).

S(P) is a tuple of statement texts, for the single-path commands and the
tests.  RS(P) is a `RelevantStatements`, which holds only what a run
reads of every path it reports, most of which the evidence filter
rejects: its statement texts, which the report prints joined, each
instance's name and relevant type in spine order, and the path's role
links, which give each equality's slot, filler type and owner.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .paths import LinkKind, Path, TraversalLink

# A named tuple's constructor is a Python function around this one.
_new = tuple.__new__


class RelevantStatements(NamedTuple):
    """RS(P) as a run reads it: its statements' texts in S(P) order, each
    instance's name and relevant type in spine order, and the path's role
    links in travel order (role k joins instances k and k+1)."""

    statements: tuple[str, ...]
    names: tuple[str, ...]
    types: tuple[str, ...]
    roles: tuple[TraversalLink, ...]


def _walker(refines: LinkKind | None,
            widens: LinkKind | None) -> Callable[[Path, str], RelevantStatements]:
    """The walk that holds back a typing the next move ``refines`` and
    drops one a ``widens`` move made; with neither it keeps every typing.
    The rule is fixed per walk, so a run's walk makes no choice per call."""

    def walk(path: Path, fresh_prefix: str = "gen-") -> RelevantStatements:
        """A valid path's statements, spine instances, kept typings and
        role links, its fresh instances named ``fresh_prefix`` and a number."""
        links, end = path.links, path.end
        roles = tuple([link for link in links if link.kind.is_role])
        last = len(roles)
        names = [path.start.instance]
        types: list[str] = []
        texts: list[str] = []
        # The instance at the current position, the schema it was just
        # typed as, and whether that typing can be kept.
        instance, schema, keep = names[0], path.start.schema, True
        for link in links:
            kind = link.kind
            if keep and kind is not refines:
                types.append(schema)
                texts.append(f"(inst {instance} {schema})")
            side = kind.owner_side  # None for an isa move
            if side is None:
                keep = kind is not widens
            else:
                # Instance j of the spine is fresh, except the last, the end's.
                j = len(names)
                arriving = f"{fresh_prefix}{j}" if j < last else end.instance
                names.append(arriving)
                if side:
                    texts.append(f"(= ({link.slot} {arriving}) {instance})")
                else:
                    texts.append(f"(= ({link.slot} {instance}) {arriving})")
                instance, keep = arriving, True
            schema = link.destination
        if keep:
            types.append(schema)
            texts.append(f"(inst {instance} {schema})")
        return _new(RelevantStatements, (tuple(texts), tuple(names), tuple(types), roles))
    return walk


# RS(P): the grammar leaves each instance's isa moves as a run of IsaDowns
# followed by a run of IsaUps (an IsaUp followed by an IsaDown is an isa
# plateau), so an instance's relevant type is the schema it arrived at, or
# the one its last IsaDown landed on: the typing that no IsaDown follows,
# and that no IsaUp made.  Its walk keeps one typing per instance, in S(P)
# order, which runs along the spine: start instance, first equality, first
# fresh instance, ..., last equality, end instance.
relevant_statements = _walker(LinkKind.ISA_DOWN, LinkKind.ISA_UP)
# Its module attribute, so pickle and tracebacks find it under its name.
relevant_statements.__name__ = relevant_statements.__qualname__ = "relevant_statements"
_every_typing = _walker(None, None)


def statements_of(path: Path, fresh_prefix: str = "gen-") -> tuple[str, ...]:
    """S(P) of a valid path: every typing and slot equality it asserts, in
    derivation order, the first occurrence of each kept."""
    return tuple(dict.fromkeys(_every_typing(path, fresh_prefix).statements))
