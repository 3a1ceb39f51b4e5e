"""Schema knowledge base: an isa tree with role links and prior probabilities.

A schema describes a class of entities (a plan or an object type) and is
read set-theoretically: asserting ``(inst go1 go)`` asserts that ``go1`` is
an element of the ``go`` set.  Schemas nest by subset along ``isa`` links,
which are restricted to a tree, so the immediate children of any parent are
disjoint.  ``(role shopping go-step go)`` declares a slot: whatever fills
``go-step`` of a ``shopping`` instance is a ``go`` instance.

Each schema carries a prior probability (the share of explanations in which
it appears), and the base carries one global equality prior ``p(==)``: the
prior probability that two arbitrary things are the same thing.  Priors
obey the subset structure: a child's prior never exceeds its parent's, and
the immediate children of a parent sum to at most the parent.  ``p(==)``
never exceeds the prior of a type that fills a slot.

Textual format (UTF-8 s-expressions, ``;`` comments, order-insensitive,
forward references allowed)::

    (eq-prior 0.001)
    (schema store- :prior 0.05)
    (schema supermarket :isa store- :prior 0.01)
    (role supermarket-shopping store-of supermarket)

Loading also builds the base's link table, `KnowledgeBase.links`: each
role and isa link, in both directions, is one `TraversalLink` keyed by its
text, which carries where it leaves and arrives, the link kind's column in
the DFA step table, the link's spinal-contribution multiplier and the same
link walked the other way, its twin.  `_build_adjacency` is the one place
those multipliers are defined; the marker passer folds them into half and
whole-path scores, path parsing looks links up in the table, a path's text
joins theirs, and the adjacency the marker spreads over lists the same
links by the schema they leave.  Two flat tables serve the per-path work
after the marker: `priors` (name to prior) and `parents` (name to isa
parent, or None).  `KnowledgeBase.prior` and `ancestors_or_self` are their
checked readers, for names that come from input.  A schema's ancestors are
walked through `parents` rather than stored per schema, which would take
memory quadratic in the depth of the isa tree.

Priors and observation beliefs are normal floats: `load_kb` and
`KnowledgeBase.check_observation` reject one below ``sys.float_info.min``,
since products of subnormal factors lose the relative precision the
cleave identity is checked to.  The children-sum
rule allows a relative 1e-12 of rounding slack, so it holds at every
scale of prior.

`load_kb` is one linear pass over the source: the reader splits each flat
form in one regex match, the isa-cycle check walks each schema once, and
the link table's links are built straight from each schema's own fields.

A loaded `KnowledgeBase` is immutable and safe to share across threads.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from operator import attrgetter

from .paths import LinkKind, TraversalLink, read_forms

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")


class KbError(Exception):
    """Raised for both syntactic and semantic problems in a KB source.
    Carries the 1-based source ``line`` when one is known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line

    @classmethod
    def from_reader(cls, message: str, line: int, position: int) -> "KbError":
        """`read_forms` syntax error: KB and stream sources report lines."""
        return cls(message, line)


@dataclass(frozen=True)
class Schema:
    """One schema: its isa parent (if any), prior, and declared slots
    as (slot-name, filler-schema) pairs sorted by slot name."""

    name: str
    parent: str | None
    prior: float
    slots: tuple[tuple[str, str], ...] = ()

    def filler_of(self, slot: str) -> str | None:
        for slot_name, filler in self.slots:
            if slot_name == slot:
                return filler
        return None


@dataclass(frozen=True)
class Observation:
    """An observed instance: a unique identifier, the schema it was observed
    as, and the current belief p(inst | evidence) in (0, 1]."""

    instance: str
    schema: str
    belief: float = 1.0


@dataclass(frozen=True)
class KnowledgeBase:
    schemas: dict[str, Schema]
    eq_prior: float
    adjacency: dict[str, tuple[TraversalLink, ...]] = field(compare=False)
    links: dict[str, TraversalLink] = field(compare=False)
    priors: dict[str, float] = field(compare=False)
    parents: dict[str, str | None] = field(compare=False)

    def schema(self, name: str) -> Schema:
        try:
            return self.schemas[name]
        except KeyError:
            raise KbError(f"unknown schema {name!r}") from None

    def prior(self, name: str) -> float:
        try:
            return self.priors[name]
        except KeyError:
            raise KbError(f"unknown schema {name!r}") from None

    def isa_star(self, a: str, b: str) -> bool:
        """True iff ``b`` is a proper isa ancestor of ``a``."""
        self.schema(b)
        parent = self.schema(a).parent
        while parent is not None:
            if parent == b:
                return True
            parent = self.schemas[parent].parent
        return False

    def check_observation(self, obs: Observation) -> None:
        """Raise `KbError` for an unknown schema, `ValueError` for a belief
        outside (0,1], subnormal, or below 1 on a schema whose prior is 1."""
        prior = self.prior(obs.schema)
        if not 0.0 < obs.belief <= 1.0:
            raise ValueError(f"belief must be in (0,1], got {obs.belief!r}")
        if obs.belief < sys.float_info.min:
            raise ValueError(f"belief of {obs.instance!r} is subnormal, below "
                             f"{sys.float_info.min!r}: {obs.belief!r}")
        if prior >= 1.0 and obs.belief < 1.0:
            raise ValueError(
                f"cannot scale evidence for {obs.instance!r}: type prior is 1 "
                f"but belief is {obs.belief!r}")

    def ancestors_or_self(self, name: str) -> list[str]:
        chain = [name]
        parent = self.schema(name).parent
        while parent is not None:
            chain.append(parent)
            parent = self.parents[parent]
        return chain

    def declared_slot(self, owner_type: str, slot: str) -> tuple[str, str] | None:
        """Find ``slot`` on ``owner_type`` or the nearest ancestor declaring
        it; returns (declaring schema, filler schema).  Slots are inherited
        downward because a subtype is a subset of its parent."""
        for name in self.ancestors_or_self(owner_type):
            filler = self.schemas[name].filler_of(slot)
            if filler is not None:
                return name, filler
        return None

    def render(self) -> str:
        """Canonical textual form; `load_kb` of it reproduces this base."""
        lines = [f"(eq-prior {self.eq_prior!r})"]
        for name in sorted(self.schemas):
            schema = self.schemas[name]
            isa = f" :isa {schema.parent}" if schema.parent is not None else ""
            lines.append(f"(schema {name}{isa} :prior {schema.prior!r})")
        for name in sorted(self.schemas):
            for slot, filler in self.schemas[name].slots:
                lines.append(f"(role {name} {slot} {filler})")
        return "\n".join(lines) + "\n"


def _parse_float(token: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise KbError(f"bad number {token!r}", line) from None
    return value


def _check_name(token: str, line: int) -> str:
    if not NAME_RE.match(token):
        raise KbError(f"bad name {token!r}", line)
    return token


def load_kb(text: str) -> KnowledgeBase:
    """Parse and validate a KB source; raises `KbError` on the first
    syntactic or semantic problem."""
    raw_schemas: dict[str, tuple[str | None, float, int]] = {}
    raw_roles: list[tuple[str, str, str, int]] = []
    eq_prior: float | None = None

    for items, line, _ in read_forms(text, KbError.from_reader):
        head = items[0]
        if head == "schema":
            if len(items) not in (4, 6):
                raise KbError("schema form is (schema NAME [:isa NAME] :prior FLOAT)", line)
            name = _check_name(items[1], line)
            rest = items[2:]
            parent = None
            if rest[0] == ":isa":
                parent = _check_name(rest[1], line)
                rest = rest[2:]
            if len(rest) != 2 or rest[0] != ":prior":
                raise KbError("schema form is (schema NAME [:isa NAME] :prior FLOAT)", line)
            prior = _parse_float(rest[1], line)
            if name in raw_schemas:
                raise KbError(f"duplicate schema {name!r}", line)
            if not 0.0 < prior <= 1.0:
                raise KbError(f"prior of {name!r} must be in (0,1], got {prior!r}", line)
            if prior < sys.float_info.min:
                raise KbError(f"prior of {name!r} is subnormal, below "
                              f"{sys.float_info.min!r}: {prior!r}", line)
            raw_schemas[name] = (parent, prior, line)
        elif head == "role":
            if len(items) != 4:
                raise KbError("role form is (role FILLED SLOT FILLER)", line)
            filled = _check_name(items[1], line)
            slot = _check_name(items[2], line)
            filler = _check_name(items[3], line)
            raw_roles.append((filled, slot, filler, line))
        elif head == "eq-prior":
            if len(items) != 2:
                raise KbError("eq-prior form is (eq-prior FLOAT)", line)
            if eq_prior is not None:
                raise KbError("duplicate eq-prior", line)
            eq_prior = _parse_float(items[1], line)
            if not 0.0 < eq_prior < 1.0:
                raise KbError(f"eq-prior must be in (0,1), got {eq_prior!r}", line)
        else:
            raise KbError(f"unknown form {head!r}", line)

    if eq_prior is None:
        raise KbError("missing eq-prior")

    for name, (parent, _, line) in raw_schemas.items():
        if parent is not None and parent not in raw_schemas:
            raise KbError(f"unknown parent {parent!r} of schema {name!r}", line)

    # isa must be a forest: walk up from each schema looking for a loop.
    # A walk stops at a schema already known to reach a root, so each
    # schema is walked through once and the check is linear in the base.
    rooted: set[str] = set()
    for name in raw_schemas:
        walked = {name}
        parent = raw_schemas[name][0]
        while parent is not None and parent not in rooted:
            if parent in walked:
                raise KbError(f"isa cycle through {name!r}", raw_schemas[name][2])
            walked.add(parent)
            parent = raw_schemas[parent][0]
        rooted.update(walked)

    for name, (parent, prior, line) in raw_schemas.items():
        if parent is not None and prior > raw_schemas[parent][1]:
            raise KbError(
                f"schema {name!r} has prior {prior!r} above its parent "
                f"{parent!r} ({raw_schemas[parent][1]!r})", line)

    child_sums: dict[str, float] = {}
    for name, (parent, prior, _) in raw_schemas.items():
        if parent is not None:
            child_sums[parent] = child_sums.get(parent, 0.0) + prior
    for parent, total in child_sums.items():
        _, parent_prior, parent_line = raw_schemas[parent]
        # A relative tolerance, so that it scales with tiny priors too.
        if total > parent_prior * (1 + 1e-12):
            raise KbError(
                f"children of {parent!r} have priors summing to {total!r}, "
                f"above the parent prior {parent_prior!r}", parent_line)

    slot_map: dict[str, dict[str, str]] = {name: {} for name in raw_schemas}
    for filled, slot, filler, line in raw_roles:
        if filled not in raw_schemas:
            raise KbError(f"role on unknown schema {filled!r}", line)
        if filler not in raw_schemas:
            raise KbError(f"unknown filler {filler!r} in role of {filled!r}", line)
        if slot in slot_map[filled]:
            raise KbError(f"duplicate slot {slot!r} on schema {filled!r}", line)
        # The slot's equality holds with probability p(==)/p(filler) when
        # both ends exist, so that ratio must be a probability.
        if eq_prior > raw_schemas[filler][1]:
            raise KbError(
                f"equality prior {eq_prior!r} exceeds the prior of filler "
                f"type {filler!r}", line)
        slot_map[filled][slot] = filler

    schemas = {
        name: Schema(
            name=name,
            parent=parent,
            prior=prior,
            slots=tuple(sorted(slot_map[name].items())),
        )
        for name, (parent, prior, _) in raw_schemas.items()
    }
    priors = {name: prior for name, (_, prior, _) in raw_schemas.items()}
    adjacency, links = _build_adjacency(schemas, priors)
    return KnowledgeBase(schemas=schemas, eq_prior=eq_prior,
                         adjacency=adjacency, links=links, priors=priors,
                         parents={name: parent for name, (parent, _, _) in raw_schemas.items()})


# The adjacency lists the links leaving a schema by (destination, kind,
# slot), the order the marker emits paths in.  Two of them tie on
# (destination, kind) only when they are role links between the same two
# schemas; those are built in the order of the owner's sorted slots, so a
# stable sort on this key orders them by slot as well.
_BY_DESTINATION_AND_KIND = attrgetter("destination", "column")


def _build_adjacency(schemas: dict[str, Schema], priors: dict[str, float]
                     ) -> tuple[dict[str, tuple[TraversalLink, ...]], dict[str, TraversalLink]]:
    # The link table and, from the same links, the adjacency.  Both
    # directions of each KB link are built together, so each holds the
    # other as its twin.  This is where the spinal contribution's per-link
    # multipliers are defined: p(filled)/p(filler) climbing a role,
    # p(specific)/p(general) descending an isa edge, 1 otherwise.
    links: dict[str, TraversalLink] = {}
    leaving: dict[str, list[TraversalLink]] = {name: [] for name in schemas}

    def pair(up: TraversalLink, down: TraversalLink) -> None:
        up.twin, down.twin = down, up
        links[up.text], links[down.text] = up, down
        leaving[up.source].append(up)
        leaving[down.source].append(down)

    for name, schema in schemas.items():
        parent = schema.parent
        if parent is not None:
            names = (name, parent)
            pair(TraversalLink(LinkKind.ISA_UP, names, name, parent, 1.0),
                 TraversalLink(LinkKind.ISA_DOWN, names, parent, name,
                               schema.prior / priors[parent]))
        for slot, filler in schema.slots:
            names = (name, slot, filler)
            pair(TraversalLink(LinkKind.ROLE_UP, names, filler, name,
                               schema.prior / priors[filler]),
                 TraversalLink(LinkKind.ROLE_DOWN, names, name, filler, 1.0))

    for entries in leaving.values():
        entries.sort(key=_BY_DESTINATION_AND_KIND)
    return {name: tuple(entries) for name, entries in leaving.items()}, links
