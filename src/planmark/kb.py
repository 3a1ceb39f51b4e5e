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
text, which carries its kind (whose value is its column in the DFA step
table), the slot and filler type of a role link, where it leaves and
arrives, its spinal-contribution multiplier and the same link walked the
other way, its twin.  `_build_adjacency` is the one place those
multipliers are defined; the marker passer folds them into half and
whole-path scores, path parsing looks links up in the table, a path's text
joins theirs, and the adjacency the marker spreads over lists the same
links by the schema they leave.  Two flat tables serve the per-path work
after the marker: `priors` (name to prior) and `parents` (name to isa
parent, or None); `KnowledgeBase.prior` is the checked reader for schema
names that come from input.  A third, `slot_owners` (slot name to the
schemas that declare it), serves the check of a stream's corroboration
records.  A schema's ancestors are walked through `parents` rather than
stored per schema, which would take memory quadratic in the depth of the
isa tree.

Priors and observation beliefs are normal floats: `load_kb` and
`KnowledgeBase.check_observation` reject one below ``sys.float_info.min``,
since products of subnormal factors lose the relative precision the
cleave identity is checked to.  The children-sum
rule allows a relative 1e-12 of rounding slack, so it holds at every
scale of prior.

`load_kb` is one linear pass over the source.  The reader splits the
whole text into forms in one regex pass; the line of a form is found
only when a problem with it is reported.  A name is one string object,
the first one read, in every table: the schema table's keys, each
`Schema`'s parent and slots, `priors`, `parents`, `slot_owners`, each
link's ends, slot and filler, and the adjacency's keys.  The distinct
names are checked all at once after the forms are read; if one is bad,
or a form is, the forms are read again checking each name as it comes,
so that the problem reported is the first in the text.  The isa-cycle
check walks each schema once.  Both directions of a KB link are built
together, their texts from one text of the link's names, and only a
schema with two or more links leaving it has its list sorted.

`load_kb` leaves three tables empty, which later calls on the base fill
and read: `KnowledgeBase.judgements`, where `pipeline.run` keeps each
judged claim's judgement and, from the claim's second meeting on, its
record template and what the evidence filter reads of its RS(P);
`KnowledgeBase.spreads`, where the marker engine keeps each seed's spread
program (see `marker`), with `KnowledgeBase.spread_marks` counting the
marks the programs hold; and `KnowledgeBase.pairs`, where the engine
keeps the first meetings of each pair of seeds it has met, with
`KnowledgeBase.pair_paths` counting the paths they hold.  Nothing else
changes a base after `load_kb` builds it, and each entry is a function of
its key alone, added only once complete; a spread program or a pair's
meetings are never changed after, and a claim's entry is replaced at
most once, by the same judgement plus its template and filter input,
themselves functions of the key.  A pair's meetings hold no marks, so
they stay valid when the spread table is cleared.  So one base is safe
to share across threads: two calls may judge one claim, template it,
spread one seed or meet one pair twice, but never differently, and a
call keeps using an entry another call's clear removed (a template can
restore such an entry, taking the claims one per concurrent call past
their cap).  Each table is cleared when it reaches its cap, under 2 MB of
claims, about 10 MB of marks and under 4 MB of pairs, so memory stays
bounded whatever a caller feeds.  `==` ignores the three tables.
"""

from __future__ import annotations

import sys
from operator import attrgetter, itemgetter
from typing import Callable, Collection, Iterable, NamedTuple

from .paths import LinkKind, TraversalLink, form_start, read_forms

# The smallest normal float.  Priors, beliefs and the marker's scores all
# stay at or above it: a subnormal factor loses the relative precision the
# cleave identity is checked to.
_MIN_NORMAL = sys.float_info.min


def _check_real(name: str, value: object) -> None:
    """Raise `ValueError` unless ``value`` is an int or a float: a setting
    read as a number must not be a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a real number, got {value!r}")


class KbError(Exception):
    """Raised for both syntactic and semantic problems in a KB source.
    Carries the 1-based source ``line`` when one is known, and the
    ``position`` in the text of the form or token at fault when the
    problem is with how the text reads."""

    def __init__(self, message: str, line: int | None = None,
                 position: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.position = position

    @classmethod
    def from_reader(cls, message: str, line: int, position: int) -> "KbError":
        """`read_forms` syntax error: KB and stream sources report lines."""
        return cls(message, line, position)


class Schema(NamedTuple):
    """One schema: its isa parent (if any), prior, and declared slots
    as (slot-name, filler-schema) pairs sorted by slot name."""

    name: str
    parent: str | None
    prior: float
    slots: tuple[tuple[str, str], ...] = ()


class Observation(NamedTuple):
    """An observed instance: a unique identifier, the schema it was observed
    as, and the current belief p(inst | evidence) in (0, 1]."""

    instance: str
    schema: str
    belief: float = 1.0


class KnowledgeBase:
    """Schemas, p(==), the tables built from them, `run`'s judgement
    table and the marker's spread and pair tables; equal bases have equal
    schemas and p(==), whatever they have judged, spread or met."""

    def __init__(self, schemas: dict[str, Schema], eq_prior: float,
                 adjacency: dict[str, tuple[TraversalLink, ...]],
                 links: dict[str, TraversalLink], priors: dict[str, float],
                 parents: dict[str, str | None], slot_owners: dict[str, set[str]]):
        self.schemas = schemas
        self.eq_prior = eq_prior
        self.adjacency = adjacency
        self.links = links
        self.priors = priors
        self.parents = parents
        self.slot_owners = slot_owners
        # claim -> `pipeline.Judgement`, with its template from the claim's
        # second meeting on; `pipeline.run` is its one writer.
        self.judgements: dict[tuple, tuple] = {}
        # seed key -> its spread program, a tuple of `marker.Mark`s in
        # placement order, and the marks the table holds;
        # `marker.MarkerEngine` is their one writer.
        self.spreads: dict[tuple, tuple] = {}
        self.spread_marks = 0
        # (earlier seed key, later seed key, full floor) -> the pair's first
        # meetings, and the paths they hold; the same engine writes them.
        self.pairs: dict[tuple, tuple] = {}
        self.pair_paths = 0

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.schemas, self.eq_prior) == (other.schemas, other.eq_prior)

    def prior(self, name: str) -> float:
        try:
            return self.priors[name]
        except KeyError:
            raise KbError(f"unknown schema {name!r}") from None

    def check_observation(self, obs: Observation) -> None:
        """Raise `KbError` for an unknown schema, `ValueError` for a belief
        outside (0,1], subnormal, or below 1 on a schema whose prior is 1."""
        prior = self.prior(obs.schema)
        if not 0.0 < obs.belief <= 1.0:
            raise ValueError(f"belief must be in (0,1], got {obs.belief!r}")
        if obs.belief < _MIN_NORMAL:
            raise ValueError(f"belief of {obs.instance!r} is subnormal, below "
                             f"{_MIN_NORMAL!r}: {obs.belief!r}")
        if prior >= 1.0 and obs.belief < 1.0:
            raise ValueError(
                f"cannot scale evidence for {obs.instance!r}: type prior is 1 "
                f"but belief is {obs.belief!r}")

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


def _all_names(tokens: Collection[str]) -> bool:
    """Whether every token is a name: an ASCII letter, then ASCII letters,
    digits, ``_`` or ``-``.  Each string test runs once over all the
    tokens joined, rather than once per token."""
    if not tokens:
        return True
    joined = "".join(tokens)
    return (joined.isascii() and "".join(map(itemgetter(0), tokens)).isalpha()
            and joined.replace("-", "_").isidentifier())


def _checked_name(token: str, _: str) -> str:
    """`_declarations`' ``intern`` for a source with a problem: checks each
    name token as it is read, so the first problem raises first."""
    if not _all_names((token,)):
        raise KbError(f"bad name {token!r}")
    return token


def _parse_float(token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise KbError(f"bad number {token!r}") from None
    return value


_SCHEMA_FORM = "schema form is (schema NAME [:isa NAME] :prior FLOAT)"


def _declarations(text: str, forms: Iterable[list[str]],
                  intern: Callable[[str, str], str]):
    """What the forms of a KB source declare: its eq-prior, each schema's
    parent, prior and form index, and its roles as a flat list of filled
    schema, slot, filler and form index.  ``intern(token, token)`` is the
    object the tables hold for a name token.  A problem raises `KbError`
    with the line of its form."""
    parents: dict[str, str | None] = {}
    priors: dict[str, float] = {}
    declared: dict[str, int] = {}
    roles: list[str | int] = []
    eq_prior: float | None = None
    # A problem with one form is raised without a line, and named with the
    # line of the form being read here.
    try:
        for index, items in enumerate(forms):
            head = items[0]
            if head == "schema":
                size = len(items)
                if size != 4 and size != 6:
                    raise KbError(_SCHEMA_FORM)
                name = intern(items[1], items[1])
                if items[2] == ":isa":
                    parent = intern(items[3], items[3])
                    if size == 4:
                        raise KbError(_SCHEMA_FORM)
                    key, value = items[4], items[5]
                elif size == 6:
                    raise KbError(_SCHEMA_FORM)
                else:
                    parent = None
                    key, value = items[2], items[3]
                if key != ":prior":
                    raise KbError(_SCHEMA_FORM)
                prior = _parse_float(value)
                if name in priors:
                    raise KbError(f"duplicate schema {name!r}")
                if not 0.0 < prior <= 1.0:
                    raise KbError(f"prior of {name!r} must be in (0,1], got {prior!r}")
                if prior < _MIN_NORMAL:
                    raise KbError(f"prior of {name!r} is subnormal, below "
                                  f"{_MIN_NORMAL!r}: {prior!r}")
                parents[name] = parent
                priors[name] = prior
                declared[name] = index
            elif head == "role":
                if len(items) != 4:
                    raise KbError("role form is (role FILLED SLOT FILLER)")
                _, filled, slot, filler = items
                roles += (intern(filled, filled), intern(slot, slot),
                          intern(filler, filler), index)
            elif head == "eq-prior":
                if len(items) != 2:
                    raise KbError("eq-prior form is (eq-prior FLOAT)")
                if eq_prior is not None:
                    raise KbError("duplicate eq-prior")
                eq_prior = _parse_float(items[1])
                if not 0.0 < eq_prior < 1.0:
                    raise KbError(f"eq-prior must be in (0,1), got {eq_prior!r}")
            else:
                raise KbError(f"unknown form {head!r}")
    except KbError as exc:
        raise KbError(str(exc), form_start(text, index)[0]) from None
    return eq_prior, parents, priors, declared, roles


def load_kb(text: str) -> KnowledgeBase:
    """Parse and validate a KB source; raises `KbError` on the first
    syntactic or semantic problem."""
    forms = read_forms(text, KbError.from_reader)

    def line(index: int) -> int:
        return form_start(text, index)[0]

    # The tables hold one object per name, the first read.  The distinct
    # names are checked together once every form is read; if one is bad,
    # or a form is, the forms are read again checking each name as it
    # comes, so that the problem reported is the first in the text.
    names: dict[str, str] = {}
    try:
        eq_prior, parents, priors, declared, roles = _declarations(
            text, forms, names.setdefault)
        if not _all_names(names):
            raise KbError("bad name")
    except KbError:
        _declarations(text, read_forms(text, KbError.from_reader), _checked_name)
        raise

    if eq_prior is None:
        raise KbError("missing eq-prior")

    for name, parent in parents.items():
        if parent is not None and parent not in priors:
            raise KbError(f"unknown parent {parent!r} of schema {name!r}",
                          line(declared[name]))

    # isa must be a forest: walk up from each schema looking for a loop.
    # A walk stops at a schema already known to reach a root, so each
    # schema is walked through once and the check is linear in the base.
    rooted: set[str] = set()
    for name in parents:
        if name in rooted:
            continue
        walked = {name}
        parent = parents[name]
        while parent is not None and parent not in rooted:
            if parent in walked:
                raise KbError(f"isa cycle through {name!r}", line(declared[name]))
            walked.add(parent)
            parent = parents[parent]
        rooted.update(walked)

    child_sums: dict[str, float] = {}
    for name, parent in parents.items():
        if parent is not None:
            prior = priors[name]
            if prior > priors[parent]:
                raise KbError(
                    f"schema {name!r} has prior {prior!r} above its parent "
                    f"{parent!r} ({priors[parent]!r})", line(declared[name]))
            child_sums[parent] = child_sums.get(parent, 0.0) + prior
    for parent, total in child_sums.items():
        # A relative tolerance, so that it scales with tiny priors too.
        if total > priors[parent] * (1 + 1e-12):
            raise KbError(
                f"children of {parent!r} have priors summing to {total!r}, "
                f"above the parent prior {priors[parent]!r}", line(declared[parent]))

    owned: dict[str, list[tuple[str, str]]] = {}  # schemas that declare a slot
    slot_owners: dict[str, set[str]] = {}
    flat = iter(roles)
    for filled, slot, filler, index in zip(flat, flat, flat, flat):
        if filled not in priors:
            raise KbError(f"role on unknown schema {filled!r}", line(index))
        filler_prior = priors.get(filler)
        if filler_prior is None:
            raise KbError(f"unknown filler {filler!r} in role of {filled!r}", line(index))
        owners = slot_owners.get(slot)
        if owners is None:
            slot_owners[slot] = owners = set()
        elif filled in owners:
            raise KbError(f"duplicate slot {slot!r} on schema {filled!r}", line(index))
        # The slot's equality holds with probability p(==)/p(filler) when
        # both ends exist, so that ratio must be a probability.
        if eq_prior > filler_prior:
            raise KbError(
                f"equality prior {eq_prior!r} exceeds the prior of filler "
                f"type {filler!r}", line(index))
        owners.add(filled)
        slots = owned.get(filled)
        if slots is None:
            owned[filled] = [(slot, filler)]
        else:
            slots.append((slot, filler))

    new_schema = tuple.__new__
    schemas = {}
    for name, parent in parents.items():
        slots = owned.get(name)
        if slots is None:
            slots = ()
        else:
            slots.sort()
            slots = tuple(slots)
        schemas[name] = new_schema(Schema, (name, parent, priors[name], slots))
    adjacency, links = _build_adjacency(schemas, priors)
    return KnowledgeBase(schemas=schemas, eq_prior=eq_prior,
                         adjacency=adjacency, links=links, priors=priors,
                         parents=parents, slot_owners=slot_owners)


# The adjacency lists the links leaving a schema by (destination, kind,
# slot), the order the marker emits paths in.  Two of them tie on
# (destination, kind) only when they are role links between the same two
# schemas; those are built in the order of the owner's sorted slots, so a
# stable sort on this key orders them by slot as well.
_BY_DESTINATION_AND_KIND = attrgetter("destination", "kind")

ISA_UP, ISA_DOWN, ROLE_UP, ROLE_DOWN = LinkKind


def _build_adjacency(schemas: dict[str, Schema], priors: dict[str, float]
                     ) -> tuple[dict[str, tuple[TraversalLink, ...]], dict[str, TraversalLink]]:
    # The link table and, from the same links, the adjacency.  Both
    # directions of each KB link are built together from one text of its
    # names, so each holds the other as its twin; each text opens with its
    # kind's tag.  This is where the spinal contribution's per-link
    # multipliers are defined: p(filled)/p(filler) climbing a role,
    # p(specific)/p(general) descending an isa edge, 1 otherwise.
    links: dict[str, TraversalLink] = {}
    leaving: dict[str, list[TraversalLink]] = {name: [] for name in schemas}
    isa_up, isa_down, role_up, role_down = [f"({kind.tag}" for kind in LinkKind]
    for name, parent, prior, slots in schemas.values():
        here = leaving[name]
        if parent is not None:
            names = f" {name} {parent})"
            up_text, down_text = isa_up + names, isa_down + names
            up = TraversalLink(ISA_UP, "", "", name, parent, 1.0, up_text)
            down = TraversalLink(ISA_DOWN, "", "", parent, name, prior / priors[parent],
                                 down_text)
            up.twin, down.twin = down, up
            links[up_text], links[down_text] = up, down
            here.append(up)
            leaving[parent].append(down)
        for slot, filler in slots:
            names = f" {name} {slot} {filler})"
            up_text, down_text = role_up + names, role_down + names
            up = TraversalLink(ROLE_UP, slot, filler, filler, name, prior / priors[filler],
                               up_text)
            down = TraversalLink(ROLE_DOWN, slot, filler, name, filler, 1.0, down_text)
            up.twin, down.twin = down, up
            links[up_text], links[down_text] = up, down
            leaving[filler].append(up)
            here.append(down)

    for entries in leaving.values():
        if len(entries) > 1:
            entries.sort(key=_BY_DESTINATION_AND_KIND)
    return dict(zip(leaving, map(tuple, leaving.values()))), links
