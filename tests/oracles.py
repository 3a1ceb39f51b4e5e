"""Reference implementations used only by the tests.

The first helpers restate, for the tests, what the package no longer
needs: `link_names` reads a link's declaration-order names from its
text (the link keeps only the slot and filler of them), `flip` walks
a link the other way (the base stores each link's twin instead; `flip`
looks the flipped tag and the same names up in the link table, so the
tests cross-check the twin), `reverse` reads a path from its other end,
`path_schemas` lists the schema at every position, `step` advances the
validity DFA by one move or kind, `role_count` counts a path's role
links, and `relevant_instance_trace` names the instance at every
position of a path.  `ancestors_or_self`, `isa_star`
and `declared_slot` walk the isa tree and find a slot through each
`Schema`'s own ``parent`` and ``slots``, so the tests cross-check the
base's ``parents`` and ``slot_owners`` tables.

`enumerate_paths_oracle` is the marker engine's reference point: a plain
exhaustive DFS over link sequences filtered by `declarative_valid`, a
direct restatement of the validity rules independent of the DFA, practical
only on small bases.  `completeness_check` runs the engine, compares its
emissions with the oracle's and classifies every high-scoring path the
engine missed; `qualifying_cleaves` is its half-dip test, and
`blocked_at_depth` finds the one way best-trail retention can lose a path
without keeping one at least as good.  `random_kb` builds the small
reproducible bases they are run on from the text `random_kb_text`
writes: a shallow isa forest with subset-consistent priors and random
role links, with no planted structure, and `random_kb_stream` a stream
of observations and corroborations on one.  The pinned report hashes
cover runs on both, so their output may not drift.

`ReferenceEngine` is the marker engine as it was before spread programs:
one FIFO spread of every origin's marks, built on the call, each met with
the marks at its schema as it is placed, and a mark displaced before its
turn flagged and skipped.  The package records each seed's spread once
per base as a program, from the seed alone, and places each origin's
program alone, in one loop that meets its marks; the tests hold its
engine, on a fresh base and on one whose table holds every program, to
this engine's emissions, scores and retained marks, bit for bit, with
this engine spreading each observation before the next is seeded.  Seeded in a batch,
this engine interleaves its origins' marks in one queue, and emits
otherwise.
`GlueThenValidateEngine` is `ReferenceEngine` with its original meeting
handler: every meeting of marks from two origins is glued into a whole
path and run through `validate` before it is scored, with links flipped
one by one, scored with `score_path` and duplicates found by rendered
text.  It records an emission where the engine does, in the path → score
table ``scores``, the engine's one record of what it emitted.  The
engine itself keys retention by seed rank and DFA state, hands only
meetings the seam table allows to `_collide`, scores them before
building anything, reads both trails back along `Mark.prev` into one
list of links and stored twins and finds duplicates in ``scores``.  This
class replaces both `_place` and `_collide`: it keys retention by
instance name, scans every mark at the schema, and reads trails with
`trail`, so none of that is shared.  It shares only `ReferenceEngine`'s
spread loop, which skips the marks its `_place` flags as displaced, and
the seed rank each mark carries, which orients a glued path.

`statements_by_walk` is the original S(P) translation, a walk of its
own that names the instances with its own counter and picks each
equality's owner by comparing the link's kind, and
`relevant_statements_by_fold` the original RS(P) translation, which
picks each instance's relevant type by folding `isa_star` over every type
that walk's S(P) gives it.  Both build statements of their own types,
`Inst` and `SlotEq`, whose ``render`` gives the text the package writes
(`texts_of` renders a tuple of them), so the tests compare texts with
the package and read owners and relevant types off these.
`evidence_filter_by_scan` is the original evidence filter, run on the
fold's RS(P): it checks every instance (observed, or corroborated for
any slot) and every slot equality by scanning all corroboration records.
The package writes each statement's text once, in one walk that gives
S(P) and RS(P), reads relevant types off the walk's shape and each owner
off the link's kind, and looks each equality's slot up in an index from
slot to the schemas it is corroborated at.
`read_forms_by_tokens` is the original s-expression reader, which reads
every form token by token and gives each form's line and position; the
package splits the whole text into forms in one regex pass and finds a
form's start only for an error.  `load_kb_reference` is the loader as it
was before it held one object per name: it checks every name token with
a regex, keeps each schema's fields in a tuple and builds each link's
text by joining its names, as a `ReferenceLink`.  The tests hold the
package's loader to the same tables, link fields and adjacency order,
and to the same error message and line.

The rest are reference evaluators.  `sc_by_fractions` is a path's spinal
contribution in exact rationals.  `posterior_by_fractions` evaluates
`exact_posterior`'s closed form in exact rationals, for inputs whose
masses leave the float range.

`planmark.bayes.exact_posterior` computes (joint, residual) in closed form.
The two evaluators here reach the same quantities without relying on the
spine's structure: `posterior_by_enumeration` sums every assignment of the
non-evidence nodes (2^n terms, chunked through numpy; the sums themselves
come from `masses_by_enumeration`), and
`posterior_by_elimination` runs sum-product variable elimination over
explicit factor tables.  Both cost exponential time; keep them to small
networks.
"""

from __future__ import annotations

import math
import random
import re
import sys
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iter_product
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from planmark.bayes import Cpts, VertebrateNetwork
from planmark.kb import KbError, KnowledgeBase, Observation, Schema, load_kb
from planmark.marker import (EngineConfig, Mark, MarkerEngine, combine, extend_half,
                             score_path)
from planmark.paths import (ALL_STATES, SEAM_VALID, START_STATE, STEP, LinkKind, Path,
                            TraversalLink, validate)


FLIPPED = {LinkKind.ISA_UP: LinkKind.ISA_DOWN, LinkKind.ISA_DOWN: LinkKind.ISA_UP,
           LinkKind.ROLE_UP: LinkKind.ROLE_DOWN, LinkKind.ROLE_DOWN: LinkKind.ROLE_UP}


def link_names(link: TraversalLink) -> tuple[str, ...]:
    """The link's names in declaration order, read from its text:
    (filled, slot, filler) for a role link, (specific, general) for an
    isa edge."""
    return tuple(link.text[1:-1].split()[1:])


def flip(kb: KnowledgeBase, link: TraversalLink) -> TraversalLink:
    """The same KB link traversed the other way."""
    return kb.links[f"({FLIPPED[link.kind].tag} {' '.join(link_names(link))})"]


def reverse(kb: KnowledgeBase, path: Path) -> Path:
    """The same path read from the other end; an involution."""
    return Path(start=path.end,
                links=tuple(flip(kb, link) for link in reversed(path.links)),
                end=path.start)


def path_schemas(path: Path) -> list[str]:
    """Schema at every position, start first (length = links + 1)."""
    return [path.start.schema] + [link.destination for link in path.links]


def step(state: int, link: TraversalLink | LinkKind) -> int | None:
    """Advance the validity DFA by one move; ``None`` means the prefix can
    never extend to a valid path."""
    kind = link.kind if isinstance(link, TraversalLink) else link
    return STEP[state][kind]


def role_count(path: Path) -> int:
    return len([link for link in path.links if link.kind.is_role])


def relevant_instance_trace(path: Path, fresh_prefix: str = "gen-") -> list[str]:
    """Instance occupying each path position, start first: isa moves keep
    the instance, each role move hands off to the next fresh instance, and
    the last role move to the end observation's instance."""
    roles = role_count(path)
    trace = [path.start.instance]
    handed = 0
    for link in path.links:
        if link.kind.is_role:
            handed += 1
            trace.append(f"{fresh_prefix}{handed}" if handed < roles else path.end.instance)
        else:
            trace.append(trace[-1])
    return trace


def ancestors_or_self(kb: KnowledgeBase, name: str) -> list[str]:
    """``name`` and its isa ancestors, nearest first."""
    chain = [name]
    parent = kb.schemas[name].parent
    while parent is not None:
        chain.append(parent)
        parent = kb.schemas[parent].parent
    return chain


def isa_star(kb: KnowledgeBase, a: str, b: str) -> bool:
    """True iff ``b`` is a proper isa ancestor of ``a``."""
    return b in ancestors_or_self(kb, a)[1:]


def declared_slot(kb: KnowledgeBase, owner_type: str, slot: str) -> tuple[str, str] | None:
    """(declaring schema, filler schema) of ``slot`` on ``owner_type`` or
    the nearest ancestor declaring it, or None.  Slots are inherited
    downward because a subtype is a subset of its parent."""
    for name in ancestors_or_self(kb, owner_type):
        for slot_name, filler in kb.schemas[name].slots:
            if slot_name == slot:
                return name, filler
    return None


class OracleGuardError(Exception):
    """The exhaustive enumeration would visit too many prefixes."""


def random_kb(seed: int, n_schemas: int = 18, n_roles: int = 14) -> KnowledgeBase:
    """A reproducible random base for oracle-vs-engine comparisons: a
    shallow isa forest with subset-consistent priors and random role links.
    Unlike `synth_corpus` there is no planted structure."""
    return load_kb(random_kb_text(seed, n_schemas, n_roles))


def random_kb_text(seed: int, n_schemas: int = 18, n_roles: int = 14) -> str:
    """The source text `random_kb` loads."""
    rng = random.Random(seed)
    names = [f"s{k}" for k in range(n_schemas)]
    parent: dict[str, str | None] = {}
    prior: dict[str, float] = {}
    budget: dict[str, float] = {}
    for k, name in enumerate(names):
        candidates = names[:k]
        pick = rng.choice(candidates) if candidates and rng.random() < 0.6 else None
        if pick is None:
            parent[name] = None
            prior[name] = rng.uniform(0.05, 0.5)
        else:
            parent[name] = pick
            room = budget.get(pick, prior[pick])
            if room <= 1e-6:
                parent[name] = None
                prior[name] = rng.uniform(0.05, 0.5)
            else:
                share = room * rng.uniform(0.2, 0.8)
                prior[name] = share
                budget[pick] = room - share
        budget.setdefault(name, prior[name])

    lines = []
    for name in names:
        isa = f" :isa {parent[name]}" if parent[name] else ""
        lines.append(f"(schema {name}{isa} :prior {prior[name]!r})")
    used = set()
    slot_counter = 0
    for _ in range(n_roles):
        filled = rng.choice(names)
        filler = rng.choice(names)
        if (filled, filler) in used:
            continue
        used.add((filled, filler))
        lines.append(f"(role {filled} slot-{slot_counter} {filler})")
        slot_counter += 1
    # Keep every equality CPT a probability: p(==) below the smallest prior.
    eq_prior = min(prior.values()) * rng.uniform(0.1, 0.9)
    lines.insert(0, f"(eq-prior {eq_prior!r})")
    return "\n".join(lines) + "\n"


def random_kb_stream(seed: int, base: KnowledgeBase, n_obs: int) -> str:
    """Observations on random schemas, with a corroboration of a random
    declared slot after most of them."""
    rng = random.Random(seed)
    names = sorted(base.schemas)
    lines = []
    for k in range(n_obs):
        name = rng.choice(names)
        belief = 1.0 if base.prior(name) >= 1.0 else round(rng.uniform(0.5, 1.0), 3)
        lines.append(f"(inst o{k} {name} :belief {belief!r})")
        owner = base.schemas[rng.choice(names)]
        if owner.slots and rng.random() < 0.7:
            lines.append(f"(corroborate {owner.name} {rng.choice(owner.slots)[0]})")
    return "\n".join(lines) + "\n"


# An atom, a parenthesis or a ';' comment running to the end of the line;
# whitespace between them is skipped.
_TOKEN_RE = re.compile(r";[^\n]*|[()]|[^\s();]+")

Form = tuple[list[str], int, int]


def read_forms_by_tokens(text: str,
                         error: Callable[[str, int, int], Exception]) -> list[Form]:
    """The s-expression reader of the KB, stream and path formats: flat
    forms ``(head arg ...)`` with their 1-based line and the character
    position of their opening parenthesis; ``;`` comments run to the end
    of the line and nesting is not allowed.  A syntax error raises
    ``error(message, line, position)``."""
    forms: list[Form] = []
    line, counted = 1, 0
    items: list[str] | None = None  # the open form's items after the '('
    at = 0  # position of the open form's '('
    for match in _TOKEN_RE.finditer(text):
        tok = match.group()
        if tok[0] == ";":
            continue
        if items is None:
            at = match.start()
            line += text.count("\n", counted, at)
            counted = at
            if tok != "(":
                raise error(f"expected '(' but found {tok!r}", line, at)
            items = []
        elif tok == ")":
            if not items:
                raise error("empty form", line, at)
            forms.append((items, line, at))
            items = None
        elif tok == "(":
            raise error("unterminated form", line, at)
        else:
            items.append(tok)
    if items is not None:
        raise error("unterminated form", line, at)
    return forms


# -- the loader before names were interned and links built from one text ------

_REFERENCE_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")


class ReferenceLink:
    """`TraversalLink` as the reference loader builds it: the same fields,
    its text joined from its kind's tag and names."""

    __slots__ = ("kind", "slot", "filler", "source", "destination",
                 "multiplier", "twin", "text")

    def __init__(self, kind: LinkKind, names: tuple[str, ...], source: str,
                 destination: str, multiplier: float):
        self.kind = kind
        if kind.is_role:
            _, self.slot, self.filler = names
        else:
            self.slot = self.filler = ""
        self.source = source
        self.destination = destination
        self.multiplier = multiplier
        self.text = f"({kind.tag} {' '.join(names)})"


def _reference_float(token: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise KbError(f"bad number {token!r}", line) from None
    return value


def _reference_name(token: str, line: int) -> str:
    if not _REFERENCE_NAME_RE.match(token):
        raise KbError(f"bad name {token!r}", line)
    return token


def load_kb_reference(text: str) -> KnowledgeBase:
    """Parse and validate a KB source; raises `KbError` on the first
    syntactic or semantic problem.  (`load_kb` as it was before it
    interned names, with its links as `ReferenceLink`s.)"""
    raw_schemas: dict[str, tuple[str | None, float, int]] = {}
    raw_roles: list[tuple[str, str, str, int]] = []
    eq_prior: float | None = None

    for items, line, _ in read_forms_by_tokens(text, KbError.from_reader):
        head = items[0]
        if head == "schema":
            if len(items) not in (4, 6):
                raise KbError("schema form is (schema NAME [:isa NAME] :prior FLOAT)", line)
            name = _reference_name(items[1], line)
            rest = items[2:]
            parent = None
            if rest[0] == ":isa":
                parent = _reference_name(rest[1], line)
                rest = rest[2:]
            if len(rest) != 2 or rest[0] != ":prior":
                raise KbError("schema form is (schema NAME [:isa NAME] :prior FLOAT)", line)
            prior = _reference_float(rest[1], line)
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
            filled = _reference_name(items[1], line)
            slot = _reference_name(items[2], line)
            filler = _reference_name(items[3], line)
            raw_roles.append((filled, slot, filler, line))
        elif head == "eq-prior":
            if len(items) != 2:
                raise KbError("eq-prior form is (eq-prior FLOAT)", line)
            if eq_prior is not None:
                raise KbError("duplicate eq-prior", line)
            eq_prior = _reference_float(items[1], line)
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
    slot_owners: dict[str, set[str]] = {}
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
        slot_owners.setdefault(slot, set()).add(filled)

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
    adjacency, links = _build_adjacency_reference(schemas, priors)
    return KnowledgeBase(schemas=schemas, eq_prior=eq_prior,
                         adjacency=adjacency, links=links, priors=priors,
                         parents={name: parent for name, (parent, _, _) in raw_schemas.items()},
                         slot_owners=slot_owners)


# The adjacency lists the links leaving a schema by (destination, kind,
# slot), the order the marker emits paths in.  Two of them tie on
# (destination, kind) only when they are role links between the same two
# schemas; those are built in the order of the owner's sorted slots, so a
# stable sort on this key orders them by slot as well.
_BY_DESTINATION_AND_KIND = attrgetter("destination", "kind")


def _build_adjacency_reference(schemas: dict[str, Schema], priors: dict[str, float]
                               ) -> tuple[dict[str, tuple[ReferenceLink, ...]], dict[str, ReferenceLink]]:
    # The link table and, from the same links, the adjacency.  Both
    # directions of each KB link are built together, so each holds the
    # other as its twin.  This is where the spinal contribution's per-link
    # multipliers are defined: p(filled)/p(filler) climbing a role,
    # p(specific)/p(general) descending an isa edge, 1 otherwise.
    links: dict[str, ReferenceLink] = {}
    leaving: dict[str, list[ReferenceLink]] = {name: [] for name in schemas}

    def pair(up: ReferenceLink, down: ReferenceLink) -> None:
        up.twin, down.twin = down, up
        links[up.text], links[down.text] = up, down
        leaving[up.source].append(up)
        leaving[down.source].append(down)

    for name, schema in schemas.items():
        parent = schema.parent
        if parent is not None:
            names = (name, parent)
            pair(ReferenceLink(LinkKind.ISA_UP, names, name, parent, 1.0),
                 ReferenceLink(LinkKind.ISA_DOWN, names, parent, name,
                               schema.prior / priors[parent]))
        for slot, filler in schema.slots:
            names = (name, slot, filler)
            pair(ReferenceLink(LinkKind.ROLE_UP, names, filler, name,
                               schema.prior / priors[filler]),
                 ReferenceLink(LinkKind.ROLE_DOWN, names, name, filler, 1.0))

    for entries in leaving.values():
        entries.sort(key=_BY_DESTINATION_AND_KIND)
    return {name: tuple(entries) for name, entries in leaving.items()}, links


def _no_violation(kinds: list[LinkKind]) -> bool:
    for prev, cur in zip(kinds, kinds[1:]):
        if prev is LinkKind.ISA_UP and cur is LinkKind.ISA_DOWN:
            return False
    seen_down = False
    for kind in kinds:
        if kind is LinkKind.ROLE_DOWN:
            seen_down = True
        elif kind is LinkKind.ROLE_UP and seen_down:
            return False
    return True


def declarative_valid(kinds: list[LinkKind]) -> bool:
    """Direct restatement of the path grammar, independent of the DFA:
    at least one role link, no IsaUp immediately followed by IsaDown, and
    no RoleUp anywhere after a RoleDown."""
    return any(k.is_role for k in kinds) and _no_violation(kinds)


def enumerate_paths_oracle(kb: KnowledgeBase, obs1: Observation, obs2: Observation,
                           max_depth: int,
                           prefix_guard: int = 10 ** 6) -> list[Path]:
    """Every valid path between two observations with at most ``max_depth``
    links, by exhaustive DFS.  Only usable on small bases; raises
    `OracleGuardError` past ``prefix_guard`` visited prefixes."""
    kb.prior(obs1.schema)
    kb.prior(obs2.schema)
    if obs1.instance == obs2.instance:
        raise ValueError("oracle endpoints must be distinct instances")
    found: list[Path] = []
    prefix: list[TraversalLink] = []
    kinds: list[LinkKind] = []
    visited = 0

    def walk(at: str) -> None:
        nonlocal visited
        visited += 1
        if visited > prefix_guard:
            raise OracleGuardError(f"more than {prefix_guard} prefixes")
        if prefix and at == obs2.schema and declarative_valid(kinds):
            path = Path(start=obs1, links=tuple(prefix), end=obs2)
            assert validate(path)
            found.append(path)
        if len(prefix) >= max_depth:
            return
        for link in kb.adjacency[at]:
            kinds.append(link.kind)
            if _no_violation(kinds):
                prefix.append(link)
                walk(link.destination)
                prefix.pop()
            kinds.pop()

    walk(obs1.schema)
    return found


@dataclass(frozen=True)
class MissedPath:
    path: Path
    sc: float
    reason: str  # "half-dip" or "unexpected"


@dataclass(frozen=True)
class CompletenessReport:
    entries: tuple[MissedPath, ...]

    @property
    def empty(self) -> bool:
        return not self.entries


def _prefix_values(kb: KnowledgeBase, obs: Observation,
                   links: tuple[TraversalLink, ...]) -> list[float]:
    values = [obs.belief]
    for link in links:
        values.append(extend_half(kb, values[-1], link))
    return values


def trail(mark: Mark | ReferenceMark) -> tuple[TraversalLink, ...]:
    """The links a mark's trail took, oldest first, read from the marks
    it extended."""
    return () if mark.prev is None else trail(mark.prev) + (mark.link,)


def _state_after(links: tuple[TraversalLink, ...]) -> int:
    """The DFA state, as it appears in a mark's key, that a grammatical
    trail of these links leaves a mark in."""
    state = START_STATE
    for link in links:
        state = step(state, link)
    return state


def qualifying_cleaves(kb: KnowledgeBase, config: EngineConfig, path: Path) -> list[int]:
    """Every cleave index j (links before the meeting) at which both
    halves stay at or above T, and the smallest normal float, all the way
    out; a path with none is a half-dip, which the cutoff may lose."""
    half_floor = max(config.half_threshold, sys.float_info.min)
    fwd_vals = _prefix_values(kb, path.start, path.links)
    back_vals = _prefix_values(kb, path.end, reverse(kb, path).links)
    n = len(path.links)
    # Seeds are always placed; the cutoff applies to extensions.
    return [j for j in range(n + 1)
            if all(v >= half_floor for v in fwd_vals[1:j + 1])
            and all(v >= half_floor for v in back_vals[1:n - j + 1])]


def blocked_at_depth(engine: MarkerEngine, path: Path, cleave: int) -> bool:
    """Whether, on a key one of the path's halves passes before the cleave
    point, the engine retained a mark at its depth limit.  That mark is
    never extended, so the half's rest is not walked from that key: the
    one way retention loses a path without keeping one at least as good."""
    n = len(path.links)
    schemas = path_schemas(path)
    halves = ((path.start.instance, path.links[:cleave], schemas),
              (path.end.instance, reverse(engine.kb, path).links[:n - cleave], schemas[::-1]))
    marks = engine.marks
    for instance, links, at in halves:
        for i in range(len(links)):
            mark = marks.get((instance, at[i], _state_after(links[:i])))
            if mark is not None and mark.depth >= engine.config.max_depth:
                return True
    return False


def completeness_check(kb: KnowledgeBase, config: EngineConfig,
                       seeds: tuple[Observation, Observation]) -> CompletenessReport:
    """Compare an engine run against the oracle.

    Lists every oracle path whose full score reaches max(T^2,
    full_threshold, the smallest normal float) that the engine failed to
    emit, except misses explained by the documented best-trail retention
    rule (some prefix of the path was displaced by a better-scoring trail
    at the same (origin, schema, state) key).  A listed "half-dip" means no
    cleave point exists at which both halves stay at or above T (and the
    smallest normal float) all the way out, which is exactly when
    the threshold cutoff is allowed to lose the path; "unexpected" would be
    an engine defect.
    """
    engine = MarkerEngine(kb, config)
    for obs in seeds:
        engine.seed(obs)
    engine.spread()
    emitted = {p.render() for p in engine.scores}
    marks = engine.marks

    obs1, obs2 = seeds
    # The engine drops half and whole scores below the normal float range.
    threshold = max(config.half_threshold ** 2, config.full_threshold, sys.float_info.min)
    entries: list[MissedPath] = []
    for path in enumerate_paths_oracle(kb, obs1, obs2, config.max_depth):
        sc = score_path(kb, path)
        if sc < threshold or path.render() in emitted:
            continue
        qualifying = qualifying_cleaves(kb, config, path)
        if not qualifying:
            entries.append(MissedPath(path, sc, "half-dip"))
            continue
        rev = reverse(kb, path).links
        n = len(path.links)
        schemas = path_schemas(path)
        for j in qualifying:
            m1 = marks.get((obs1.instance, schemas[j], _state_after(path.links[:j])))
            m2 = marks.get((obs2.instance, schemas[j], _state_after(rev[:n - j])))
            if (m1 is not None and trail(m1) == path.links[:j]
                    and m2 is not None and trail(m2) == rev[:n - j]):
                entries.append(MissedPath(path, sc, "unexpected"))
                break
        # Otherwise every qualifying cleave was displaced by a better
        # trail: excused under the best-trail retention rule.
    return CompletenessReport(entries=tuple(entries))




class ReferenceMark:
    """A mark of `ReferenceEngine`: its origin and seed rank, where it is,
    the DFA state it left, its half score, the link it arrived by and the
    mark it extended (None for a seed), its depth, and whether a better
    trail displaced it."""

    __slots__ = ("origin", "rank", "at", "state", "score", "link", "prev", "depth",
                 "displaced")

    def __init__(self, origin: Observation, rank: int, at: str, state: int, score: float,
                 link: TraversalLink | None, prev: ReferenceMark | None):
        self.origin = origin
        self.rank = rank
        self.at = at
        self.state = state
        self.score = score
        self.link = link
        self.prev = prev
        self.depth = 0 if prev is None else prev.depth + 1
        self.displaced = False


class ReferenceEngine:
    """The marker engine as one breadth-first spread of every origin that
    meets marks as it places them, building each mark on the call."""

    def __init__(self, kb: KnowledgeBase, config: EngineConfig | None = None):
        self.kb = kb
        self.config = config = config or EngineConfig()
        self._half_floor = max(config.half_threshold, sys.float_info.min)
        self._full_floor = max(config.full_threshold, sys.float_info.min)
        # Per schema, its marks by their origin's seed rank + DFA state.
        self._at: dict[str, dict] = {}
        self._queue: deque[ReferenceMark] = deque()
        self._seeds: dict[str, Observation] = {}
        self.scores: dict[Path, float] = {}

    @property
    def marks(self) -> dict[tuple[str, str, int], ReferenceMark]:
        return {(mark.origin.instance, at, mark.state): mark
                for at, here in self._at.items() for mark in here.values()}

    def seed(self, obs: Observation) -> None:
        self.kb.check_observation(obs)
        previous = self._seeds.get(obs.instance)
        if previous is not None:
            if previous != obs:
                raise ValueError(
                    f"instance {obs.instance!r} already observed as {previous}")
            return
        rank = len(self._seeds) * len(ALL_STATES)
        self._seeds[obs.instance] = obs
        self._place(obs, rank, obs.schema, START_STATE, obs.belief, None, None)

    def spread(self) -> None:
        while self._queue:
            mark = self._queue.popleft()
            if mark.displaced:
                continue  # superseded by a better trail
            for link in self.kb.adjacency[mark.at]:
                state = STEP[mark.state][link.kind]
                if state is None:
                    continue
                extended = extend_half(self.kb, mark.score, link)
                if extended < self._half_floor:
                    continue
                self._place(mark.origin, mark.rank, link.destination, state, extended,
                            link, mark)

    def _place(self, origin: Observation, rank: int, at: str, state: int, score: float,
               link: TraversalLink | None, prev: ReferenceMark | None) -> None:
        here = self._at.setdefault(at, {})
        key = rank + state
        incumbent = here.get(key)
        if incumbent is not None:
            if incumbent.score >= score:
                return
            incumbent.displaced = True
        mark = here[key] = ReferenceMark(origin, rank, at, state, score, link, prev)
        for other in here.values():
            if SEAM_VALID[state][other.state] and other.origin is not origin:
                self._collide(mark, other)
        if mark.depth < self.config.max_depth:
            self._queue.append(mark)

    def _collide(self, m1: ReferenceMark, m2: ReferenceMark) -> None:
        # Orient the glued path from the earlier-seeded observation.
        if m2.rank < m1.rank:
            m1, m2 = m2, m1
        full = combine(self.kb, m1.at, m1.score, m2.score)
        if full < self._full_floor:
            return
        path = Path(start=m1.origin, links=trail(m1) + tuple(
            link.twin for link in reversed(trail(m2))), end=m2.origin)
        direct = self.scores.get(path)
        if direct is None:
            direct = self.scores[path] = score_path(self.kb, path)
        if not math.isclose(full, direct, rel_tol=1e-9):
            raise AssertionError(
                f"cleave identity violated: combined {full!r} vs direct {direct!r}")


class GlueThenValidateEngine(ReferenceEngine):
    """`ReferenceEngine` whose meetings are glued, validated, scored and
    deduplicated on rendered text, in that order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._emitted_texts: set[str] = set()

    def _place(self, origin: Observation, rank: int, at: str, state: int, score: float,
               link: TraversalLink | None, prev: ReferenceMark | None) -> None:
        # The engine's best-trail retention, keyed by instance name, not
        # by seed rank; then every meeting with a mark from another
        # origin, in the order the marks arrived here.
        key = (origin.instance, at, state)
        here = self._at.setdefault(at, {})
        incumbent = here.get(key)
        if incumbent is not None:
            if incumbent.score >= score:
                return
            incumbent.displaced = True
        mark = here[key] = ReferenceMark(origin, rank, at, state, score, link, prev)
        for other in list(here.values()):
            if other.origin.instance != origin.instance:
                self._collide(mark, other)
        if len(trail(mark)) < self.config.max_depth:
            self._queue.append(mark)

    def _collide(self, m1: ReferenceMark, m2: ReferenceMark) -> None:
        # Orient the glued path from the earlier-seeded observation.
        if m2.rank < m1.rank:
            m1, m2 = m2, m1
        links = trail(m1) + tuple(flip(self.kb, link) for link in reversed(trail(m2)))
        if not links:
            return
        path = Path(start=m1.origin, links=links, end=m2.origin)
        if not validate(path):
            return  # the seam forms a plateau/valley no single path allows
        full = combine(self.kb, m1.at, m1.score, m2.score)
        if full < self.config.full_threshold or full < sys.float_info.min:
            return
        direct = score_path(self.kb, path)
        if not math.isclose(full, direct, rel_tol=1e-9):
            raise AssertionError(
                f"cleave identity violated: combined {full!r} vs direct {direct!r}")
        text = path.render()
        if text in self._emitted_texts:
            return
        self._emitted_texts.add(text)
        self.scores[path] = direct


def _most_specific(kb: KnowledgeBase, instance: str, types: list[str]) -> str:
    best = types[0]
    for t in types[1:]:
        if t == best or isa_star(kb, t, best):
            best = t
        elif not isa_star(kb, best, t):
            raise ValueError(
                f"types of {instance!r} are not on one isa chain: {best!r}, {t!r}")
    return best


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


def insts_of(statements: tuple[Statement, ...]) -> tuple[Inst, ...]:
    return tuple(s for s in statements if isinstance(s, Inst))


def eqs_of(statements: tuple[Statement, ...]) -> tuple[SlotEq, ...]:
    return tuple(s for s in statements if isinstance(s, SlotEq))


def texts_of(statements: tuple[Statement, ...]) -> tuple[str, ...]:
    """The statements as the package writes them, one text each."""
    return tuple(s.render() for s in statements)


def statements_by_walk(path: Path, fresh_prefix: str = "gen-") -> tuple[Statement, ...]:
    """S(P): every typing and slot equality the path asserts, in derivation
    order, the first occurrence of each kept.  Isa moves carry the
    instance forward and re-type it; each role move hands off to a fresh
    instance, except the last role move of the path, which hands off to
    the end observation's instance."""
    end = path.end
    last = role_count(path)
    statements: list[Statement] = []
    instance, schema = path.start.instance, path.start.schema
    handed = 0
    for link in path.links:
        statements.append(Inst(instance, schema))
        if link.kind.is_role:
            handed += 1
            arriving = f"{fresh_prefix}{handed}" if handed < last else end.instance
            if link.kind is LinkKind.ROLE_UP:
                statements.append(SlotEq(arriving, link.slot, instance))
            else:
                statements.append(SlotEq(instance, link.slot, arriving))
            instance = arriving
        schema = link.destination
    # A valid path has already typed its end instance as observed here.
    statements += (Inst(instance, schema), Inst(end.instance, end.schema))
    return tuple(dict.fromkeys(statements))


def relevant_statements_by_fold(kb: KnowledgeBase, path: Path,
                                fresh_prefix: str = "gen-") -> tuple[Statement, ...]:
    """RS(P): all slot equalities, one inst statement per instance at its
    relevant type, in S(P) order."""
    full = statements_by_walk(path, fresh_prefix)
    types: dict[str, list[str]] = {}
    for s in insts_of(full):
        types.setdefault(s.instance, []).append(s.schema)
    rts = {i: _most_specific(kb, i, ts) for i, ts in types.items()}
    return tuple(s for s in full if isinstance(s, SlotEq) or rts[s.instance] == s.schema)


@dataclass
class ScanRegistry:
    """What the rest of the input corroborates: (schema, slot) records plus
    the set of instances that were directly observed."""

    records: set[tuple[str, str]] = field(default_factory=set)
    observed: set[str] = field(default_factory=set)

    def add_corroboration(self, schema: str, slot: str) -> None:
        self.records.add((schema, slot))

    def add_observed(self, instance: str) -> None:
        self.observed.add(instance)


def evidence_filter_by_scan(kb: KnowledgeBase, path: Path, registry: ScanRegistry,
                            fresh_prefix: str = "gen-") -> bool:
    """True iff everything the path's RS(P), as the fold gives it, asserts
    has some support: each instance is observed or corroborated at its
    relevant type (or an ancestor), and each slot equality is corroborated
    for that slot at the owner's relevant type (or an ancestor)."""
    rs = relevant_statements_by_fold(kb, path, fresh_prefix)
    rt = {s.instance: s.schema for s in insts_of(rs)}

    def matches(schema: str, slot: str | None) -> bool:
        for recorded_schema, recorded_slot in registry.records:
            if slot is not None and recorded_slot != slot:
                continue
            if recorded_schema == schema or isa_star(kb, schema, recorded_schema):
                return True
        return False

    for inst in insts_of(rs):
        if inst.instance in registry.observed:
            continue
        if not matches(inst.schema, None):
            return False
    for eq in eqs_of(rs):
        if not matches(rt[eq.owner], eq.slot):
            return False
    return True


def posterior_by_fractions(kb: KnowledgeBase, path: Path, gamma1: float,
                           gamma0: float) -> Fraction:
    """The joint `exact_posterior` computes for ``path``, from the same
    float inputs in exact rational arithmetic, so no float range limits
    it: gamma1*A / (gamma0*s0 + (gamma1 - gamma0)*A), with s0 the product
    of the two end normalizers and A the all-true weight."""
    q = [Fraction(kb.prior(inst.schema))
         for inst in insts_of(relevant_statements_by_fold(kb, path))]
    eq_true = [Fraction(kb.eq_prior) / Fraction(kb.prior(link.filler))
               for link in path.links if link.kind.is_role]

    def likelihoods(obs: Observation, qe: Fraction) -> tuple[Fraction, Fraction]:
        if qe == 1:
            return Fraction(1), Fraction(0)
        b = Fraction(obs.belief) * qe / Fraction(kb.prior(obs.schema))
        return b / qe, (1 - b) / (1 - qe)

    (t1, f1), (t2, f2) = likelihoods(path.start, q[0]), likelihoods(path.end, q[-1])
    s0 = (q[0] * t1 + (1 - q[0]) * f1) * (q[-1] * t2 + (1 - q[-1]) * f2)
    a = t1 * t2 * math.prod(q) * math.prod(eq_true)
    g1, g0 = Fraction(gamma1), Fraction(gamma0)
    return g1 * a / (g0 * s0 + (g1 - g0) * a)


def sc_by_fractions(kb: KnowledgeBase, path: Path) -> Fraction:
    """`score_path` of ``path`` from the same float inputs in exact
    rational arithmetic: the start belief, each link's multiplier, and
    end.belief / p(end)."""
    value = Fraction(path.start.belief)
    for link in path.links:
        value *= Fraction(link.multiplier)
    return value * Fraction(path.end.belief) / Fraction(kb.prior(path.end.schema))


_CHUNK_BITS = 16


def masses_by_enumeration(network: VertebrateNetwork,
                          cpts: Cpts) -> tuple[float, float, float]:
    """(s0, s1, numerator) by full enumeration: the probability of the end
    evidence, of the end and interior evidence together, and of those with
    every instance and equality node true."""
    n_inst = len(network.priors)
    n_eq = len(cpts.eq_true)
    n = n_inst + n_eq

    priors = np.asarray(network.priors)
    eq_p = np.asarray(cpts.eq_true)
    (e1_t, e1_f), (e2_t, e2_f) = cpts.evidence

    total = 1 << n
    s0 = 0.0
    s1 = 0.0
    numerator = 0.0
    chunk = 1 << min(n, _CHUNK_BITS)
    for base in range(0, total, chunk):
        idx = np.arange(base, min(base + chunk, total), dtype=np.uint64)
        bits = (idx[:, None] >> np.arange(n, dtype=np.uint64)) & 1
        inst_bits = bits[:, :n_inst].astype(bool)
        eq_bits = bits[:, n_inst:].astype(bool)

        w = np.prod(np.where(inst_bits, priors, 1.0 - priors), axis=1)
        w *= np.where(inst_bits[:, 0], e1_t, e1_f)
        w *= np.where(inst_bits[:, -1], e2_t, e2_f)
        both = inst_bits[:, :-1] & inst_bits[:, 1:]  # parents of eq k
        w *= np.prod(np.where(eq_bits, np.where(both, eq_p, 0.0),
                              np.where(both, 1.0 - eq_p, 1.0)), axis=1)
        w_ei = w * np.where(eq_bits.all(axis=1), cpts.gamma1, cpts.gamma0)

        s0 += float(w.sum())
        s1 += float(w_ei.sum())
        if base + len(idx) == total:
            numerator = float(w_ei[-1])  # the all-true assignment
    return s0, s1, numerator


def posterior_by_enumeration(network: VertebrateNetwork,
                             cpts: Cpts) -> tuple[float, float]:
    """(joint, residual) by full enumeration.

    ``joint`` is P(every instance and equality node true | both end
    evidence nodes and the interior evidence node).  ``residual`` is the
    bounded group the joint factors into beyond the spinal contribution:
    p(==)^k * gamma1 / P(E_I | e1, e2).
    """
    s0, s1, numerator = masses_by_enumeration(network, cpts)
    joint = numerator / s1
    p_ei_given_ends = s1 / s0
    residual = (cpts.eq_prior ** len(cpts.eq_true)) * cpts.gamma1 / p_ei_given_ends
    return joint, residual


@dataclass
class _Factor:
    vars: tuple[int, ...]
    table: dict[tuple[int, ...], float] = field(default_factory=dict)

    def value(self, assignment: dict[int, int]) -> float:
        return self.table[tuple(assignment[v] for v in self.vars)]


def _multiply(a: _Factor, b: _Factor) -> _Factor:
    vars_out = tuple(dict.fromkeys(a.vars + b.vars))
    out = _Factor(vars_out)
    for values in iter_product((0, 1), repeat=len(vars_out)):
        assignment = dict(zip(vars_out, values))
        out.table[values] = a.value(assignment) * b.value(assignment)
    return out


def _sum_out(factor: _Factor, var: int) -> _Factor:
    keep = tuple(v for v in factor.vars if v != var)
    out = _Factor(keep, {values: 0.0 for values in iter_product((0, 1), repeat=len(keep))})
    pos = factor.vars.index(var)
    for values, weight in factor.table.items():
        reduced = values[:pos] + values[pos + 1:]
        out.table[reduced] += weight
    return out


def _eliminate_all(factors: list[_Factor], order: list[int]) -> float:
    live = list(factors)
    for var in order:
        touching = [f for f in live if var in f.vars]
        rest = [f for f in live if var not in f.vars]
        merged = touching[0]
        for f in touching[1:]:
            merged = _multiply(merged, f)
        live = rest + [_sum_out(merged, var)]
    result = 1.0
    for f in live:
        result *= f.table[()]
    return result


def posterior_by_elimination(network: VertebrateNetwork, cpts: Cpts) -> tuple[float, float]:
    """Same (joint, residual) by sum-product variable elimination."""
    n_inst = len(network.priors)
    n_eq = len(cpts.eq_true)
    inst_var = list(range(n_inst))
    eq_var = [n_inst + k for k in range(n_eq)]

    factors: list[_Factor] = []
    for i, q in enumerate(network.priors):
        factors.append(_Factor((inst_var[i],), {(1,): q, (0,): 1.0 - q}))
    (e1_t, e1_f), (e2_t, e2_f) = cpts.evidence
    factors.append(_Factor((inst_var[0],), {(1,): e1_t, (0,): e1_f}))
    factors.append(_Factor((inst_var[-1],), {(1,): e2_t, (0,): e2_f}))
    for k, p in enumerate(cpts.eq_true):
        table = {}
        for a, b, e in iter_product((0, 1), repeat=3):
            on = p if (a and b) else 0.0
            table[(a, b, e)] = on if e else 1.0 - on
        factors.append(_Factor((inst_var[k], inst_var[k + 1], eq_var[k]), table))

    interior = _Factor(tuple(eq_var), {
        values: cpts.gamma1 if all(values) else cpts.gamma0
        for values in iter_product((0, 1), repeat=n_eq)
    })

    order = inst_var + eq_var
    s0 = _eliminate_all(factors, order)
    s1 = _eliminate_all(factors + [interior], order)
    all_true = {v: 1 for v in order}
    numerator = 1.0
    for f in factors + [interior]:
        numerator *= f.value(all_true)

    joint = numerator / s1
    residual = (cpts.eq_prior ** n_eq) * cpts.gamma1 / (s1 / s0)
    return joint, residual
