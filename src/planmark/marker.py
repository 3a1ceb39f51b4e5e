"""Breadth-first marker passing with score-based cutoff, and the spinal
contribution it prunes on.

The spinal contribution is a cheap, incrementally computable bound on the
posterior of the network a path induces: an upper bound when gamma0 >=
gamma1, and otherwise one up to a factor p(==)^k * gamma1 / gamma0 for k
role links (see `bayes`), 9 at the default gammas for two role links at
p(==) = 1e-3, as in `corpus`.  `score_path` computes it as one
left-to-right product: the start observation's belief, one multiplier per
link, and the terminal factor belief / prior of the end observation.  The
per-link multipliers, which `kb` computes once at load and each link of
the base's link table carries as ``multiplier``:

    RoleUp    p(filled) / p(filler)
    RoleDown  1.0
    IsaUp     1.0
    IsaDown   p(specific) / p(general)

Each observation is an origin: `seed` checks it and records it, and
places nothing.  `spread` spreads each origin seeded since the last call,
alone and in seed order, so an origin's spread ends before the next one's
starts.  An origin's spread is its program: marks spread outward from a
root mark on its schema one level at a time, each carrying a validity-DFA
state (an int), a running half-path score (a float: the same product
without the terminal factor), the link it arrived by and the mark it
extended.  The marks placed at depth d are expanded in order into those
at depth d + 1, so a mark's depth is its level, and no mark stores it.
Taking a link is one table step and one multiply, as in `extend_half`;
the move is kept only if the DFA accepts it, the extended score stays at
or above the half threshold T and in the normal float range, and it beats
the mark the program holds at that schema and DFA state: one mark per
key, the best-scoring trail.  A mark displaced by a better one before its
level is expanded is skipped.  The spread stops after max_depth levels,
or at the first level that places nothing.  The program is those marks in
the order they were placed, a tuple.

`_program` records a program from its seed key alone: (schema, belief,
half floor, max_depth).  It reads no engine state and meets nothing, and
its retention is its own, so a program is a function of its key, and so
are its retained marks: each schema's last mark per DFA state, in the
order their keys were first filled there, which `_program` returns with
the program.  The base keeps programs in its spread table,
`KnowledgeBase.spreads`, under that key, so each distinct seed is spread
once per base, across calls.

An origin meets only the origins seeded before it, whose spreads have
ended by then: its marks, in program order, meet their retained marks.
So what two origins meet is a function of their two seed keys, and so
are the paths they emit, which run from the earlier one's observation to
the later one's.  The base keeps each such pair's first meetings in its
pair table, `KnowledgeBase.pairs`, under (earlier seed key, later seed
key, full floor): one entry per path, from the meeting that first glued
it, as (position of the later origin's mark in its program, links,
direct score).  `spread` takes an origin's program from the spread table,
or records it and adds it there, and finds its partners, the earlier
origins whose programs reach a schema its own reaches, through an index
the engine keeps from each schema to those origins in seed order.  It
takes each partner's entries from the pair table; a pair the table lacks
is filled by one pass over the origin's program against the partner's
retained marks (those `_program` returned, or rebuilt from the partner's
program) and added to the table.  Each mark met the earlier origins'
marks at its schema in seed order, those of one origin in the order
their keys were first filled there, so a stable sort of the partners'
entries, taken in seed order, on the program position gives the order
the meetings emitted paths in, whether an entry was replayed or just
filled.  So the engine emits the same paths, in the same order, with the
same scores, whatever the tables hold, and whether the observations were
seeded one per `spread` or in a batch; a call whose pairs are all in the
table meets nothing.  `MarkerEngine.marks` is rebuilt from the programs
when it is read.

A program goes to its table whole, before any pair is filled, and a
pair's entries once its fill is done, so no engine ever replays either
half recorded, and neither is changed once there: every origin that
replays a program shares its marks, which are the base's to read, not
the caller's to change.  A pair's entries hold no marks, so clearing the
spread table leaves the pair table valid.  The spread table is cleared
when it would hold more than `_SPREADS_MAX` marks, about 10 MB, and the
pair table when it would hold more than `_PAIRS_MAX` pairs and paths
together, under 4 MB, so a caller that feeds ever new beliefs pays at
most one clear per that many; a count of programs or pairs would bound
nothing, since one holds from a single mark, or no path, to thousands.
Additions take a lock, so that the counts stay exact when threads share
a base; of two entries recorded with one key, by two threads, the table
keeps the first.

A fill meets a mark of the program only with those retained marks of the
partner at its schema whose DFA state the seam table pairs with its own:
marks from unrelated trails can meet at a plateau or a valley, or with
no role link between them, and no single valid path allows that.  They
are met in the order their retention keys were first filled at that
schema, which is not always the order they were placed: a mark that
displaces another takes its place.  The cleave rule (`combine`) scores
each remaining meeting at schema n from the two half scores as
``h1 * (h2 / p(n))``, which equals the whole path's score.  Dividing
first keeps the intermediate at the size of a score: two halves that
each carry a tiny prior ratio would multiply into the subnormal range and
lose the precision the identity is checked to.  That identity is what
lets the engine prune on a threshold while spreading, before it knows
which paths will meet.  Only a meeting whose full score clears the full
threshold, and is a normal float, is glued into a whole path in one
pass, oriented from the earlier origin: the partner's mark's links, read
back along the marks' ``prev`` into one list and reversed, then the twins
of the program's mark's links from the meeting back to its origin,
appended as they are read, and the list made one tuple.  A path the pair
has not yet met is scored by the fold `score_path` runs, started from the
partner's mark's half score, which already is the start belief times its
links' multipliers, and run over the tuple's glued tail: the same floats
in the same order, so the score is `score_path`'s, bit for bit, and it
is recorded in the pair's entries.  A path of n links can be met again at
up to n + 1 cleave points; it is not built or scored again, but each
meeting that clears the full threshold checks its cleave score against
the recorded one.  A replayed entry is not checked again.  Every entry,
replayed or filled, becomes one path of `MarkerEngine.scores`, the
engine's one record of what it emitted (each path and its direct score,
the ``sc`` a run reports, in emission order).  Marks extend only along
the base's adjacency and meet only at the schema they share, so
`extend_half` and `combine` trust their caller to chain a link onto the
half and to meet halves at ``at``.

What retention loses is dominated: a path at or above the full threshold
with a cleave point where both halves stay at or above T all the way out
is emitted, or an emitted path between the same two observations scores
at least as high (to a relative 1e-9, since trails tied on half score can
fold to direct scores an ulp apart), unless at each such cleave one half
passes a key whose retained trail is max_depth links long, and so is
never extended.
The exhaustive path oracle the engine is checked against, the completeness
check built on it, and the one-pass engine that builds and meets each
mark on the call, which the engine is checked against bit for bit, live
with the tests in `tests/oracles.py`.
"""

from __future__ import annotations

import math
import threading
from operator import itemgetter

from .kb import _MIN_NORMAL, KnowledgeBase, Observation, _check_real
from .paths import SEAM_VALID, START_STATE, STEP, Path, TraversalLink
# bench/tracing.py wraps this module's validate, so it stays imported.
from .paths import validate  # noqa: F401

# Marks a base's spread table holds before it is cleared: 104 to 136 bytes
# each with the program tuples and the table's keys (tracemalloc, on the
# benchmark's bases), so under 10 MB.
_SPREADS_MAX = 65_536

# Pairs and paths together a base's pair table holds before it is
# cleared: 150 to 200 bytes each with the entries, their links and the
# table's keys (tracemalloc, on the benchmark's bases), so under 4 MB.
_PAIRS_MAX = 16_384

# Serialises additions to every base's spread and pair tables, so that a
# table's count stays exact when threads share the base.
_SPREADS_LOCK = threading.Lock()


def _fold(kb: KnowledgeBase, value: float, links: tuple[TraversalLink, ...],
          end: Observation) -> float:
    """``value`` times each link's multiplier, then the terminal factor
    end.belief / p(end)."""
    for link in links:
        value *= link.multiplier
    return value * (end.belief / kb.priors[end.schema])


def score_path(kb: KnowledgeBase, path: Path) -> float:
    """The spinal contribution of a whole path."""
    return _fold(kb, path.start.belief, path.links, path.end)


def extend_half(kb: KnowledgeBase, score: float, link: TraversalLink) -> float:
    """Score of a half-path after one more link; the link carries its
    multiplier, so ``kb`` is not read."""
    return score * link.multiplier


def combine(kb: KnowledgeBase, at: str, h1: float, h2: float) -> float:
    """Score of the whole path formed by gluing two halves that both end
    at schema ``at``."""
    return h1 * (h2 / kb.priors[at])


class Mark:
    """A half path of a spread program: where it is, the DFA state it
    left, its half score, the link it arrived by and the mark it extended
    (None for a seed).  Its depth is the number of marks back to the
    seed; the spread that placed it knew it as its level."""

    __slots__ = ("at", "state", "score", "link", "prev")

    def __init__(self, at: str, state: int, score: float, link: TraversalLink | None,
                 prev: Mark | None):
        self.at = at
        self.state = state
        self.score = score
        self.link = link
        self.prev = prev


def _program(adjacency: dict[str, tuple[TraversalLink, ...]], schema: str,
             belief: float, half_floor: float, max_depth: int
             ) -> tuple[tuple[Mark, ...], dict[str, dict[int, Mark]]]:
    """The spread program of a seed: spread from a root mark on ``schema``
    one level at a time, at most ``max_depth`` levels, keeping one mark per
    schema and DFA state, and return the marks in the order they were
    placed, with the retained ones by schema and DFA state, each schema's
    in the order their keys were first filled."""
    root = Mark(schema, START_STATE, belief, None, None)
    retained = {schema: {START_STATE: root}}
    program, level = [root], [root]
    for _ in range(max_depth):
        placed = []
        for mark in level:
            if retained[mark.at][mark.state] is not mark:
                continue  # displaced before its level was expanded
            row, score = STEP[mark.state], mark.score
            for link in adjacency[mark.at]:
                state = row[link.kind]
                if state is None:
                    continue
                extended = score * link.multiplier
                if extended < half_floor:
                    continue
                at = link.destination
                here = retained.get(at) or retained.setdefault(at, {})
                incumbent = here.get(state)
                if incumbent is not None and incumbent.score >= extended:
                    continue
                here[state] = child = Mark(at, state, extended, link, mark)
                placed.append(child)
        if not placed:
            break  # so a large max_depth runs no empty levels
        program += placed
        level = placed
    return tuple(program), retained


class EngineConfig:
    """Thresholds and limits for one engine run, by default the class attributes.

    ``full_threshold`` defaults to T squared: a whole path is two halves
    that each cleared T, joined by a division by a prior.  Below both
    thresholds sits a fixed floor, the smallest normal float
    (``sys.float_info.min``): the engine drops a half or whole score under
    it even at thresholds of 0, since a subnormal score has lost the
    relative precision the cleave identity is checked to, or underflowed.
    """

    half_threshold: float = 30.0
    full_threshold: float | None = None
    max_depth: int = 10

    def __init__(self, half_threshold: float = half_threshold,
                 full_threshold: float | None = full_threshold,
                 max_depth: int = max_depth):
        # The half threshold keys a base's spread programs, so True or "1"
        # must not pass for a threshold.
        _check_real("half_threshold", half_threshold)
        if full_threshold is None:
            full_threshold = half_threshold * half_threshold
        _check_real("full_threshold", full_threshold)
        if not (half_threshold >= 0 and full_threshold >= 0):
            raise ValueError("thresholds must be nonnegative")
        # `max_depth` keys a base's spread programs, so 2.5 or True must
        # not pass for a depth.
        if isinstance(max_depth, bool) or not isinstance(max_depth, int):
            raise ValueError(f"max_depth must be an int, got {max_depth!r}")
        if max_depth < 1:
            raise ValueError("max_depth must be positive")
        self.half_threshold = half_threshold
        self.full_threshold = full_threshold
        self.max_depth = max_depth


class MarkerEngine:
    """Single-owner mutable engine over one shared base, whose spread and
    pair tables it reads and fills."""

    def __init__(self, kb: KnowledgeBase, config: EngineConfig | None = None):
        self.kb = kb
        self.config = config = config or EngineConfig()
        self._half_floor = max(config.half_threshold, _MIN_NORMAL)
        self._full_floor = max(config.full_threshold, _MIN_NORMAL)
        self._seeds: dict[str, Observation] = {}
        # The seeded observations in seed order, and the seed keys and
        # programs of those that have spread.
        self._origins: list[Observation] = []
        self._keys: list[tuple] = []
        self._programs: list[tuple[Mark, ...]] = []
        # Per schema, the origins whose programs reach it, in seed order.
        self._reach: dict[str, list[int]] = {}
        # Each emitted path and its direct score, in emission order.
        self.scores: dict[Path, float] = {}

    # bench/run.py reads this copy of `scores`' keys, so it stays.
    @property
    def emitted(self) -> list[Path]:
        return list(self.scores)

    @property
    def marks(self) -> dict[tuple[str, str, int], Mark]:
        """The retained marks by (instance, schema, DFA state), schema by
        schema, in a new dict.  The marks are the base's, shared by every
        call that replays their programs: read them, never change them."""
        at_: dict[str, dict[tuple[str, str, int], Mark]] = {}
        for obs, program in zip(self._origins, self._programs):
            for mark in program:
                at_.setdefault(mark.at, {})[obs.instance, mark.at, mark.state] = mark
        return {key: mark for here in at_.values() for key, mark in here.items()}

    def seed(self, obs: Observation) -> None:
        """Record an observation as an origin for the next `spread`;
        idempotent for an identical re-observation.  It places no mark."""
        self.kb.check_observation(obs)
        previous = self._seeds.get(obs.instance)
        if previous is not None:
            if previous != obs:
                raise ValueError(
                    f"instance {obs.instance!r} already observed as {previous}")
            return
        self._seeds[obs.instance] = obs
        self._origins.append(obs)

    def spread(self) -> None:
        """Spread each origin seeded since the last call, alone and in seed
        order, recording each path its meetings with the earlier origins
        emit in `scores`: take its program and each pair's first meetings
        from the base's tables, or record them and add them there."""
        kb = self.kb
        spreads, pairs, half_floor = kb.spreads, kb.pairs, self._half_floor
        origins, keys, programs, reach = self._origins, self._keys, self._programs, self._reach
        scores, full_floor, max_depth = self.scores, self._full_floor, self.config.max_depth
        # The retained marks by schema of the programs this call recorded,
        # or rebuilt for a fill, by seed key.
        retained: dict[tuple, dict[str, dict[int, Mark]]] = {}
        for index in range(len(programs), len(origins)):
            obs = origins[index]
            key = (obs.schema, obs.belief, half_floor, max_depth)
            program = spreads.get(key)
            if program is None:
                program, retained[key] = _program(kb.adjacency, *key)
                with _SPREADS_LOCK:
                    # Another thread may have recorded it too; the first stays.
                    if key not in spreads:
                        if kb.spread_marks + len(program) > _SPREADS_MAX:
                            spreads.clear()
                            kb.spread_marks = 0
                        spreads[key] = program
                        kb.spread_marks += len(program)
            keys.append(key)
            programs.append(program)
            # Only an earlier origin whose program reaches a schema this
            # one's does can meet it.
            partners = set()
            for at in retained.get(key) or {mark.at for mark in program}:
                here = reach.get(at)
                if here is None:
                    reach[at] = [index]
                else:
                    partners.update(here)
                    here.append(index)
            found, missing = [], {}
            for partner in sorted(partners):
                entries = pairs.get((keys[partner], key, full_floor))
                if entries is None:
                    missing[partner] = ({}, entries := [])
                elif not entries:
                    continue
                found.append((origins[partner], entries))
            if missing:
                self._fill(index, retained, missing)
                with _SPREADS_LOCK:
                    for partner, (_, entries) in missing.items():
                        pair = (keys[partner], key, full_floor)
                        if pair not in pairs:
                            # A pair counts one, and one more per path.
                            if len(pairs) + kb.pair_paths + len(entries) >= _PAIRS_MAX:
                                pairs.clear()
                                kb.pair_paths = 0
                            pairs[pair] = tuple(entries)
                            kb.pair_paths += len(entries)
            if len(found) == 1:
                start, entries = found[0]
                for _, links, direct in entries:
                    scores[tuple.__new__(Path, (start, links, obs))] = direct
            elif found:
                # Each mark met the earlier origins' marks at its schema in
                # seed order, so a stable sort on the program position
                # merges the pairs' entries.
                met = [(p2, start, links, direct)
                       for start, entries in found for p2, links, direct in entries]
                met.sort(key=itemgetter(0))
                for _, start, links, direct in met:
                    scores[tuple.__new__(Path, (start, links, obs))] = direct

    def _fill(self, index: int, retained: dict[tuple, dict],
              missing: dict[int, tuple[dict, list]]) -> None:
        # Each mark of the origin's program, in order, meets the retained
        # marks at its schema of each earlier origin whose pair the table
        # lacks, those of one origin in the order their keys were first
        # filled there.
        keys, meet = self._keys, self._meet
        end, program = self._origins[index], self._programs[index]
        for partner, pair in missing.items():
            key = keys[partner]
            marks = retained.get(key)
            if marks is None:
                marks = retained[key] = {}
                for mark in self._programs[partner]:
                    marks.setdefault(mark.at, {})[mark.state] = mark
            for p2, m2 in enumerate(program):
                here = marks.get(m2.at)
                if here is not None:
                    seam = SEAM_VALID[m2.state]
                    for m1 in here.values():
                        if seam[m1.state]:
                            meet(pair, end, p2, m2, m1)

    def _meet(self, pair: tuple[dict, list], end: Observation, p2: int, m2: Mark,
              m1: Mark) -> None:
        # The glued path runs from m1, whose origin was seeded first.  The
        # seam is valid, so the path is; one that scores below the full
        # threshold or the normal floor builds nothing.
        kb = self.kb
        full = combine(kb, m1.at, m1.score, m2.score)
        if full < self._full_floor:
            return
        links, mark = [], m1
        while mark.prev is not None:
            links.append(mark.link)
            mark = mark.prev
        links.reverse()
        cleave = len(links)
        while m2.prev is not None:
            links.append(m2.link.twin)
            m2 = m2.prev
        # A path met again at another cleave point is checked against the
        # score its first meeting recorded.
        links, (paths, entries) = tuple(links), pair
        direct = paths.get(links)
        if direct is None:
            direct = paths[links] = _fold(kb, m1.score, links[cleave:], end)
            entries.append((p2, links, direct))
        if not math.isclose(full, direct, rel_tol=1e-9):
            raise AssertionError(
                f"cleave identity violated: combined {full!r} vs direct {direct!r}")
