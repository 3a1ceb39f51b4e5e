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
root mark on its schema in FIFO order, carrying a validity-DFA state (an
int), a running half-path score (a float: the same product without the
terminal factor), the link they arrived by, the mark they extended and
their depth.  Taking a link is one table step and one multiply, as in
`extend_half`; the move is kept only if the DFA accepts it, the extended
score stays at or above the half threshold T and in the normal float
range, and it beats the mark the program holds at that schema and DFA
state: one mark per key, the best-scoring trail.  A mark displaced before
its turn is not expanded, nor is one max_depth links from its root.  The
program is those marks in the order they were placed, a tuple.

`_program` records a program from its seed key alone: (schema, belief,
half floor, max_depth).  It reads no engine state and meets nothing, and
its retention is its own, so a program is a function of its key.  The
base keeps programs in its spread table, `KnowledgeBase.spreads`, under
that key, so each distinct seed is spread once per base, across calls.
`spread` takes an origin's program from the table, or records it and adds
it there, and then places its marks in order, in one loop for every
origin: each mark is kept at its schema under the origin's seed rank plus
its DFA state, and meets the marks there of the earlier origins, final by
then.  So every meeting finds the same marks in the same order, and the
engine emits the same paths, in the same order, with the same scores,
whatever the table holds, and whether the observations were seeded one
per `spread` or in a batch.

A program goes to the table whole, before its marks are placed, so no
engine ever replays one half recorded, and it is never changed once
there: every origin that places it shares its marks, which are the base's
to read, not the caller's to change.  The table is cleared when it would
hold more than `_SPREADS_MAX` marks, about 10 MB, so a caller that feeds
ever new beliefs pays at most one clear per that many marks; a count of
programs would bound nothing, since one holds from a single mark to one
per schema and DFA state.  Additions take a lock, so that the count stays
exact when threads share a base; of two programs recorded with one key,
by two threads, the table keeps the first.

When a mark lands where marks from earlier origins already sit, only those
whose DFA state the seam table pairs with its own are met: marks from
unrelated trails can meet at a plateau or a valley, or with no role link
between them, and no single valid path allows that.  They are met in the
order their retention keys were first filled at that schema, which is not
always the order they arrived: a mark that displaces another takes its
place.  The cleave rule (`combine`) scores each remaining meeting at schema
n from the two half scores as ``h1 * (h2 / p(n))``, which equals the whole
path's score.  Dividing first keeps the intermediate at the size of a
score: two halves that each carry a tiny prior ratio would multiply into
the subnormal range and lose the precision the identity is checked to.
That identity is what lets the engine prune on a threshold while spreading,
before it knows which paths will meet.  Only a meeting whose full score
clears the full threshold, and is a normal float, is glued into a whole
path in one pass, oriented from the earlier origin: its mark's links,
read back along the marks' ``prev`` into one list and reversed, then the
twins of the new mark's links from the meeting back to its origin,
appended as they are read, and the list made one tuple.  A path not yet
in `MarkerEngine.scores`, the engine's one record of what it emitted (each
path and its direct score, the ``sc`` a run reports, in emission order), is
scored by the fold `score_path` runs, started from the earlier origin's
mark's half score, which already is the start belief times its links'
multipliers, and run over the tuple's glued tail: the same floats in the
same order, so the score is `score_path`'s, bit for bit, and recorded
there.  A path of n links can be met again at up to n + 1 cleave points;
it is not built or scored again, but each meeting that clears the full
threshold checks its cleave score against the recorded one.  Marks extend
only along the base's adjacency and meet only at the schema they share, so
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
import sys
import threading
from collections import deque

from .kb import KnowledgeBase, Observation
from .paths import ALL_STATES, SEAM_VALID, START_STATE, STEP, Path, TraversalLink
# bench/tracing.py wraps this module's validate, so it stays imported.
from .paths import validate  # noqa: F401

# The fixed floor under both thresholds (see `EngineConfig`).
_NORMAL_MIN = sys.float_info.min

# Marks a base's spread table holds before it is cleared: 112 to 147 bytes
# each with the program tuples and the table's keys (tracemalloc, on the
# benchmark's bases), so under 10 MB.
_SPREADS_MAX = 65_536

# Serialises additions to every base's spread table, so that a table's
# count of marks stays exact when threads share the base.
_SPREADS_LOCK = threading.Lock()

# A seed rank steps by the number of DFA states, so rank + state keys
# one origin's marks at a schema apart from every other origin's.
_RANK_STEP = len(ALL_STATES)


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
    left, its half score, the link it arrived by, the mark it extended
    (None for a seed) and its depth."""

    __slots__ = ("at", "state", "score", "link", "prev", "depth")

    def __init__(self, at: str, state: int, score: float, link: TraversalLink | None,
                 prev: Mark | None):
        self.at = at
        self.state = state
        self.score = score
        self.link = link
        self.prev = prev
        self.depth = 0 if prev is None else prev.depth + 1


def _program(adjacency: dict[str, tuple[TraversalLink, ...]], schema: str,
             belief: float, half_floor: float, max_depth: int) -> tuple[Mark, ...]:
    """The spread program of a seed: spread breadth-first from a root mark
    on ``schema``, keeping one mark per schema and DFA state, and return
    the marks in the order they were placed."""
    root = Mark(schema, START_STATE, belief, None, None)
    retained = {schema: {START_STATE: root}}
    program, queue = [root], deque([root])
    while queue:
        mark = queue.popleft()
        if retained[mark.at][mark.state] is not mark:
            continue  # displaced before its turn
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
            program.append(child)
            if child.depth < max_depth:
                queue.append(child)
    return tuple(program)


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
        if full_threshold is None:
            full_threshold = half_threshold * half_threshold
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
    """Single-owner mutable engine over one shared base, whose spread
    table it reads and fills."""

    def __init__(self, kb: KnowledgeBase, config: EngineConfig | None = None):
        self.kb = kb
        self.config = config = config or EngineConfig()
        self._half_floor = max(config.half_threshold, _NORMAL_MIN)
        self._full_floor = max(config.full_threshold, _NORMAL_MIN)
        # Per schema, its marks by their origin's seed rank + DFA state.
        self._at: dict[str, dict[int, Mark]] = {}
        self._seeds: dict[str, Observation] = {}
        # The seeded observations in seed order: a seed rank over
        # `_RANK_STEP` indexes it.  Those from `_spread` on have not spread.
        self._origins: list[Observation] = []
        self._spread = 0
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
        origins = self._origins
        return {(origins[key // _RANK_STEP].instance, at, mark.state): mark
                for at, here in self._at.items() for key, mark in here.items()}

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
        order, recording each path its marks' meetings emit in `scores`:
        take the program the base holds for its seed, or record and publish
        one, and place its marks in order."""
        at_, collide, spreads = self._at, self._collide, self.kb.spreads
        half_floor, max_depth = self._half_floor, self.config.max_depth
        origins = self._origins
        for index in range(self._spread, len(origins)):
            self._spread = index + 1
            obs, rank = origins[index], index * _RANK_STEP
            key = (obs.schema, obs.belief, half_floor, max_depth)
            program = spreads.get(key)
            if program is None:
                program = _program(self.kb.adjacency, *key)
                self._publish(key, program)
            for mark in program:
                at, state = mark.at, mark.state
                here = at_.get(at) or at_.setdefault(at, {})
                # A mark placed after a worse one of the same origin takes
                # that mark's key, and so its place in the meeting order.
                here[rank + state] = mark
                # Only a meeting the seam table allows can yield a valid
                # path, so only those reach `_collide`, in the order their
                # keys were first filled here.  Every origin seeded before
                # this one has spread, and none after it has, so the other
                # origins' marks here are those whose keys fall below
                # ``rank``, and a key less its mark's state is the seed
                # rank of the mark's origin.
                seam = SEAM_VALID[state]
                for other_key, other in here.items():
                    if other_key < rank and seam[other.state]:
                        collide(other_key - other.state, other, rank, mark)

    def _publish(self, key: tuple, program: tuple[Mark, ...]) -> None:
        """Add a complete program to the base's table under its seed key."""
        kb = self.kb
        spreads = kb.spreads
        with _SPREADS_LOCK:
            if key in spreads:
                return  # another thread recorded it too
            if kb.spread_marks + len(program) > _SPREADS_MAX:
                spreads.clear()
                kb.spread_marks = 0
            spreads[key] = program
            kb.spread_marks += len(program)

    def _collide(self, rank1: int, m1: Mark, rank2: int, m2: Mark) -> None:
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
        # The key equals the glued `Path` and hashes the same, so a `Path`
        # is built only when it is first emitted; a path met again at
        # another cleave point is checked against its recorded score.
        origins, scores = self._origins, self.scores
        key = (origins[rank1 // _RANK_STEP], tuple(links), origins[rank2 // _RANK_STEP])
        direct = scores.get(key)
        if direct is None:
            direct = scores[tuple.__new__(Path, key)] = _fold(
                kb, m1.score, key[1][cleave:], key[2])
        if not math.isclose(full, direct, rel_tol=1e-9):
            raise AssertionError(
                f"cleave identity violated: combined {full!r} vs direct {direct!r}")
