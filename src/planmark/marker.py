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

Each observation seeds a mark on its schema.  Marks spread outward to
neighboring schemas in FIFO order, carrying a validity-DFA state (an int),
a running half-path score (a float: the same product without the terminal
factor), the link they arrived by, the mark they extended, their depth and
their origin's seed rank.  Taking a link is one table step and one
multiply, as in `extend_half`; the move is kept only if the DFA accepts it,
the extended score stays at or above the half threshold T and in the normal
float range, and it beats the mark its schema's table holds at its key
(origin seed rank, DFA state): one mark per key, the best-scoring trail.  A
displaced mark is flagged.

When a mark lands where marks from other origins already sit, only those
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
path in one pass: the first mark's links, read back along the marks'
``prev`` into one list and reversed, then the twins of the other mark's
links from the meeting back to its origin, appended as they are read, and
the list made one tuple.  A path not yet in `MarkerEngine.scores`, the
engine's one record of what it emitted (each path and its direct score, the
``sc`` a run reports, in emission order), is scored by the fold
`score_path` runs, started from the first mark's half score, which already
is the start belief times its links' multipliers, and run over the tuple's
glued tail: the same floats in the same order, so the score is
`score_path`'s, bit for bit, and recorded there.  A path of n links can be
met again at up to n + 1 cleave points; it is not built or scored again,
but each meeting that clears the full threshold checks its cleave score
against the recorded one.  Marks extend only along the base's adjacency and
meet only at the schema they share, so `extend_half` and `combine` trust
their caller to chain a link onto the half and to meet halves at ``at``.

What retention loses is dominated: a path at or above the full threshold
with a cleave point where both halves stay at or above T all the way out
is emitted, or an emitted path between the same two observations scores
at least as high (to a relative 1e-9, since trails tied on half score can
fold to direct scores an ulp apart), unless at each such cleave one half
passes a key whose retained trail is max_depth links long, and so is
never extended.
The exhaustive path oracle the engine is checked against, and the
completeness check built on it, live with the tests in `tests/oracles.py`.
"""

from __future__ import annotations

import math
import sys
from collections import deque

from .kb import KnowledgeBase, Observation
from .paths import ALL_STATES, SEAM_VALID, START_STATE, STEP, Path, TraversalLink
# bench/tracing.py wraps this module's validate, so it stays imported.
from .paths import validate  # noqa: F401

# The fixed floor under both thresholds (see `EngineConfig`).
_NORMAL_MIN = sys.float_info.min


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
    """A half path: its origin and seed rank, where it is, the DFA state it
    left, its half score, the link it arrived by and the mark it extended
    (None for a seed), its depth, and whether a better trail displaced it."""

    __slots__ = ("origin", "rank", "at", "state", "score", "link", "prev", "depth",
                 "displaced")

    def __init__(self, origin: Observation, rank: int, at: str, state: int, score: float,
                 link: TraversalLink | None, prev: Mark | None):
        self.origin = origin
        self.rank = rank
        self.at = at
        self.state = state
        self.score = score
        self.link = link
        self.prev = prev
        self.depth = 0 if prev is None else prev.depth + 1
        self.displaced = False


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
        if max_depth < 1:
            raise ValueError("max_depth must be positive")
        self.half_threshold = half_threshold
        self.full_threshold = full_threshold
        self.max_depth = max_depth


class MarkerEngine:
    """Single-owner mutable engine over one shared immutable base."""

    def __init__(self, kb: KnowledgeBase, config: EngineConfig | None = None):
        self.kb = kb
        self.config = config = config or EngineConfig()
        self._half_floor = max(config.half_threshold, _NORMAL_MIN)
        self._full_floor = max(config.full_threshold, _NORMAL_MIN)
        # Per schema, its marks by their origin's `Mark.rank` + DFA state.
        self._at: dict[str, dict[int, Mark]] = {}
        self._queue: deque[Mark] = deque()
        self._seeds: dict[str, Observation] = {}
        # Each emitted path and its direct score, in emission order.
        self.scores: dict[Path, float] = {}

    # bench/run.py reads this copy of `scores`' keys, so it stays.
    @property
    def emitted(self) -> list[Path]:
        return list(self.scores)

    @property
    def marks(self) -> dict[tuple[str, str, int], Mark]:
        """A copy of the retained marks by (instance, schema, DFA state), schema by schema."""
        return {(mark.origin.instance, at, mark.state): mark
                for at, here in self._at.items() for mark in here.values()}

    def seed(self, obs: Observation) -> None:
        """Place a depth-0 mark for an observation; idempotent for an
        identical re-observation.  Collisions with marks already spread
        from other origins are emitted immediately."""
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
        """Drain the queue breadth-first, recording each path its meetings
        emit in `scores`."""
        adjacency, half_floor = self.kb.adjacency, self._half_floor
        queue, place = self._queue, self._place
        while queue:
            mark = queue.popleft()
            if mark.displaced:
                continue  # superseded by a better trail
            origin, rank, row, score = mark.origin, mark.rank, STEP[mark.state], mark.score
            for link in adjacency[mark.at]:
                state = row[link.kind]
                if state is None:
                    continue
                extended = score * link.multiplier
                if extended < half_floor:
                    continue
                place(origin, rank, link.destination, state, extended, link, mark)

    def _place(self, origin: Observation, rank: int, at: str, state: int, score: float,
               link: TraversalLink | None, prev: Mark | None) -> None:
        here = self._at.get(at) or self._at.setdefault(at, {})
        key = rank + state
        incumbent = here.get(key)
        if incumbent is not None:
            if incumbent.score >= score:
                return
            incumbent.displaced = True
        mark = here[key] = Mark(origin, rank, at, state, score, link, prev)
        # Only a meeting the seam table allows can yield a valid path, so
        # only those reach `_collide`, in the order their keys were first
        # filled here: a mark that displaced another sits in its place.
        # Every mark of an origin carries its one seeded observation.
        seam = SEAM_VALID[state]
        for other in here.values():
            if seam[other.state] and other.origin is not origin:
                self._collide(mark, other)
        if mark.depth < self.config.max_depth:
            self._queue.append(mark)

    def _collide(self, m1: Mark, m2: Mark) -> None:
        # Orient the glued path from the earlier-seeded observation.
        if m2.rank < m1.rank:
            m1, m2 = m2, m1
        # The seam is valid, so the glued path is; one that scores below
        # the full threshold or the normal floor builds nothing.
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
        key, scores = (m1.origin, tuple(links), m2.origin), self.scores
        direct = scores.get(key)
        if direct is None:
            direct = scores[tuple.__new__(Path, key)] = _fold(
                kb, m1.score, key[1][cleave:], m2.origin)
        if not math.isclose(full, direct, rel_tol=1e-9):
            raise AssertionError(
                f"cleave identity violated: combined {full!r} vs direct {direct!r}")
