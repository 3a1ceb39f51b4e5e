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
factor) and the base's links they took, whose count is the mark's depth.
Taking a link is one lookup in the DFA's step table and one multiply by
the link's multiplier, as in `extend_half`; the move is kept only if the
DFA accepts it and the extended score stays at or above the half
threshold T and in the normal float range.  At most one mark per (origin, schema, DFA
state) is retained, keeping the best-scoring trail.

When a mark lands where marks from other origins already sit, only those
whose DFA state the seam table pairs with its own are met, in the order
they arrived: marks from unrelated trails can meet at a plateau or a
valley, or with no role link between them, and no single valid path
allows that.  The cleave rule (`combine`) scores each remaining meeting at
schema n from the two half scores as ``h1 * (h2 / p(n))``, which equals
the whole path's score.  Dividing first keeps the intermediate at the size
of a score: two halves that each carry a tiny prior ratio would multiply
into the subnormal range and lose the precision the identity is checked
to.  That identity is what lets the engine prune on a threshold while
spreading, before it knows which paths will meet.  Only a meeting whose
full score clears the full threshold, and is a normal float, is glued into
a whole path: the first mark's links, then the twins of the other mark's
links from the meeting back to its origin.  A path not emitted before is
scored directly by the fold `score_path` runs, started from the first
mark's half score, which already is the start belief times its links'
multipliers, and run over the glued tail: the same floats in the same
order, so the score is `score_path`'s, bit for bit.  It is checked
against the cleave score and emitted with it (`MarkerEngine.scores`, the
``sc`` a run reports).  The same path met again at another cleave point,
which a path of n links can be up to n + 1 times, is neither built nor
scored again: its cleave score is checked against the stored one, so the
cleave identity is still checked at every meeting that clears the full
threshold.  Marks extend only along the base's adjacency and meet only at
the schema they share, so `extend_half` and `combine` trust their caller
to chain a link onto the half and to meet halves at ``at``.

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
from .paths import SEAM_VALID, START_STATE, STEP, Path, TraversalLink
# bench/tracing.py wraps this module's validate, so it stays imported.
from .paths import validate  # noqa: F401

MarkKey = tuple[str, str, int]

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
    """A half path: where it started, where it is, the DFA state it left,
    its half score and the links it took, oldest first."""

    __slots__ = ("origin", "at", "state", "score", "links")

    def __init__(self, origin: Observation, at: str, state: int, score: float,
                 links: tuple[TraversalLink, ...]):
        self.origin = origin
        self.at = at
        self.state = state
        self.score = score
        self.links = links


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
        self.config = config or EngineConfig()
        self.marks: dict[MarkKey, Mark] = {}
        self._at: dict[str, dict[MarkKey, Mark]] = {}
        self._queue: deque[Mark] = deque()
        self._seed_order: dict[str, int] = {}
        self._seeds: dict[str, Observation] = {}
        # Each emitted path and its direct score, in emission order.
        self.scores: dict[Path, float] = {}
        self.emitted: list[Path] = []
        self._returned = 0  # how many of `emitted` `spread` has returned

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
        self._seeds[obs.instance] = obs
        self._seed_order[obs.instance] = len(self._seed_order)
        self._place(Mark(obs, obs.schema, START_STATE, obs.belief, ()))

    def spread(self) -> list[Path]:
        """Drain the queue breadth-first; returns paths emitted since the
        previous call (including any emitted at seed time)."""
        adjacency = self.kb.adjacency
        half_floor = max(self.config.half_threshold, _NORMAL_MIN)
        marks, queue, place = self.marks, self._queue, self._place
        while queue:
            mark = queue.popleft()
            origin, row, score, links = mark.origin, STEP[mark.state], mark.score, mark.links
            if marks.get((origin.instance, mark.at, mark.state)) is not mark:
                continue  # superseded by a better trail
            for link in adjacency[mark.at]:
                state = row[link.kind]
                if state is None:
                    continue
                extended = score * link.multiplier
                if extended < half_floor:
                    continue
                place(Mark(origin, link.destination, state, extended, links + (link,)))
        since, self._returned = self._returned, len(self.emitted)
        return self.emitted[since:]

    def _place(self, mark: Mark) -> None:
        key = (mark.origin.instance, mark.at, mark.state)
        incumbent = self.marks.get(key)
        if incumbent is not None and incumbent.score >= mark.score:
            return
        self.marks[key] = mark
        here = self._at.get(mark.at)
        if here is None:
            here = self._at[mark.at] = {}
        here[key] = mark
        # Only a meeting the seam table allows can yield a valid path, so
        # only those reach `_collide`, in the order the marks arrived here.
        # Every mark of an origin carries its one seeded observation.
        seam, origin = SEAM_VALID[mark.state], mark.origin
        for other in here.values():
            if seam[other.state] and other.origin is not origin:
                self._collide(mark, other)
        if len(mark.links) < self.config.max_depth:
            self._queue.append(mark)

    def _collide(self, m1: Mark, m2: Mark) -> None:
        # Orient the glued path from the earlier-seeded observation.
        if self._seed_order[m2.origin.instance] < self._seed_order[m1.origin.instance]:
            m1, m2 = m2, m1
        # The seam is valid, so the glued path is; one that scores below
        # the full threshold or the normal floor builds nothing.
        kb = self.kb
        full = combine(kb, m1.at, m1.score, m2.score)
        if full < self.config.full_threshold or full < _NORMAL_MIN:
            return
        tail = tuple([link.twin for link in reversed(m2.links)])
        # The key equals the glued `Path` and hashes the same, so a `Path`
        # is built only when it is first emitted.  A path met again at
        # another cleave point is checked against the score it was
        # emitted with.
        key = (m1.origin, m1.links + tail, m2.origin)
        direct = self.scores.get(key)
        emitted_before = direct is not None
        if not emitted_before:
            direct = _fold(kb, m1.score, tail, m2.origin)
        if not math.isclose(full, direct, rel_tol=1e-9):
            raise AssertionError(
                f"cleave identity violated: combined {full!r} vs direct {direct!r}")
        if emitted_before:
            return
        path = tuple.__new__(Path, key)
        self.scores[path] = direct
        self.emitted.append(path)
