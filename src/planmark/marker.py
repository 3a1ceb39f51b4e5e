"""Breadth-first marker passing with score-based cutoff.

Each observation seeds a mark on its schema.  Marks spread outward to
neighboring schemas in FIFO order, carrying a validity-DFA state (an int),
a running half-path score (a float) and the adjacency moves they took,
whose count is the mark's depth.  Taking a move is one lookup in the DFA's
step table and one multiply by the move's precomputed multiplier; the move
is kept only if the DFA accepts it and the extended score stays at or
above the half threshold T.  At most one mark per (origin, schema, DFA
state) is retained, keeping the best-scoring trail.

When a mark lands where marks from other origins already sit, only those
whose DFA state the seam table pairs with its own are met, in the order
they arrived: marks from unrelated trails can meet at a plateau or a
valley, or with no role link between them, and no single valid path
allows that.  The cleave rule scores each remaining meeting from the two
half scores and the meeting schema's prior.  Only a meeting whose full
score clears the full threshold is glued into a whole path, from each
move's link on one side and its stored twin on the other.  A path not
emitted before is scored link by link with `score_path`, checked against
the cleave score and emitted with that score (`MarkerEngine.scores`, the
``sc`` a run reports).  The same path met again at another cleave point,
which a path of n links can be up to n + 1 times, is neither built nor
scored again: its cleave score is checked against the stored one, so the
cleave identity is still checked at every meeting that clears the full
threshold.  Marks extend only along the base's adjacency and meet only at
the schema they share, so the scoring functions they call check neither.
The exhaustive path oracle the engine is checked against, and the
completeness check built on it, live with the tests in `tests/oracles.py`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .kb import KnowledgeBase, Move, Observation
from .paths import SEAM_VALID, START_STATE, STEP, Path, TraversalLink
from .scoring import combine, initial_score, score_path
# bench/tracing.py wraps this module's validate and extend_half, so they
# stay imported.
from .paths import validate  # noqa: F401
from .scoring import extend_half  # noqa: F401

MarkKey = tuple[str, str, int]


@dataclass(slots=True, eq=False)
class Mark:
    """A half path: where it started, where it is, the DFA state it left,
    its half score and the adjacency moves it took, oldest first."""

    origin: Observation
    at: str
    state: int
    score: float
    moves: tuple[Move, ...]


@dataclass
class EngineConfig:
    """Thresholds and limits for one engine run.

    ``full_threshold`` defaults to T squared: a whole path is two halves
    that each cleared T, joined by a division by a prior.
    """

    half_threshold: float = 30.0
    full_threshold: float | None = None
    max_depth: int = 10

    def __post_init__(self) -> None:
        if self.full_threshold is None:
            self.full_threshold = self.half_threshold * self.half_threshold
        if not (self.half_threshold >= 0 and self.full_threshold >= 0):
            raise ValueError("thresholds must be nonnegative")
        if self.max_depth < 1:
            raise ValueError("max_depth must be positive")


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
        # Score of each emitted path, by the key that names it.
        self._score_by_key: dict[tuple[str, str, tuple[TraversalLink, ...]], float] = {}
        self.emitted: list[Path] = []
        self.scores: list[float] = []  # `score_path` of each emitted path
        self._pending: list[Path] = []

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
        self._place(Mark(obs, obs.schema, START_STATE, initial_score(obs), ()))

    def spread(self) -> list[Path]:
        """Drain the queue breadth-first; returns paths emitted since the
        previous call (including any emitted at seed time)."""
        adjacency = self.kb.adjacency
        half_threshold = self.config.half_threshold
        marks, queue, place = self.marks, self._queue, self._place
        while queue:
            mark = queue.popleft()
            origin, row, score, moves = mark.origin, STEP[mark.state], mark.score, mark.moves
            if marks.get((origin.instance, mark.at, mark.state)) is not mark:
                continue  # superseded by a better trail
            for move in adjacency[mark.at]:
                state = row[move.kind]
                if state is None:
                    continue
                extended = score * move.multiplier
                if extended < half_threshold:
                    continue
                place(Mark(origin, move.destination, state, extended, moves + (move,)))
        out = self._pending
        self._pending = []
        return out

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
        if len(mark.moves) < self.config.max_depth:
            self._queue.append(mark)

    def _collide(self, m1: Mark, m2: Mark) -> None:
        # Orient the glued path from the earlier-seeded observation.
        if self._seed_order[m2.origin.instance] < self._seed_order[m1.origin.instance]:
            m1, m2 = m2, m1
        # The seam is valid, so the glued path is; one that scores below
        # the full threshold builds nothing.
        full = combine(self.kb, m1.at, m1.score, m2.score)
        if full < self.config.full_threshold:
            return
        links = tuple([move.link for move in m1.moves]
                      + [move.twin for move in reversed(m2.moves)])
        # An observed instance has one schema, so this key names the path
        # as exactly as its rendered text.  A path met again at another
        # cleave point is checked against the score it was emitted with.
        key = (m1.origin.instance, m2.origin.instance, links)
        direct = self._score_by_key.get(key)
        emitted_before = direct is not None
        if not emitted_before:
            path = Path(start=m1.origin, links=links, end=m2.origin)
            direct = score_path(self.kb, path)
        if not math.isclose(full, direct, rel_tol=1e-9):
            raise AssertionError(
                f"cleave identity violated: combined {full!r} vs direct {direct!r}")
        if emitted_before:
            return
        self._score_by_key[key] = direct
        self.emitted.append(path)
        self.scores.append(direct)
        self._pending.append(path)
