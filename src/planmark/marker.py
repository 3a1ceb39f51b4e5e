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

`enumerate_paths_oracle` is the engine's reference point: a plain
exhaustive DFS over link sequences filtered by a direct restatement of the
validity rules, practical only on small bases.  `completeness_check`
compares the two and classifies every high-scoring path the engine missed.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .kb import KnowledgeBase, Move, Observation
from .paths import (
    LinkKind,
    Path,
    SEAM_VALID,
    START_STATE,
    STEP,
    TraversalLink,
    step,
    validate,
)
from .scoring import combine, extend_half, initial_score, score_path

MarkKey = tuple[str, str, int]


class OracleGuardError(Exception):
    """The exhaustive enumeration would visit too many prefixes."""


@dataclass(slots=True, eq=False)
class Mark:
    """A half path: where it started, where it is, the DFA state it left,
    its half score and the adjacency moves it took, oldest first."""

    origin: Observation
    at: str
    state: int
    score: float
    moves: tuple[Move, ...]

    @property
    def key(self) -> MarkKey:
        return (self.origin.instance, self.at, self.state)

    @property
    def trail(self) -> tuple[TraversalLink, ...]:
        """The links walked from the origin, in travel order."""
        return tuple(move.link for move in self.moves)


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
        if self.half_threshold < 0 or self.full_threshold < 0:
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
    kb.schema(obs1.schema)
    kb.schema(obs2.schema)
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
        for link in kb.neighbors(at):
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
    values = [initial_score(obs)]
    for link in links:
        values.append(extend_half(kb, values[-1], link))
    return values


def _state_after(links: tuple[TraversalLink, ...]) -> int:
    """The DFA state, as it appears in a mark's key, that a grammatical
    trail of these links leaves a mark in."""
    state = START_STATE
    for link in links:
        state = step(state, link)
    return state


def completeness_check(kb: KnowledgeBase, config: EngineConfig,
                       seeds: tuple[Observation, Observation]) -> CompletenessReport:
    """Compare an engine run against the oracle.

    Lists every oracle path whose full score reaches max(T^2,
    full_threshold) that the engine failed to emit, except misses explained
    by the documented best-trail retention rule (some prefix of the path
    was displaced by a better-scoring trail at the same (origin, schema,
    state) key).  A listed "half-dip" means no cleave point exists at which
    both halves stay at or above T all the way out, which is exactly when
    the threshold cutoff is allowed to lose the path; "unexpected" would be
    an engine defect.
    """
    engine = MarkerEngine(kb, config)
    for obs in seeds:
        engine.seed(obs)
    engine.spread()
    emitted = {p.render() for p in engine.emitted}

    obs1, obs2 = seeds
    threshold = max(config.half_threshold ** 2, config.full_threshold)
    entries: list[MissedPath] = []
    for path in enumerate_paths_oracle(kb, obs1, obs2, config.max_depth):
        sc = score_path(kb, path)
        if sc < threshold or path.render() in emitted:
            continue
        rev = tuple(link.flip() for link in reversed(path.links))
        fwd_vals = _prefix_values(kb, obs1, path.links)
        back_vals = _prefix_values(kb, obs2, rev)
        n = len(path.links)
        qualifying: list[int] = []
        for j in range(n + 1):
            # Seeds are always placed; the cutoff applies to extensions.
            fwd_ok = all(v >= config.half_threshold for v in fwd_vals[1:j + 1])
            back_ok = all(v >= config.half_threshold for v in back_vals[1:n - j + 1])
            if fwd_ok and back_ok:
                qualifying.append(j)
        if not qualifying:
            entries.append(MissedPath(path, sc, "half-dip"))
            continue
        schemas = path.schemas()
        for j in qualifying:
            m1 = engine.marks.get((obs1.instance, schemas[j], _state_after(path.links[:j])))
            m2 = engine.marks.get((obs2.instance, schemas[j], _state_after(rev[:n - j])))
            if (m1 is not None and m1.trail == path.links[:j]
                    and m2 is not None and m2.trail == rev[:n - j]):
                entries.append(MissedPath(path, sc, "unexpected"))
                break
        # Otherwise every qualifying cleave was displaced by a better
        # trail: excused under the best-trail retention rule.
    return CompletenessReport(entries=tuple(entries))
