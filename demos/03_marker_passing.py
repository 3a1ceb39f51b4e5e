"""Marker passing: spreading, cutoff, collision, and the emitted path.

Two observations arrive: a supermarket and a going.  Marks spread from
both, carrying an incrementally maintained score; where they meet, the two
trails are glued into a whole path and scored by the cleave rule.  The
half threshold T is what keeps the spread from covering the whole graph;
set it too high and nothing survives.
"""

from planmark import (
    EngineConfig,
    MarkerEngine,
    Observation,
    load_kb,
    score_path,
)

kb = load_kb("""
(eq-prior 0.001)
(schema store- :prior 0.05)
(schema supermarket :isa store- :prior 0.01)
(schema shopping :prior 0.05)
(schema supermarket-shopping :isa shopping :prior 0.02)
(schema go :prior 0.1)
(role supermarket-shopping store-of supermarket)
(role shopping go-step go)
""")

# A DFA state is an int: twice the walk's role phase, plus one when its
# last move was an IsaUp.
STATE_NAMES = tuple(f"{phase}/{'isa-up' if isa_up else '-'}"
                    for phase in ("NO_ROLE_YET", "UP_PHASE", "DOWN_PHASE")
                    for isa_up in (False, True))

seen_store = Observation("supermarket2", "supermarket", belief=0.9)
seen_go = Observation("go1", "go", belief=0.9)

engine = MarkerEngine(kb, EngineConfig(half_threshold=0.1, full_threshold=1.0,
                                       max_depth=10))
# `seed` records each observation; `spread` then spreads them in turn, so
# the going's marks meet the supermarket's where they arrive.
engine.seed(seen_store)
engine.seed(seen_go)
engine.spread()


def depth(mark):
    """The links back to the mark's origin: the marks it extended, counted."""
    links = 0
    while mark.prev is not None:
        mark, links = mark.prev, links + 1
    return links


# A mark is kept per (origin, schema, DFA state); the state is a small int
# that STATE_NAMES spells out as the walk's role phase and last isa move.
# Each schema keeps its own table of marks, so `marks` lists them schema
# by schema.  A mark holds only the link it arrived by and the mark it
# extended, and no depth: `depth` counts the marks back to its origin,
# which is the level of the spread that placed it.
print(f"marks retained: {len(engine.marks)}")
for (origin, at, state), mark in engine.marks.items():
    print(f"  from {origin:13s} at {at:22s} {STATE_NAMES[state]:19s} "
          f"score={mark.score:.4g} depth={depth(mark)}")

print()
# `scores` is the engine's record of what it emitted: each path, in the
# order it was emitted, with the score it was emitted at, which is the
# path's `score_path`.
print(f"paths emitted: {len(engine.scores)}")
for path, score in engine.scores.items():
    print(" ", path.render())
    print("  score:", score, "=", score_path(kb, path))

# Raise T past what any half-path can sustain and the spread dies out.
strict = MarkerEngine(kb, EngineConfig(half_threshold=5.0, max_depth=10))
strict.seed(seen_store)
strict.seed(seen_go)
strict.spread()
print("with T=5.0:", len(strict.scores), "paths,",
      len(strict.marks), "marks (just the seeds)")
