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
engine.seed(seen_store)
engine.seed(seen_go)
paths = engine.spread()

# A mark is kept per (origin, schema, DFA state); the state is a small int
# that STATE_NAMES spells out as the walk's role phase and last isa move.
# Each schema keeps its own table of marks, so `marks` lists them schema
# by schema.  A mark holds only the link it arrived by and the mark it
# extended; its depth counts the links back to its origin.
print(f"marks retained: {len(engine.marks)}")
for (origin, at, state), mark in engine.marks.items():
    print(f"  from {origin:13s} at {at:22s} {STATE_NAMES[state]:19s} "
          f"score={mark.score:.4g} depth={mark.depth}")

print()
print(f"paths emitted: {len(paths)}")
for path in paths:
    print(" ", path.render())
    print("  score:", score_path(kb, path))

# Raise T past what any half-path can sustain and the spread dies out.
strict = MarkerEngine(kb, EngineConfig(half_threshold=5.0, max_depth=10))
strict.seed(seen_store)
strict.seed(seen_go)
print("with T=5.0:", len(strict.spread()), "paths,",
      len(strict.marks), "marks (just the seeds)")
