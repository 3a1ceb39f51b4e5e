"""The path validity grammar, link by link.

A path claims that two observed instances are connected through slots and
type refinements.  Two shapes of claim are banned outright: generalizing
then immediately re-specializing (disjoint siblings cannot support each
other), and descending into a filler then climbing into another owner
(nothing observes the shared filler).  Watching the DFA step through a few
sequences makes the rules concrete.
"""

from planmark import Observation, load_kb, parse_path, validate
from planmark.paths import LinkKind, Path, START_STATE, STEP

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


def show_dfa(title, kinds):
    state = START_STATE
    trace = []
    for kind in kinds:
        state = STEP[state][kind.order]
        if state is None:
            trace.append("REJECTED")
            break
        trace.append(STATE_NAMES[state])
    print(f"{title}: {' -> '.join(k.name for k in kinds)}")
    print(f"   {' -> '.join(trace)}")


show_dfa("the example path's shape ", [LinkKind.ROLE_UP, LinkKind.ISA_UP, LinkKind.ROLE_DOWN])
show_dfa("isa plateau              ", [LinkKind.ISA_UP, LinkKind.ISA_DOWN])
show_dfa("slot-filler valley       ", [LinkKind.ROLE_DOWN, LinkKind.ISA_UP, LinkKind.ROLE_UP])
show_dfa("specialize-then-generalize is fine", [LinkKind.ISA_DOWN, LinkKind.ISA_UP, LinkKind.ROLE_UP])

# The canonical surface form tags each link with its travel direction.
text = ("(inst supermarket2 supermarket)"
        "(role supermarket-shopping store-of supermarket)"
        "(isa supermarket-shopping shopping)"
        "(role- shopping go-step go)"
        "(inst go1 go)")
path = parse_path(kb, text, beliefs=(0.9, 0.9))
print()
print("parsed:", path.render())
print("valid: ", validate(path))

# A path with no role link asserts nothing beyond retyping; invalid.
no_role = Path(start=Observation("supermarket2", "supermarket"),
               links=(kb.links["(isa supermarket store-)"],),
               end=Observation("store7", "store-"))
print("isa-only path valid:", validate(no_role))


def reverse(path):
    """The same path read from the other end: each link is the same KB link
    walked the other way, the twin the base's link table pairs it with."""
    return Path(start=path.end, links=tuple(link.twin for link in reversed(path.links)),
                end=path.start)


# Reading the path from the other end flips every link.
print()
print("reversed:", reverse(path).render())
assert reverse(reverse(path)) == path
