"""Walk through the schema knowledge base: loading, priors, adjacency.

The base below is the running example used throughout this repository:
shopping plans, the stores they happen in, and the going that gets you
there.  Priors are fixture values; in a deployed system they would be
estimated from a corpus of worked explanations.
"""

from planmark import load_kb

KB_TEXT = """
(eq-prior 0.001)                 ; p(==): any two things being the same thing
(schema store- :prior 0.05)
(schema supermarket :isa store- :prior 0.01)
(schema shopping :prior 0.05)
(schema supermarket-shopping :isa shopping :prior 0.02)
(schema go :prior 0.1)
(role supermarket-shopping store-of supermarket)
(role shopping go-step go)
"""

kb = load_kb(KB_TEXT)

print("schemas and priors:")
for name in sorted(kb.schemas):
    schema = kb.schemas[name]
    parent = f" isa {schema.parent}" if schema.parent else ""
    print(f"  {name}: p={schema.prior}{parent}")

# Subset structure: a supermarket is a store, so every ancestor check is a
# walk up the isa tree, one parent at a time.
print()
chain = ["supermarket"]
while kb.parents[chain[-1]] is not None:
    chain.append(kb.parents[chain[-1]])
print("isa chain of supermarket:", " -> ".join(chain))

# The adjacency index is what the marker passer spreads over.  Every move
# has its inverse at the far end.
print()
print("moves leaving 'supermarket':")
for link in kb.adjacency["supermarket"]:
    print(f"  {link.kind.name:9s} -> {link.destination:22s} {link.text}")

print()
print("moves leaving 'shopping':")
for link in kb.adjacency["shopping"]:
    print(f"  {link.kind.name:9s} -> {link.destination:22s} {link.text}")

# The textual format round-trips exactly.
assert load_kb(kb.render()) == kb
print()
print("canonical rendering:")
print(kb.render())
