"""From path score to exact posterior: the factorization at work.

The spinal contribution is a product of belief and prior-ratio terms,
cheap enough to maintain during the spread.  The path's real measure is
the joint posterior of the little Bayesian network it induces, which is
RS(P) plus priors, computed exactly in closed form once the path is
complete.  The two are tied
together exactly: joint = SC * residual, and the residual stays at or
below 1 under mild interior settings, which is why SC is a safe pruning
bound.
"""

from planmark import (
    build_network,
    combine,
    default_cpts,
    exact_posterior,
    extend_half,
    load_kb,
    parse_path,
    relevant_statements,
    render_network,
    score_path,
    statements_of,
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

path = parse_path(kb, "(inst supermarket2 supermarket)"
                      "(role supermarket-shopping store-of supermarket)"
                      "(isa supermarket-shopping shopping)"
                      "(role- shopping go-step go)"
                      "(inst go1 go)", beliefs=(0.9, 0.9))

# Whole-path score: 0.9 * 2.0 * 1.0 * 1.0 * 9.0.
sc = score_path(kb, path)
print("spinal contribution:", sc)

# The same number from two halves glued at the collision schema: the
# first half walks two links, the second climbs from go up the go-step slot.
meeting = path.links[1].destination
h1 = path.start.belief
for link in path.links[:2]:
    h1 = extend_half(kb, h1, link)
h2 = extend_half(kb, path.end.belief,
                 kb.links["(role shopping go-step go)"])
print(f"halves at {meeting!r}: {h1} and {h2};",
      "combined:", combine(kb, meeting, h1, h2))

# What the path asserts, and the subset RS(P) the network is made of.
print()
print("S(P): ", "".join(statement.render() for statement in statements_of(path)))
rs = relevant_statements(path)
print("RS(P):", rs.text)

# The network is RS(P) plus priors: one node per inst statement, carrying
# its relevant type's prior, and one node eq<k> per slot equality.
network = build_network(kb, path, rs)
print()
print(render_network(network))

cpts = default_cpts(kb, network, gamma1=0.9, gamma0=1e-7)
joint, residual = exact_posterior(network, cpts)
print("joint posterior:", joint)
print("residual:       ", residual)
print("sc * residual:  ", sc * residual)

# The factorization holds exactly, so sc bounds the joint when residual <= 1.
assert abs(joint - sc * residual) <= 1e-9 * joint
print()
print("joint == sc * residual to 1e-9")
