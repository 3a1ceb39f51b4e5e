"""Vertebrate Bayesian networks: exact evaluation of what a path claims.

Every valid path induces one small network whose non-evidence nodes are in
one-to-one correspondence with the relevant statements RS(P): one binary
node per instance (true = the instance really is of its relevant type) and
one binary node per slot equality.  The shape is a spine: the two end
instances carry the end evidence nodes, each equality node hangs under its
two neighboring instance nodes, and consecutive interior instances are
chained.  Isa links never change the shape, only the type (and hence the
prior) a node carries.  A single interior evidence node hangs under all the
equality nodes, standing for whatever corroborating input supports the
claimed slot bindings; marker passing is only worth doing in domains where
such corroboration usually exists.

Conditional tables (`default_cpts`):

* instance nodes: true with their relevant type's prior, independent of
  the spine parent;
* equality nodes: true with p(==)/p(f) when both parent instances are
  true -- f being the slot's declared filler type -- and impossible
  otherwise;
* end evidence: a virtual-evidence likelihood pair encoding the
  observation's belief.  When the path re-types an endpoint more
  specifically than it was observed (a leading IsaDown or trailing IsaUp),
  the belief is first projected onto the relevant type, b' = b * p(RT) /
  p(observed schema), which is what a subset hypothesis inherits from
  evidence about its superset;
* interior: true with strength gamma1 when every equality holds, gamma0
  otherwise.

Under exactly these conventions the exact conditional joint factors into
(spinal contribution) x (residual), with the residual collecting p(==) per
equality, the interior strength, and the normalization P(E_I | end
evidence).  For k equalities the residual is at most p(==)^k * gamma1 /
min(gamma0, gamma1), so the spinal contribution is an upper bound on the
joint, which is what licenses using it as the marker passer's cutoff
measure, when gamma0 >= gamma1.  At the default gammas it is one only up
to that factor, 9 for two equalities at p(==) = 1e-3 as in `corpus`.

Evaluation is exact and takes O(n) for n nodes (`exact_posterior`): the
instance nodes are independent and the interior node only asks whether
every equality holds, so the evidence's probability needs just the two end
normalizers and the weight of the single all-true assignment.  The spine is
a polytree, where this is Pearl's (1988, ch. 4) message passing in closed
form.  The test suite checks it against full enumeration and against
variable elimination.

The network is RS(P) plus priors: `semantics` derives RS(P)'s relevant
types in spine order, and the network holds RS(P) with the prior of each
relevant type, looked up once in the base's prior table.  RS(P)'s role
links give each equality its declared filler type, and the priors are
the instance nodes' tables, which the CPTs do not copy.  Before a path
is evaluated, `evidence_filter` asks whether the input corroborates
every slot binding it claims.  A plain dict maps each slot to the
schemas it is corroborated at, so an equality whose slot nothing
corroborates fails at one lookup; otherwise the owner's relevant type
and its ancestors are looked up in the slot's set, walked through the
base's parent table.  The owner of role link k is RS(P)'s instance k
plus the ``owner_side`` of the link's kind, read here, not decided.
After evaluation, `approve` compares the posterior with the prior of the
fresh instances the path hypothesizes.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .kb import KnowledgeBase, Observation
from .paths import Path
# bench/tracing.py wraps this module's relevant_statements, so it stays imported.
from .semantics import RelevantStatements, relevant_statements  # noqa: F401


class VertebrateNetwork(NamedTuple):
    """RS(P) plus priors: the path's RS(P), each instance's relevant-type
    prior in spine order, and the two observations at its ends.  The k-th
    of RS(P)'s role links gives node ``eq<k>`` its declared filler type."""

    rs: RelevantStatements
    priors: tuple[float, ...]
    start_obs: Observation
    end_obs: Observation

    @property
    def non_evidence_count(self) -> int:
        return len(self.priors) + len(self.rs.roles)

    def edges(self) -> list[tuple[str, str]]:
        """Directed edges, deterministic order: instance chain, end
        evidence, equality parents, interior."""
        out: list[tuple[str, str]] = []
        names = self.rs.names
        for i in range(1, len(names) - 1):
            out.append((names[i], names[i + 1]))
        out.append((names[0], "e1"))
        out.append((names[-1], "e2"))
        eq_ids = [f"eq{k}" for k in range(1, len(self.rs.roles) + 1)]
        for k, eq_id in enumerate(eq_ids):
            out.append((names[k], eq_id))
            out.append((names[k + 1], eq_id))
        for eq_id in eq_ids:
            out.append((eq_id, "EI"))
        return out


def build_network(kb: KnowledgeBase, path: Path,
                  rs: RelevantStatements) -> VertebrateNetwork:
    """Build the unique network for a valid path and its RS(P), whose
    instances already run along the spine from the start observation to
    the end one."""
    priors = kb.priors
    # tuple.__new__ skips the named tuple's constructor, a Python function.
    return tuple.__new__(VertebrateNetwork, (
        rs, tuple([priors[schema] for schema in rs.types]), path.start, path.end))


class Cpts(NamedTuple):
    """Explicit tables for one network beyond its instance priors: each
    equality's both-parents-true probability, the two end-evidence
    likelihood pairs (P(e|node true), P(e|node false)), interior
    strengths, and the global equality prior carried along for the
    residual."""

    eq_true: tuple[float, ...]
    evidence: tuple[tuple[float, float], tuple[float, float]]
    gamma1: float
    gamma0: float
    eq_prior: float


def _evidence_pair(kb: KnowledgeBase, obs: Observation, q: float) -> tuple[float, float]:
    # An endpoint's relevant type is its observed schema or a descendant of
    # it, and `load_kb` rejects a child prior above its parent's, so q is
    # at most the observed schema's prior and the projected belief at most b.
    # q = 1 means a prior-1 observed schema, which
    # `KnowledgeBase.check_observation` admits only at belief 1.
    if q >= 1.0:
        return (1.0, 0.0)
    b = obs.belief * q / kb.priors[obs.schema]
    lam_true = b / q
    lam_false = (1.0 - b) / (1.0 - q)
    beta = 1.0 / max(lam_true, lam_false)
    return (lam_true * beta, lam_false * beta)


def default_cpts(kb: KnowledgeBase, network: VertebrateNetwork,
                 gamma1: float, gamma0: float) -> Cpts:
    """The tables above, for interior strengths in (0,1] (`RunConfig`
    checks them); `load_kb` keeps every p(==)/p(f) at most 1."""
    eq_prior, priors = kb.eq_prior, kb.priors
    eq_true = tuple([eq_prior / priors[link.filler] for link in network.rs.roles])
    evidence = (
        _evidence_pair(kb, network.start_obs, network.priors[0]),
        _evidence_pair(kb, network.end_obs, network.priors[-1]),
    )
    return tuple.__new__(Cpts, (eq_true, evidence, gamma1, gamma0, eq_prior))


def exact_posterior(network: VertebrateNetwork, cpts: Cpts) -> tuple[float, float]:
    """(joint, residual) of the network, exactly, in O(n).

    ``joint`` is P(every instance and equality node true | both end
    evidence nodes and the interior evidence node).  ``residual`` is the
    bounded group the joint factors into beyond the spinal contribution:
    p(==)^k * gamma1 / P(E_I | e1, e2).

    Summed over everything else, each equality node and each interior
    instance node contributes 1, so the mass of the end evidence alone is
    s0 = Z1 * Z2 with Z = q*lambda_true + (1-q)*lambda_false at each end.
    The interior node reads gamma1 only when every equality holds, which
    forces every instance true, a single assignment of weight A; so the
    mass with interior evidence is s1 = gamma0*s0 + (gamma1-gamma0)*A.
    As 0 <= A <= s0, s1 >= min(gamma0, gamma1) * s0 > 0, which bounds
    the residual by p(==)^k * gamma1 / min(gamma0, gamma1).
    """
    (e1_t, e1_f), (e2_t, e2_f) = cpts.evidence
    priors = network.priors
    q1, q2 = priors[0], priors[-1]
    s0 = (q1 * e1_t + (1.0 - q1) * e1_f) * (q2 * e2_t + (1.0 - q2) * e2_f)
    all_true = e1_t * e2_t * prod(priors) * prod(cpts.eq_true)
    s1 = cpts.gamma0 * s0 + (cpts.gamma1 - cpts.gamma0) * all_true
    joint = cpts.gamma1 * all_true / s1
    p_ei_given_ends = s1 / s0
    residual = (cpts.eq_prior ** len(cpts.eq_true)) * cpts.gamma1 / p_ei_given_ends
    return joint, residual


# -- evidence filtering and approval ------------------------------------------

def evidence_filter(kb: KnowledgeBase, rs: RelevantStatements,
                    corroborated: dict[str, set[str]]) -> bool:
    """True iff every slot equality of RS(P) is corroborated for its slot
    at the owner's relevant type or an ancestor of it; ``corroborated``
    maps a slot to the schemas it is corroborated at.

    That is all RS(P) asserts that needs support: its two end instances
    were observed, and every fresh instance owns an equality, so the
    record that supports the equality supports the instance too."""
    types, parents = rs.types, kb.parents
    for k, link in enumerate(rs.roles):
        schemas = corroborated.get(link.slot)
        if schemas is None:
            return False
        # Role k joins instances k and k+1; its kind says which owns the slot.
        schema = types[k + link.kind.owner_side]
        while schema not in schemas:
            schema = parents[schema]
            if schema is None:
                return False
    return True


def approve(network: VertebrateNetwork, posterior: float, ratio: float) -> bool:
    """Accept a path when its joint posterior beats the prior of the plans
    it hypothesizes by ``ratio``.  The prior is the product of the
    relevant-type priors of the network's fresh instances, those between
    its two observed ends (an empty product for a path whose ends are its
    only instances)."""
    return posterior >= ratio * prod(network.priors[1:-1])


def render_network(network: VertebrateNetwork) -> str:
    """Deterministic text dump: one node line, then one edge line each."""
    lines = []
    for name, schema, prior in zip(network.rs.names, network.rs.types, network.priors):
        lines.append(f"node {name} kind=inst type={schema} prior={prior!r}")
    for k in range(1, len(network.rs.roles) + 1):
        lines.append(f"node eq{k} kind=eq type=- prior=-")
    lines.append("node e1 kind=ev type=- prior=-")
    lines.append("node e2 kind=ev type=- prior=-")
    lines.append("node EI kind=interior type=- prior=-")
    for src, dst in network.edges():
        lines.append(f"edge {src} {dst}")
    return "\n".join(lines) + "\n"
