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
evidence).  Whenever the residual is at most 1 the spinal contribution is
therefore an upper bound on the joint, which is what licenses using it as
the marker passer's cutoff measure.

Evaluation is exact and takes O(n) for n nodes (`exact_posterior`): the
instance nodes are independent and the interior node only asks whether
every equality holds, so the evidence's probability needs just the two end
normalizers and the weight of the single all-true assignment.  The spine is
a polytree, where this is Pearl's (1988, ch. 4) message passing in closed
form.  The test suite checks it against full enumeration and against
variable elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

from .kb import KnowledgeBase, Observation
from .paths import Path
# bench/tracing.py wraps this module's relevant_statements, so it stays imported.
from .semantics import StatementSet, relevant_statements  # noqa: F401


class NetworkError(Exception):
    """Ill-formed CPT parameters, or evidence impossible under them."""


@dataclass(frozen=True)
class InstNode:
    instance: str
    rt: str
    prior: float


@dataclass(frozen=True)
class EqNode:
    index: int  # 1-based, in role-link order
    owner: str
    slot: str
    filler: str
    declared_filler_type: str

    @property
    def node_id(self) -> str:
        return f"eq{self.index}"


@dataclass(frozen=True)
class VertebrateNetwork:
    insts: tuple[InstNode, ...]
    eqs: tuple[EqNode, ...]
    start_obs: Observation
    end_obs: Observation

    @property
    def non_evidence_count(self) -> int:
        return len(self.insts) + len(self.eqs)

    def edges(self) -> list[tuple[str, str]]:
        """Directed edges, deterministic order: instance chain, end
        evidence, equality parents, interior."""
        out: list[tuple[str, str]] = []
        names = [n.instance for n in self.insts]
        for i in range(1, len(names) - 1):
            out.append((names[i], names[i + 1]))
        out.append((names[0], "e1"))
        out.append((names[-1], "e2"))
        for k, eq in enumerate(self.eqs, start=1):
            out.append((names[k - 1], eq.node_id))
            out.append((names[k], eq.node_id))
        for eq in self.eqs:
            out.append((eq.node_id, "EI"))
        return out


def build_network(kb: KnowledgeBase, path: Path,
                  rs: StatementSet) -> VertebrateNetwork:
    """Build the unique network for a valid path and its RS(P)."""
    order = rs.instances()
    rt = {s.instance: s.schema for s in rs.insts}
    insts = tuple(InstNode(i, rt[i], kb.prior(rt[i])) for i in order)
    role_links = [link for link in path.links if link.kind.is_role]
    if len(insts) != len(role_links) + 1 or len(rs.eqs) != len(role_links):
        raise NetworkError(
            "statement set does not fit the spine shape "
            f"({len(insts)} instances, {len(rs.eqs)} equalities, "
            f"{len(role_links)} role links)")
    eqs = tuple(
        EqNode(index=k, owner=eq.owner, slot=eq.slot, filler=eq.filler,
               declared_filler_type=link.filler)
        for k, (eq, link) in enumerate(zip(rs.eqs, role_links), start=1)
    )
    if insts[0].instance != path.start.instance or insts[-1].instance != path.end.instance:
        raise NetworkError("spine ends do not match the path's observations")
    return VertebrateNetwork(insts=insts, eqs=eqs,
                             start_obs=path.start, end_obs=path.end)


@dataclass(frozen=True)
class Cpts:
    """Explicit tables for one network: instance priors, each equality's
    both-parents-true probability, the two end-evidence likelihood pairs
    (P(e|node true), P(e|node false)), interior strengths, and the global
    equality prior carried along for the residual."""

    inst_prior: tuple[float, ...]
    eq_true: tuple[float, ...]
    evidence: tuple[tuple[float, float], tuple[float, float]]
    gamma1: float
    gamma0: float
    eq_prior: float


def _evidence_pair(kb: KnowledgeBase, obs: Observation, node: InstNode) -> tuple[float, float]:
    q_obs = kb.prior(obs.schema)
    q = node.prior
    if q > q_obs + 1e-15:
        raise NetworkError(
            f"relevant type {node.rt!r} has a larger prior than the "
            f"observed schema {obs.schema!r}")
    b = obs.belief * q / q_obs
    if q >= 1.0:
        if b < 1.0:
            raise NetworkError(
                f"cannot scale evidence for {obs.instance!r}: type prior is 1 "
                f"but belief is {obs.belief!r}")
        lam_true, lam_false = 1.0, 0.0
    else:
        lam_true = b / q
        lam_false = (1.0 - b) / (1.0 - q)
    beta = 1.0 / max(lam_true, lam_false)
    return (lam_true * beta, lam_false * beta)


def default_cpts(kb: KnowledgeBase, network: VertebrateNetwork,
                 gamma1: float, gamma0: float) -> Cpts:
    if not (0.0 < gamma1 <= 1.0 and 0.0 < gamma0 <= 1.0):
        raise NetworkError("interior strengths must be in (0,1]")
    eq_true = []
    for eq in network.eqs:
        p = kb.eq_prior / kb.prior(eq.declared_filler_type)
        if p > 1.0:
            raise NetworkError(
                f"equality prior {kb.eq_prior!r} exceeds the prior of filler "
                f"type {eq.declared_filler_type!r}")
        eq_true.append(p)
    evidence = (
        _evidence_pair(kb, network.start_obs, network.insts[0]),
        _evidence_pair(kb, network.end_obs, network.insts[-1]),
    )
    return Cpts(inst_prior=tuple(n.prior for n in network.insts),
                eq_true=tuple(eq_true), evidence=evidence,
                gamma1=gamma1, gamma0=gamma0, eq_prior=kb.eq_prior)


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
    """
    (e1_t, e1_f), (e2_t, e2_f) = cpts.evidence
    q1, q2 = cpts.inst_prior[0], cpts.inst_prior[-1]
    s0 = (q1 * e1_t + (1.0 - q1) * e1_f) * (q2 * e2_t + (1.0 - q2) * e2_f)
    all_true = e1_t * e2_t * prod(cpts.inst_prior) * prod(cpts.eq_true)
    s1 = cpts.gamma0 * s0 + (cpts.gamma1 - cpts.gamma0) * all_true
    if s1 <= 0.0:
        raise NetworkError("evidence has zero probability under the CPTs")
    joint = cpts.gamma1 * all_true / s1
    p_ei_given_ends = s1 / s0
    residual = (cpts.eq_prior ** len(cpts.eq_true)) * cpts.gamma1 / p_ei_given_ends
    return joint, residual


# -- evidence filtering and approval ------------------------------------------

@dataclass
class EvidenceRegistry:
    """What the rest of the input corroborates: (schema, slot) records plus
    the set of instances that were directly observed."""

    records: set[tuple[str, str]] = field(default_factory=set)
    observed: set[str] = field(default_factory=set)

    def add_corroboration(self, schema: str, slot: str) -> None:
        self.records.add((schema, slot))

    def add_observed(self, instance: str) -> None:
        self.observed.add(instance)


def evidence_filter(kb: KnowledgeBase, rs: StatementSet,
                    registry: EvidenceRegistry) -> bool:
    """True iff everything RS(P) asserts has some support: each instance is
    observed or corroborated at its relevant type (or an ancestor), and
    each slot equality is corroborated for that slot at the owner's
    relevant type (or an ancestor)."""
    rt = {s.instance: s.schema for s in rs.insts}

    def matches(schema: str, slot: str | None) -> bool:
        for recorded_schema, recorded_slot in registry.records:
            if slot is not None and recorded_slot != slot:
                continue
            if recorded_schema == schema or kb.isa_star(schema, recorded_schema):
                return True
        return False

    for inst in rs.insts:
        if inst.instance in registry.observed:
            continue
        if not matches(inst.schema, None):
            return False
    for eq in rs.eqs:
        if not matches(rt[eq.owner], eq.slot):
            return False
    return True


def approve(kb: KnowledgeBase, path: Path, rs: StatementSet, posterior: float,
            ratio: float = 1000.0) -> bool:
    """Accept a path when its joint posterior beats the prior of the plans
    it hypothesizes by ``ratio``.  The prior is the product over the
    path's unobserved instances in ``rs`` (its RS(P)) of their
    relevant-type priors (an empty product for a path whose ends are its
    only instances)."""
    observed = {path.start.instance, path.end.instance}
    prior_product = 1.0
    for inst in rs.insts:
        if inst.instance not in observed:
            prior_product *= kb.prior(inst.schema)
    return posterior >= ratio * prior_product


def render_network(network: VertebrateNetwork) -> str:
    """Deterministic text dump: one node line, then one edge line each."""
    lines = []
    for node in network.insts:
        lines.append(f"node {node.instance} kind=inst type={node.rt} prior={node.prior!r}")
    for eq in network.eqs:
        lines.append(f"node {eq.node_id} kind=eq type=- prior=-")
    lines.append("node e1 kind=ev type=- prior=-")
    lines.append("node e2 kind=ev type=- prior=-")
    lines.append("node EI kind=interior type=- prior=-")
    for src, dst in network.edges():
        lines.append(f"edge {src} {dst}")
    return "\n".join(lines) + "\n"
