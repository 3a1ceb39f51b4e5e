"""The spinal contribution: a cheap, incrementally computable bound on the
posterior of the network a path induces, an upper bound when gamma0 >=
gamma1 and otherwise one up to a factor p(==)^k * gamma1 / gamma0 for k
role links (see `bayes`): 9 at the default gammas for two role links at
p(==) = 1e-3, as in `corpus`.

Scoring a whole path is a single left-to-right product: the start
observation's belief, one multiplier per link, and a terminal factor
belief/prior for the end observation.  The per-link multipliers:

    RoleUp    p(filled) / p(filler)
    RoleDown  1.0
    IsaUp     1.0
    IsaDown   p(specific) / p(general)

Half-paths built outward from one observation carry the same product minus
the terminal factor, as a plain float: extending one by a link is one
multiply, and two halves meeting at a schema n recombine as
``half1 * half2 / p(n)``, which equals the whole-path score exactly.  That
cleave identity is what lets the marker passer prune on a threshold while
spreading, before it knows which paths will meet.  The half-path functions
trust their caller to chain links onto the half and to meet halves at
``at``, as the marker's construction guarantees; `score_path` is the
direct form they are checked against.

The marker does not call `extend_half`: the base's adjacency stores each
move's multiplier (`kb.Move`), computed from the same two priors at load,
so an extension multiplies by it directly.  It meets halves with
`combine` and scores each path it emits once with `score_path`, when the
path is first met; that meeting and any later one at another cleave point
are checked against the stored score, which `pipeline.run` reports as the
path's ``sc``.
"""

from __future__ import annotations

from .kb import KnowledgeBase, Observation
from .paths import LinkKind, Path, TraversalLink

Score = float


def initial_score(obs: Observation) -> Score:
    return obs.belief


def link_multiplier(kb: KnowledgeBase, link: TraversalLink) -> float:
    if link.kind is LinkKind.ROLE_UP:
        return kb.prior(link.filled) / kb.prior(link.filler)
    if link.kind is LinkKind.ISA_DOWN:
        return kb.prior(link.specific) / kb.prior(link.general)
    # RoleDown and IsaUp leave the bound unchanged.
    return 1.0


def terminal_multiplier(kb: KnowledgeBase, obs: Observation) -> float:
    return obs.belief / kb.prior(obs.schema)


def score_path(kb: KnowledgeBase, path: Path) -> Score:
    value = initial_score(path.start)
    for link in path.links:
        value *= link_multiplier(kb, link)
    return value * terminal_multiplier(kb, path.end)


def extend_half(kb: KnowledgeBase, score: Score, link: TraversalLink) -> Score:
    """Score of a half-path after one more link."""
    return score * link_multiplier(kb, link)


def combine(kb: KnowledgeBase, at: str, h1: Score, h2: Score) -> Score:
    """Score of the whole path formed by gluing two halves that both end
    at schema ``at``."""
    return h1 * h2 / kb.prior(at)
