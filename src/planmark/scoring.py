"""The spinal contribution: a cheap, incrementally computable bound on the
posterior of the network a path induces, an upper bound when gamma0 >=
gamma1 and otherwise one up to a factor p(==)^k * gamma1 / gamma0 for k
role links (see `bayes`): 9 at the default gammas for two role links at
p(==) = 1e-3, as in `corpus`.

Scoring a whole path is a single left-to-right product: the start
observation's belief, one multiplier per link, and a terminal factor
belief/prior for the end observation.  The per-link multipliers, which
`kb` computes once at load and each link of the base's link table carries
as ``multiplier``:

    RoleUp    p(filled) / p(filler)
    RoleDown  1.0
    IsaUp     1.0
    IsaDown   p(specific) / p(general)

Half-paths built outward from one observation carry the same product minus
the terminal factor, as a plain float: extending one by a link is one
multiply, and two halves meeting at a schema n recombine as
``half1 * (half2 / p(n))``, which equals the whole-path score exactly.
Dividing first keeps the intermediate at the size of a score: two halves
that each carry a tiny prior ratio would multiply into the subnormal range
and lose the precision the identity is checked to.  That cleave identity
is what lets the marker passer prune on a threshold while spreading,
before it knows which paths will meet.  The half-path functions trust
their caller to chain links onto the half and to meet halves at ``at``,
as the marker's construction guarantees.

`score_path` is the direct form, which the CLI and the tests use.  The
marker does not call it: it folds the same multipliers, read off the links
its marks took and their twins, in the same order, so its score is the
same float.
"""

from __future__ import annotations

from .kb import KnowledgeBase, Observation
from .paths import Path, TraversalLink

Score = float


def initial_score(obs: Observation) -> Score:
    return obs.belief


def terminal_multiplier(kb: KnowledgeBase, obs: Observation) -> float:
    return obs.belief / kb.priors[obs.schema]


def score_path(kb: KnowledgeBase, path: Path) -> Score:
    value = initial_score(path.start)
    for link in path.links:
        value *= link.multiplier
    return value * terminal_multiplier(kb, path.end)


def extend_half(kb: KnowledgeBase, score: Score, link: TraversalLink) -> Score:
    """Score of a half-path after one more link; the link carries its
    multiplier, so ``kb`` is not read."""
    return score * link.multiplier


def combine(kb: KnowledgeBase, at: str, h1: Score, h2: Score) -> Score:
    """Score of the whole path formed by gluing two halves that both end
    at schema ``at``."""
    return h1 * (h2 / kb.priors[at])
