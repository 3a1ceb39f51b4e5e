"""Plan recognition by marker passing over a schema network.

Observed instances spread marks through a base of schemas connected by isa
and role links.  Colliding marks yield candidate explanatory paths, pruned
on the fly by an incrementally computed probabilistic upper bound (the
spinal contribution) and validated afterwards by exact evaluation of the
small Bayesian network each path induces.
"""

from .bayes import (
    Cpts,
    VertebrateNetwork,
    approve,
    build_network,
    default_cpts,
    evidence_filter,
    exact_posterior,
    render_network,
)
from .kb import KbError, KnowledgeBase, Observation, Schema, load_kb
from .marker import (
    EngineConfig,
    MarkerEngine,
    combine,
    extend_half,
    score_path,
)
from .paths import (
    LinkKind,
    Path,
    PathError,
    START_STATE,
    TraversalLink,
    parse_path,
    validate,
)
from .pipeline import (
    RunConfig,
    RunReport,
    SynthCorpus,
    SynthParams,
    run,
    synth_corpus,
)
from .semantics import relevant_statements, statements_of

__version__ = "0.1.0"

__all__ = [
    "Cpts",
    "VertebrateNetwork",
    "approve",
    "build_network",
    "default_cpts",
    "evidence_filter",
    "exact_posterior",
    "render_network",
    "KbError",
    "KnowledgeBase",
    "Observation",
    "Schema",
    "load_kb",
    "EngineConfig",
    "MarkerEngine",
    "combine",
    "extend_half",
    "score_path",
    "LinkKind",
    "Path",
    "PathError",
    "START_STATE",
    "TraversalLink",
    "parse_path",
    "validate",
    "RunConfig",
    "RunReport",
    "SynthCorpus",
    "SynthParams",
    "run",
    "synth_corpus",
    "relevant_statements",
    "statements_of",
]
