"""End-to-end recognition pass, plus synthetic corpora to exercise it.

`run` reads a stream of input records in arrival order::

    (inst checkout1 supermarket [:belief 0.9])
    (corroborate supermarket-shopping store-of)

Each observation seeds the marker engine; each corroboration goes into
the evidence index, which maps each slot to the schemas it is
corroborated at, unless its slot is declared neither on its schema nor on
an isa ancestor or descendant of it, which makes it an input error; a
record already in the index passed that check and is not checked again.
Once the whole stream is read, so that a bad record is raised before
anything spreads, the engine spreads its origins in seed order, which
emits what spreading each as it arrives would, so paths surface in story
order.  Every reported path is then translated once into its RS(P), which
serves the cheap evidence filter, the exact network evaluation (only if
the filter passes) and the approval test.  A rejected path costs its RS(P)
walk and nothing more, and the report prints its statement texts joined.
Each distinct claim is judged once per base and interior strengths.  The
network a passing path induces is fixed by its links, which fix its end
schemas and its relevant and filler types, and by its two end beliefs,
and the base's priors and p(==) never change; so (links, start belief,
end belief, gamma1, gamma0, approval ratio) keys the `Judgement` kept in
the base's table, `KnowledgeBase.judgements`: the posterior, residual and
approval, and the record's lines from ``filtered`` on, rendered once.
The key holds no instance name because the evaluation reads none, so
every record that makes a claim, in this call or a later one on the same
base, shares its one judgement.  Only a path that passes the filter
builds a key, and the filter runs on every path of every call, since
corroboration is per stream.  The first call on a freshly loaded base
pays full price.  The table is cleared when it holds `_JUDGEMENTS_MAX`
claims, under 1 MB, so a caller that feeds ever new beliefs pays at most
one clear per that many new claims.  A path's ``sc`` is the score the
marker computed once, when it emitted the path, and equals its
`score_path`; its text is `Path.render`, which joins the texts the base's
links carry.  Three counters mirror the stages: paths reported by the
marker, evaluated (those that passed the filter) and approved.

The report is plain structured text: one ``#`` header line, then a fixed
field order (path, sc, rs, filtered, posterior, residual, approved per
record, then one counters record), so identical inputs produce
byte-identical reports.

`synth_corpus` stands in for hand-built story corpora: the text of a
reproducible random base with planted plans whose slot fillers get
observed pairwise, plus corroboration records emitted with a configurable
density.  The caller loads the base, so `planmark synth` parses nothing.
"""

from __future__ import annotations

import random
import re
from typing import NamedTuple

from .bayes import (
    approve,
    build_network,
    default_cpts,
    evidence_filter,
    exact_posterior,
)
from .kb import KbError, KnowledgeBase, Observation
from .marker import EngineConfig, MarkerEngine
# bench/tracing.py wraps this module's score_path, so it stays imported.
from .marker import score_path  # noqa: F401
from .paths import form_start, read_forms
from .semantics import relevant_statements


class RunConfig:
    """Engine settings, interior evidence strengths and approval ratio;
    the class attributes are the defaults."""

    gamma1: float = 0.9
    gamma0: float = 1e-7
    approval_ratio: float = 1000.0

    def __init__(self, engine: EngineConfig | None = None, gamma1: float = gamma1,
                 gamma0: float = gamma0, approval_ratio: float = approval_ratio):
        if not (0.0 < gamma1 <= 1.0 and 0.0 < gamma0 <= 1.0):
            raise ValueError("interior strengths must be in (0,1]")
        if not approval_ratio >= 0:
            raise ValueError("approval ratio must be nonnegative")
        self.engine = EngineConfig() if engine is None else engine
        self.gamma1 = gamma1
        self.gamma0 = gamma0
        self.approval_ratio = approval_ratio


class Judgement(NamedTuple):
    """What `run` decides of one claim: its posterior, residual and
    approval, and ``text``, the record lines they print, from the
    ``filtered`` line's value on."""

    posterior: float
    residual: float
    approved: bool
    text: str


# The record lines, from the ``filtered`` line's value on, of a path that
# fails the evidence filter.
_FAILED = "fail\nposterior -\nresidual -\napproved no"

# Claims a base's judgement table holds before it is cleared: about 470
# bytes each with key and text (tracemalloc, on the benchmark's claims),
# so under 1 MB.
_JUDGEMENTS_MAX = 2000


class PathRecord(NamedTuple):
    # `run` gives a record the judgement of its claim exactly when its path
    # passes the evidence filter, so the judgement decides the ``filtered``
    # line.
    path_text: str
    sc: float
    rs_text: str
    judgement: Judgement | None

    def render(self) -> str:
        judged = _FAILED if self.judgement is None else self.judgement.text
        return f"path {self.path_text}\nsc {self.sc!r}\nrs {self.rs_text}\nfiltered {judged}"


class RunReport:
    def __init__(self, records: list[PathRecord], evaluated: int, approved: int):
        self.records = records
        self.reported = len(records)
        self.evaluated = evaluated
        self.approved = approved

    def render(self) -> str:
        lines = ["# planmark run report"] + [record.render() for record in self.records]
        lines.append(f"counters reported={self.reported} "
                     f"evaluated={self.evaluated} approved={self.approved}")
        return "\n".join(lines) + "\n"


# Path k of a run names its fresh instances p<k>-gen-<j>.  An observation
# of that name would merge with one of them in RS(P), so streams may not
# use the form.
_RESERVED_ID_RE = re.compile(r"p[0-9]+-gen-[0-9]+\Z")


def parse_stream(text: str) -> list[tuple[str, tuple, int]]:
    """Input records in order: ("inst", Observation, index) and
    ("corroborate", (schema, slot), index), where ``index`` counts the
    text's forms and `paths.form_start` finds the line of one."""
    forms = read_forms(text, KbError.from_reader)
    records = []
    # A problem with one record is named with the line of its form.
    try:
        for index, items in enumerate(forms):
            head = items[0]
            if head == "inst":
                if len(items) == 3:
                    belief = 1.0
                elif len(items) == 5 and items[3] == ":belief":
                    try:
                        belief = float(items[4])
                    except ValueError:
                        raise KbError(f"bad belief {items[4]!r}") from None
                else:
                    raise KbError("inst record is (inst ID SCHEMA [:belief FLOAT])")
                if _RESERVED_ID_RE.match(items[1]):
                    raise KbError(f"instance ID {items[1]!r} is reserved: p<k>-gen-<j> "
                                  "names the fresh instances of path k")
                records.append(("inst", tuple.__new__(
                    Observation, (items[1], items[2], belief)), index))
            elif head == "corroborate":
                if len(items) != 3:
                    raise KbError("corroborate record is (corroborate SCHEMA SLOT)")
                records.append(("corroborate", (items[1], items[2]), index))
            else:
                raise KbError(f"unknown record {head!r}")
    except KbError as exc:
        raise KbError(str(exc), form_start(text, index)[0]) from None
    return records


def _check_corroboration(kb: KnowledgeBase, schema: str, slot: str) -> None:
    # A slot equality is corroborated at its owner's relevant type or an
    # ancestor, and that type has the slot, so a record whose slot is
    # declared on no ancestor, descendant or the schema itself never counts.
    kb.prior(schema)  # rejects an unknown schema
    owners, parents = kb.slot_owners.get(slot, ()), kb.parents
    name = schema
    while name is not None:  # declared on the schema or an ancestor
        if name in owners:
            return
        name = parents[name]
    for name in owners:  # declared on a descendant
        while name is not None:
            if name == schema:
                return
            name = parents[name]
    raise KbError(f"slot {slot!r} is declared neither on {schema!r} nor on "
                  "its isa ancestors or descendants")


def run(kb: KnowledgeBase, config: RunConfig, stream_text: str) -> RunReport:
    engine = MarkerEngine(kb, config.engine)
    corroborated: dict[str, set[str]] = {}  # slot -> schemas it is corroborated at

    for head, payload, index in parse_stream(stream_text):
        # The base rejects a record's unknown schema or belief out of range,
        # the engine a conflicting re-observation; name its line.
        try:
            if head == "inst":
                engine.seed(payload)
            else:
                schema, slot = payload
                schemas = corroborated.setdefault(slot, set())
                if schema not in schemas:  # a repeat passed the first time
                    _check_corroboration(kb, schema, slot)
                    schemas.add(schema)
        except (KbError, ValueError) as exc:
            raise KbError(str(exc), form_start(stream_text, index)[0]) from None
    engine.spread()

    records = []
    evaluated = 0
    approved_count = 0
    judgements = kb.judgements
    gamma1, gamma0, ratio = config.gamma1, config.gamma0, config.approval_ratio
    # The engine scored each path when it emitted it.
    for index, (path, sc) in enumerate(engine.scores.items(), start=1):
        rs = relevant_statements(path, f"p{index}-gen-")
        judgement = None
        if evidence_filter(kb, rs, corroborated):
            claim = (path.links, path.start.belief, path.end.belief, gamma1, gamma0, ratio)
            judgement = judgements.get(claim)
            if judgement is None:
                network = build_network(kb, path, rs)
                posterior, residual = exact_posterior(
                    network, default_cpts(kb, network, gamma1, gamma0))
                approved = approve(network, posterior, ratio=ratio)
                if len(judgements) >= _JUDGEMENTS_MAX:
                    judgements.clear()
                judgement = judgements[claim] = Judgement(
                    posterior, residual, approved,
                    f"pass\nposterior {posterior!r}\nresidual {residual!r}\n"
                    f"approved {'yes' if approved else 'no'}")
            evaluated += 1
            approved_count += judgement.approved
        records.append(PathRecord(path.render(), sc, "".join(rs.statements), judgement))

    return RunReport(records=records, evaluated=evaluated, approved=approved_count)


# -- synthetic corpora ---------------------------------------------------------

class SynthParams:
    n_plans: int = 6
    n_stories: int = 6
    corroboration_density: float = 1.0

    def __init__(self, n_plans: int = n_plans, n_stories: int = n_stories,
                 corroboration_density: float = corroboration_density):
        # Counts, so 2.5 or True must not pass for one.
        for name, count in (("n_plans", n_plans), ("n_stories", n_stories)):
            if isinstance(count, bool) or not isinstance(count, int):
                raise ValueError(f"{name} must be an int, got {count!r}")
        if n_plans < 1:
            raise ValueError("a synthetic base needs at least one plan")
        if n_stories < 0:
            raise ValueError("n_stories must be nonnegative")
        # A probability, so True or "0.5" must not pass for one.
        if (isinstance(corroboration_density, bool)
                or not isinstance(corroboration_density, (int, float))):
            raise ValueError("corroboration density must be a real number, "
                             f"got {corroboration_density!r}")
        if not 0.0 <= corroboration_density <= 1.0:
            raise ValueError("corroboration density must be in [0,1]")
        self.n_plans = n_plans
        self.n_stories = n_stories
        self.corroboration_density = corroboration_density


class SynthCorpus(NamedTuple):
    kb_text: str
    streams: list[str]


def synth_corpus(seed: int, params: SynthParams | None = None) -> SynthCorpus:
    """A reproducible base of plans whose two slots point at distinct
    object types, under small category parents, plus one stream per story:
    two filler observations of one plan and corroboration records drawn at
    the requested density."""
    params = params or SynthParams()
    rng = random.Random(seed)
    lines = ["(eq-prior 0.001)"]
    plans = []
    for p in range(params.n_plans):
        plan = f"plan-{p}"
        kinds = (f"kind-{p}a", f"kind-{p}b")
        cat = f"category-{p}"
        plan_prior = 1e-5 * rng.uniform(0.5, 1.5)
        obj_priors = [0.04 * rng.uniform(0.8, 1.2) for _ in kinds]
        lines.append(f"(schema {plan} :prior {plan_prior!r})")
        lines.append(f"(schema {cat} :prior {min(1.0, 2.5 * max(obj_priors))!r})")
        for kind, prior in zip(kinds, obj_priors):
            lines.append(f"(schema {kind} :isa {cat} :prior {prior!r})")
        lines.append(f"(role {plan} first-of {kinds[0]})")
        lines.append(f"(role {plan} second-of {kinds[1]})")
        plans.append((plan, kinds))
    kb_text = "\n".join(lines) + "\n"

    streams = []
    for s in range(params.n_stories):
        plan, kinds = plans[rng.randrange(len(plans))]
        story = [
            f"(inst story{s}-a {kinds[0]} :belief 1.0)",
            f"(inst story{s}-b {kinds[1]} :belief 1.0)",
        ]
        for slot in ("first-of", "second-of"):
            if rng.random() < params.corroboration_density:
                story.append(f"(corroborate {plan} {slot})")
        streams.append("\n".join(story) + "\n")
    return SynthCorpus(kb_text=kb_text, streams=streams)

