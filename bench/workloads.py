"""Input generators for the planmark benchmark.

The generators live here, not in the package, so that a change to
`planmark.pipeline` cannot change what the benchmark feeds the program.
The program only ever receives KB text and stream text.

Each workload has a fixed schema base (the deployed KB) and draws its
traffic, one stream per call, from ``--seed`` and the call index.  The base
does not depend on the seed: the median call of `spread` differed by 15%
between two random bases, which would bury regressions under seed noise.

`corpus_kb`/`corpus_stream` port `planmark.pipeline.synth_corpus` and
`spread_kb` ports `planmark.pipeline.random_kb` line for line, so their
instance names (``storyN-a``, ``oN``) and priors match the package's own
generators.  `longpath_kb` plants role chains with every slot
corroborated, so every path reaches exact network evaluation.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1
# Streams of the default seed whose outputs are pinned in reference.json.
REFERENCE_CALLS = 2


@dataclass(frozen=True)
class Stream:
    text: str
    n_inst: int
    planted: tuple[str, ...]  # path texts the generator planted


@dataclass(frozen=True)
class Workload:
    name: str
    kb_text: str
    threshold: float
    full_threshold: float
    max_depth: int
    # How the host's slow state lengthens this workload's calls, as a power
    # of how it lengthens the reference loop (see hostspeed.py).
    host_exponent: float
    make_stream: object = field(repr=False)  # (rng) -> Stream

    def stream(self, seed: int, index: int) -> Stream:
        return self.make_stream(random.Random(f"{self.name}:{seed}:{index}"))

    def cli_args(self) -> list[str]:
        return ["--threshold", repr(self.threshold),
                "--full-threshold", repr(self.full_threshold),
                "--max-depth", str(self.max_depth)]

    def inputs_sha256(self, seed: int = DEFAULT_SEED,
                      calls: int = REFERENCE_CALLS) -> str:
        digest = hashlib.sha256(self.kb_text.encode())
        for index in range(calls):
            digest.update(b"\0" + self.stream(seed, index).text.encode())
        return digest.hexdigest()


# -- corpus: planted two-slot plans, stories with corroboration ---------------

def corpus_kb(rng: random.Random, n_plans: int) -> tuple[str, list]:
    """The base half of `synth_corpus` with its default SynthParams."""
    plan_prior_scale, object_prior, eq_prior = 1e-5, 0.04, 1e-3
    lines = [f"(eq-prior {eq_prior!r})"]
    plans = []
    for p in range(n_plans):
        plan = f"plan-{p}"
        kinds = (f"kind-{p}a", f"kind-{p}b")
        cat = f"category-{p}"
        plan_prior = plan_prior_scale * rng.uniform(0.5, 1.5)
        obj_priors = [object_prior * rng.uniform(0.8, 1.2) for _ in kinds]
        lines.append(f"(schema {plan} :prior {plan_prior!r})")
        lines.append(f"(schema {cat} :prior {min(1.0, 2.5 * max(obj_priors))!r})")
        for kind, prior in zip(kinds, obj_priors):
            lines.append(f"(schema {kind} :isa {cat} :prior {prior!r})")
        lines.append(f"(role {plan} first-of {kinds[0]})")
        lines.append(f"(role {plan} second-of {kinds[1]})")
        plans.append((plan, kinds))
    return "\n".join(lines) + "\n", plans


def corpus_stream(rng: random.Random, plans: list, n_stories: int,
                  density: float = 1.0) -> Stream:
    """The story half of `synth_corpus`, concatenated into one stream.
    Story s plants the path from its first to its second filler through
    the plan it was drawn from."""
    lines = []
    planted = []
    for s in range(n_stories):
        plan, kinds = plans[rng.randrange(len(plans))]
        lines.append(f"(inst story{s}-a {kinds[0]} :belief 1.0)")
        lines.append(f"(inst story{s}-b {kinds[1]} :belief 1.0)")
        for slot in ("first-of", "second-of"):
            if rng.random() < density:
                lines.append(f"(corroborate {plan} {slot})")
        planted.append(f"(inst story{s}-a {kinds[0]})"
                       f"(role {plan} first-of {kinds[0]})"
                       f"(role- {plan} second-of {kinds[1]})"
                       f"(inst story{s}-b {kinds[1]})")
    return Stream("\n".join(lines) + "\n", 2 * n_stories, tuple(planted))


def corpus(n: int) -> Workload:
    """n plans, n stories per stream; criterion 7's engine config."""
    kb_text, plans = corpus_kb(random.Random(f"corpus-kb:{n}"), n)
    return Workload("corpus", kb_text, threshold=1e-8, full_threshold=1e-8,
                    max_depth=6, host_exponent=0.75,
                    make_stream=lambda rng: corpus_stream(rng, plans, n))


# -- spread: a large random base, observations without corroboration ----------

def spread_kb(rng: random.Random, n_schemas: int, n_roles: int) -> tuple[str, dict]:
    """`random_kb` as text, plus the undirected adjacency of its links."""
    names = [f"s{k}" for k in range(n_schemas)]
    parent: dict[str, str | None] = {}
    prior: dict[str, float] = {}
    budget: dict[str, float] = {}
    for k, name in enumerate(names):
        candidates = names[:k]
        pick = rng.choice(candidates) if candidates and rng.random() < 0.6 else None
        if pick is None:
            parent[name] = None
            prior[name] = rng.uniform(0.05, 0.5)
        else:
            parent[name] = pick
            room = budget.get(pick, prior[pick])
            if room <= 1e-6:
                parent[name] = None
                prior[name] = rng.uniform(0.05, 0.5)
            else:
                share = room * rng.uniform(0.2, 0.8)
                prior[name] = share
                budget[pick] = room - share
        budget.setdefault(name, prior[name])

    adjacency: dict[str, set[str]] = {name: set() for name in names}
    lines = []
    for name in names:
        isa = f" :isa {parent[name]}" if parent[name] else ""
        lines.append(f"(schema {name}{isa} :prior {prior[name]!r})")
        if parent[name]:
            adjacency[name].add(parent[name])
            adjacency[parent[name]].add(name)
    used = set()
    slot_counter = 0
    for _ in range(n_roles):
        filled = rng.choice(names)
        filler = rng.choice(names)
        if (filled, filler) in used:
            continue
        used.add((filled, filler))
        lines.append(f"(role {filled} slot-{slot_counter} {filler})")
        adjacency[filled].add(filler)
        adjacency[filler].add(filled)
        slot_counter += 1
    eq_prior = min(prior.values()) * rng.uniform(0.1, 0.9)
    lines.insert(0, f"(eq-prior {eq_prior!r})")
    return "\n".join(lines) + "\n", adjacency


def _neighbourhood_size(adjacency: dict[str, set[str]], start: str, hops: int) -> int:
    seen = {start}
    frontier = [start]
    for _ in range(hops):
        reached = []
        for x in frontier:
            for y in adjacency[x] - seen:
                seen.add(y)
                reached.append(y)
        frontier = reached
    return len(seen)


def observation_strata(adjacency: dict[str, set[str]], n_strata: int) -> list[list[str]]:
    """Schemas ranked by the size of their 3-hop neighbourhood, cut into
    equal strata."""
    ranked = sorted(adjacency, key=lambda s: (_neighbourhood_size(adjacency, s, 3), s))
    return [ranked[k * len(ranked) // n_strata:(k + 1) * len(ranked) // n_strata]
            for k in range(n_strata)]


def spread(n_schemas: int, n_observations: int) -> Workload:
    """Every call observes the same scene, one schema from each stratum,
    with its records in a fresh order drawn from the seed and call index.

    A scene's cost depends on how close its observations lie and ranges
    over 3x between scenes.  With a fresh scene per call, a run's median
    was set by the few calls that landed mid-distribution, so it followed
    the draw and the host's state during those calls; one scene keeps the
    per-call cost constant, like the other workloads'."""
    kb_text, adjacency = spread_kb(random.Random(f"spread-kb:{n_schemas}"),
                                   n_schemas, n_schemas)
    strata = observation_strata(adjacency, n_observations)
    scene_rng = random.Random(f"spread-scene:{n_schemas}")
    scene = [scene_rng.choice(stratum) for stratum in strata]

    def make_stream(rng: random.Random) -> Stream:
        picks = list(scene)
        rng.shuffle(picks)
        text = "".join(f"(inst o{k} {schema})\n" for k, schema in enumerate(picks))
        return Stream(text, len(picks), ())

    return Workload("spread", kb_text, threshold=0.01, full_threshold=1e-4, max_depth=6,
                    host_exponent=0.75, make_stream=make_stream)


# -- longpath: planted role chains, every slot corroborated -------------------

def longpath_kb(rng: random.Random, lengths: range,
                per_length: int) -> tuple[str, dict[int, list]]:
    """Disjoint chains of k role links over k + 1 schemas, rising through
    RoleUp links to a top schema and falling through RoleDown links after
    it, so each chain holds exactly one valid path between its ends.  A
    chain of k role links induces a network of 2k + 1 nodes."""
    lines = ["(eq-prior 0.001)"]
    chains: dict[int, list] = {k: [] for k in lengths}
    for k in lengths:
        for c in range(per_length):
            tag = f"chain{k}x{c}"
            types = [f"{tag}-t{j}" for j in range(k + 1)]
            for t in types:
                lines.append(f"(schema {t} :prior {rng.uniform(0.02, 0.1)!r})")
            top = rng.randint(0, k)
            links = []      # rendered traversal links, start to end
            slots = []      # (owner, slot) records that corroborate the chain
            for j in range(k):
                slot = f"r{j}"
                if j < top:   # t_j fills slot r_j of t_{j+1}: RoleUp
                    owner, filler = types[j + 1], types[j]
                    links.append(f"(role {owner} {slot} {filler})")
                else:         # t_j owns slot r_j filled by t_{j+1}: RoleDown
                    owner, filler = types[j], types[j + 1]
                    links.append(f"(role- {owner} {slot} {filler})")
                lines.append(f"(role {owner} {slot} {filler})")
                slots.append((owner, slot))
            chains[k].append((types[0], types[-1], "".join(links), slots))
    return "\n".join(lines) + "\n", chains


def longpath_stream(rng: random.Random, chains: dict[int, list],
                    per_call: int) -> Stream:
    """``per_call`` distinct chains of every length, in shuffled order, one
    story each: both ends observed, every slot on the chain corroborated."""
    picked = [chain for k in chains for chain in rng.sample(chains[k], per_call)]
    rng.shuffle(picked)
    lines = []
    planted = []
    for s, (first, last, links, slots) in enumerate(picked):
        lines.append(f"(inst story{s}-a {first} :belief 1.0)")
        lines.append(f"(inst story{s}-b {last} :belief 1.0)")
        lines.extend(f"(corroborate {owner} {slot})" for owner, slot in slots)
        planted.append(f"(inst story{s}-a {first}){links}(inst story{s}-b {last})")
    return Stream("\n".join(lines) + "\n", 2 * len(picked), tuple(planted))


def longpath(max_roles: int) -> Workload:
    lengths = range(3, max_roles + 1)
    kb_text, chains = longpath_kb(random.Random(f"longpath-kb:{max_roles}"),
                                  lengths, per_length=4)
    return Workload("longpath", kb_text, threshold=1e-8, full_threshold=1e-8,
                    max_depth=max_roles, host_exponent=0.4,
                    make_stream=lambda rng: longpath_stream(rng, chains, 2))


# Full-size and smoke-size builders; sizes are the workload's definition.
WORKLOADS = {
    "corpus": (lambda: corpus(400), lambda: corpus(20)),
    "spread": (lambda: spread(2000, 12), lambda: spread(200, 3)),
    "longpath": (lambda: longpath(8), lambda: longpath(5)),
}
# Corpus sizes (plans = stories) of the scaling curve, smoke runs included.
CURVE_SIZES = (50, 200, 800)


def build(name: str, smoke: bool) -> Workload:
    return WORKLOADS[name][smoke]()
