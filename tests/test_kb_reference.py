"""The loader held to its reference.

`load_kb` must build what `oracles.load_kb_reference`, the loader before
it held one object per name, builds from the same source: the same
schemas, priors, parents and slot owners, the same link texts, fields and
twins, and the same adjacency, every table in the same order.  A source
one of them rejects, the other must reject with the same `KbError`
message and line.  The sources are the benchmark's bases and the scaling
curve's (read from `bench/workloads.py` without changing it), `random_kb`
texts, and hypothesis mutations of those that break each rule the loader
checks: bad names, duplicates, unknown parents and fillers, isa cycles,
priors and eq-priors out of bounds, comments inside forms, CRLF line
ends and malformed forms.
"""

import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planmark import KbError, load_kb
from planmark.kb import _all_names

from oracles import load_kb_reference, random_kb_text

sys.path.insert(0, str(Path(__file__).parents[1] / "bench"))
import workloads  # noqa: E402


def tables(base):
    """Everything a loaded base holds, in its tables' order."""
    links = [(text, link.kind, link.slot, link.filler, link.source, link.destination,
              link.multiplier, link.text, link.twin.text)
             for text, link in base.links.items()]
    adjacency = [(name, [link.text for link in entries])
                 for name, entries in base.adjacency.items()]
    return (list(base.schemas.items()), base.eq_prior, list(base.priors.items()),
            list(base.parents.items()), list(base.slot_owners.items()), links, adjacency)


def outcome(loader, text):
    try:
        base = loader(text)
    except KbError as exc:
        return "rejected", str(exc), exc.line
    return "loaded", tables(base)


def assert_same_outcome(text):
    got = outcome(load_kb, text)
    assert got == outcome(load_kb_reference, text)
    return got


@pytest.mark.parametrize("smoke", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_bases_load_as_the_reference_loads_them(name, smoke):
    assert assert_same_outcome(workloads.build(name, smoke).kb_text)[0] == "loaded"


@pytest.mark.parametrize("size", workloads.CURVE_SIZES)
def test_curve_bases_load_as_the_reference_loads_them(size):
    assert assert_same_outcome(workloads.corpus(size).kb_text)[0] == "loaded"


@pytest.mark.parametrize("seed", range(12))
def test_random_bases_load_as_the_reference_loads_them(seed):
    text = random_kb_text(seed, n_schemas=10 + 7 * seed, n_roles=8 + 9 * seed)
    assert assert_same_outcome(text)[0] == "loaded"


# -- mutated sources ------------------------------------------------------------

BAD_NAMES = ["1x", "a.b", "_a", "-a", ":isa", "0.5", "x/y", "é", "aé", "Ａ", "a٣", "ǅ"]
NUMBERS = ["0", "1", "1.0", "1.5", "-0.1", "nan", "inf", "1e-310", "x", "0.999",
           "1e-9", "0.3", "0.05", "1_0"]


def _tokens(line):
    return line.replace("(", " ").replace(")", " ").split()


def _forms(lines, rng, heads):
    picks = [i for i, tokens in enumerate(map(_tokens, lines)) if tokens and tokens[0] in heads]
    return rng.choice(picks) if picks else None


def _schema_names(lines):
    return [tokens[1] for tokens in map(_tokens, lines)
            if len(tokens) > 1 and tokens[0] == "schema"]


def _rewrite(lines, i, tokens):
    lines[i] = "(" + " ".join(tokens) + ")"


def bad_name(lines, rng):
    i = rng.randrange(len(lines))
    tokens = _tokens(lines[i])
    if len(tokens) > 1:
        tokens[rng.randrange(1, len(tokens))] = rng.choice(BAD_NAMES)
        _rewrite(lines, i, tokens)


def unknown_name(lines, rng):
    i = rng.randrange(len(lines))
    tokens = _tokens(lines[i])
    if len(tokens) > 1:
        tokens[rng.randrange(1, len(tokens))] = f"ghost{rng.randrange(3)}"
        _rewrite(lines, i, tokens)


def duplicate(lines, rng):
    lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))


def delete(lines, rng):
    del lines[rng.randrange(len(lines))]


def reparent(lines, rng):
    # Any schema may become any other's child: cycles, priors above the
    # parent's and children that sum above it.
    i = _forms(lines, rng, {"schema"})
    if i is not None:
        tokens = _tokens(lines[i])
        _rewrite(lines, i, tokens[:2] + [":isa", rng.choice(_schema_names(lines))] + tokens[-2:])


def renumber(lines, rng):
    i = _forms(lines, rng, {"schema", "eq-prior"})
    if i is not None:
        tokens = _tokens(lines[i])
        tokens[-1] = rng.choice(NUMBERS + [repr(rng.random() ** 4)])
        _rewrite(lines, i, tokens)


def reslot(lines, rng):
    # Another filler for a declared slot: a duplicate slot, or a filler
    # whose prior is below p(==).
    i = _forms(lines, rng, {"role"})
    names = _schema_names(lines)
    if i is not None and names:
        tokens = _tokens(lines[i]) + ["s0", "slot-0"]  # in case a mutation shortened it
        lines.insert(i + 1, f"(role {tokens[1]} {tokens[2]} {rng.choice(names)})")


def reslot_below_eq(lines, rng):
    # Another filler for a declared slot, the schema of least prior, with
    # p(==) raised above that prior: a role both a duplicate slot and
    # below p(==), whose first problem is the duplicate.
    i = _forms(lines, rng, {"role"})
    priors = {}
    for tokens in map(_tokens, lines):
        if len(tokens) > 2 and tokens[0] == "schema":
            try:
                priors[tokens[1]] = float(tokens[-1])
            except ValueError:
                pass
    if i is not None and priors:
        low = min(priors, key=priors.get)
        tokens = _tokens(lines[i]) + ["s0", "slot-0"]  # in case a mutation shortened it
        lines.insert(i + 1, f"(role {tokens[1]} {tokens[2]} {low})")
        lines[:] = [f"(eq-prior {priors[low] * 1.5!r})" if line.startswith("(eq-prior")
                    else line for line in lines]


def reshape(lines, rng):
    i = rng.randrange(len(lines))
    tokens = _tokens(lines[i])
    choice = rng.randrange(5)
    if choice == 0 and len(tokens) > 1:
        del tokens[rng.randrange(1, len(tokens))]
    elif choice == 1:
        tokens.insert(rng.randrange(1, len(tokens) + 1), rng.choice([":prior", ":isa", "a"]))
    elif choice == 2:
        tokens[0] = rng.choice(["frob", "inst", "Schema", "isa"])
    elif choice == 3 and len(tokens) > 2:
        tokens[2] = rng.choice([":isa", ":prior", ":pri0r"])
    else:
        tokens = tokens[:1]
    _rewrite(lines, i, tokens)


def break_syntax(lines, rng):
    i = rng.randrange(len(lines))
    line = lines[i]
    choice = rng.randrange(4)
    if choice == 0:
        lines[i] = line[:-1]
    elif choice == 1:
        lines[i] = line[1:]
    elif choice == 2:
        lines[i] = line[:-1] + " (x))"
    else:
        lines.insert(i, rng.choice(["()", "( ;c\n)", "x", ")"]))


MUTATIONS = {fn.__name__: fn for fn in (bad_name, unknown_name, duplicate, delete, reparent,
                                        renumber, reslot, reslot_below_eq, reshape,
                                        break_syntax)}


def comment_inside(text, rng):
    # A comment (with parentheses in it) after a random atom, inside its form.
    atoms = [m.end() for m in re.finditer(r"[^\s();]+", text)]
    for at in sorted(rng.sample(atoms, min(3, len(atoms))), reverse=True):
        text = text[:at] + " ; note (x) y)\n" + text[at:]
    return text


def mutated_source(seed, mutations, comments, crlf, shuffle):
    lines = random_kb_text(seed, n_schemas=6 + seed % 9, n_roles=5 + seed % 7).splitlines()
    for name, mutation_seed in mutations:
        if lines:
            MUTATIONS[name](lines, random.Random(mutation_seed))
    if shuffle is not None:
        random.Random(shuffle).shuffle(lines)
    text = "\n".join(lines) + "\n"
    if comments is not None:
        text = comment_inside(text, random.Random(comments))
    if crlf:
        text = text.replace("\n", "\r\n")
    return text


sources = st.builds(
    mutated_source,
    st.integers(0, 40),
    st.lists(st.tuples(st.sampled_from(sorted(MUTATIONS)), st.integers(0, 2 ** 16)),
             max_size=4),
    st.none() | st.integers(0, 2 ** 16),
    st.booleans(),
    st.none() | st.integers(0, 2 ** 16),
)


@settings(max_examples=400, deadline=None)
@given(sources)
def test_mutated_sources_load_or_fail_as_the_reference_does(text):
    assert_same_outcome(text)


def test_mutations_reach_every_rule():
    # The mutations are worth running only if they break each rule the
    # loader checks, and leave some sources whole.
    rng = random.Random(0)
    seen = set()
    for _ in range(1500):
        mutations = [(rng.choice(sorted(MUTATIONS)), rng.randrange(2 ** 16))
                     for _ in range(rng.randrange(1, 3))]
        text = mutated_source(rng.randrange(40), mutations,
                              rng.choice([None, rng.randrange(99)]), rng.random() < 0.3,
                              rng.choice([None, rng.randrange(99)]))
        got = assert_same_outcome(text)
        seen.add(got[0] if got[0] == "loaded" else got[1])
    for rule in ["loaded", "bad name", "bad number", "duplicate schema", "duplicate eq-prior",
                 "duplicate slot", "unknown parent", "unknown filler", "role on unknown schema",
                 "isa cycle", "above its parent", "summing to", "must be in (0,1]",
                 "eq-prior must be in (0,1)", "is subnormal", "exceeds the prior", "unknown form",
                 "schema form is", "role form is", "missing eq-prior", "empty form",
                 "unterminated form", "expected"]:
        assert any(rule in entry for entry in seen), (rule, sorted(seen))


# -- names ----------------------------------------------------------------------

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet=st.sampled_from("aZ09_-.:éＡ٣ǅ\x00"), min_size=1,
                        max_size=4) | st.text(min_size=1, max_size=3), max_size=6))
def test_names_are_checked_as_the_reference_checks_each_one(tokens):
    assert _all_names(tokens) == all(NAME_RE.match(token) for token in tokens)
