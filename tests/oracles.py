"""Reference implementations used only by the tests.

`GlueThenValidateEngine` is the marker engine with its original meeting
handler: every meeting of marks from two origins is glued into a whole
path and run through `validate` before it is scored, with links flipped
one by one and duplicates found by rendered text.  The engine itself
hands only meetings the seam table allows to `_collide`, scores them
before building anything, glues stored twins and deduplicates on link
tuples; this class replaces both `_place` and `_collide`, so none of that
is shared.

`relevant_statements_by_fold` is the original RS(P) translation, which
picks each instance's relevant type by folding `isa_star` over every type
S(P) gives it; `evidence_filter_by_scan` is the original evidence filter,
which checks every instance (observed, or corroborated for any slot) and
every slot equality by scanning all corroboration records.  The package
reads relevant types off the walk's shape and looks slots up in an index.

The rest are reference evaluators for vertebrate networks.

`planmark.bayes.exact_posterior` computes (joint, residual) in closed form.
The two evaluators here reach the same quantities without relying on the
spine's structure: `posterior_by_enumeration` sums every assignment of the
non-evidence nodes (2^n terms, chunked through numpy; the sums themselves
come from `masses_by_enumeration`), and
`posterior_by_elimination` runs sum-product variable elimination over
explicit factor tables.  Both cost exponential time; keep them to small
networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from planmark.bayes import Cpts, VertebrateNetwork
from planmark.kb import KnowledgeBase
from planmark.marker import Mark, MarkerEngine
from planmark.paths import Path, validate
from planmark.scoring import combine, score_path
from planmark.semantics import Inst, SlotEq, StatementSet, statements_of


class GlueThenValidateEngine(MarkerEngine):
    """`MarkerEngine` whose meetings are glued, validated, scored and
    deduplicated on rendered text, in that order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._emitted_texts: set[str] = set()

    def _place(self, mark: Mark) -> None:
        # The engine's best-trail retention, then every meeting with a
        # mark from another origin, in the order the marks arrived here.
        incumbent = self.marks.get(mark.key)
        if incumbent is not None and incumbent.score >= mark.score:
            return
        self.marks[mark.key] = mark
        self._at.setdefault(mark.at, {})[mark.key] = mark
        for other in list(self._at[mark.at].values()):
            if other.origin.instance != mark.origin.instance:
                self._collide(mark, other)
        if len(mark.trail) < self.config.max_depth:
            self._queue.append(mark)

    def _collide(self, m1: Mark, m2: Mark) -> None:
        # Orient the glued path from the earlier-seeded observation.
        if self._seed_order[m2.origin.instance] < self._seed_order[m1.origin.instance]:
            m1, m2 = m2, m1
        links = m1.trail + tuple(link.flip() for link in reversed(m2.trail))
        if not links:
            return
        path = Path(start=m1.origin, links=links, end=m2.origin)
        if not validate(path):
            return  # the seam forms a plateau/valley no single path allows
        full = combine(self.kb, m1.at, m1.score, m2.score)
        if full < self.config.full_threshold:
            return
        direct = score_path(self.kb, path)
        if not math.isclose(full, direct, rel_tol=1e-9):
            raise AssertionError(
                f"cleave identity violated: combined {full!r} vs direct {direct!r}")
        text = path.render()
        if text in self._emitted_texts:
            return
        self._emitted_texts.add(text)
        self.emitted.append(path)
        self.scores.append(direct)
        self._pending.append(path)


def _most_specific(kb: KnowledgeBase, instance: str, types: list[str]) -> str:
    best = types[0]
    for t in types[1:]:
        if t == best or kb.isa_star(t, best):
            best = t
        elif not kb.isa_star(best, t):
            raise ValueError(
                f"types of {instance!r} are not on one isa chain: {best!r}, {t!r}")
    return best


def relevant_statements_by_fold(kb: KnowledgeBase, path: Path,
                                fresh_prefix: str = "gen-") -> StatementSet:
    """RS(P): all slot equalities, one inst statement per instance at its
    relevant type, in S(P) order."""
    full = statements_of(path, fresh_prefix)
    types: dict[str, list[str]] = {}
    for s in full.statements:
        if isinstance(s, Inst):
            types.setdefault(s.instance, []).append(s.schema)
    rts = {i: _most_specific(kb, i, ts) for i, ts in types.items()}
    kept = tuple(
        s for s in full.statements
        if isinstance(s, SlotEq) or rts[s.instance] == s.schema
    )
    return StatementSet(statements=kept, fresh=full.fresh)


@dataclass
class ScanRegistry:
    """What the rest of the input corroborates: (schema, slot) records plus
    the set of instances that were directly observed."""

    records: set[tuple[str, str]] = field(default_factory=set)
    observed: set[str] = field(default_factory=set)

    def add_corroboration(self, schema: str, slot: str) -> None:
        self.records.add((schema, slot))

    def add_observed(self, instance: str) -> None:
        self.observed.add(instance)


def evidence_filter_by_scan(kb: KnowledgeBase, rs: StatementSet,
                            registry: ScanRegistry) -> bool:
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


_CHUNK_BITS = 16


def masses_by_enumeration(network: VertebrateNetwork,
                          cpts: Cpts) -> tuple[float, float, float]:
    """(s0, s1, numerator) by full enumeration: the probability of the end
    evidence, of the end and interior evidence together, and of those with
    every instance and equality node true."""
    n_inst = len(cpts.inst_prior)
    n_eq = len(cpts.eq_true)
    n = n_inst + n_eq

    priors = np.asarray(cpts.inst_prior)
    eq_p = np.asarray(cpts.eq_true)
    (e1_t, e1_f), (e2_t, e2_f) = cpts.evidence

    total = 1 << n
    s0 = 0.0
    s1 = 0.0
    numerator = 0.0
    chunk = 1 << min(n, _CHUNK_BITS)
    for base in range(0, total, chunk):
        idx = np.arange(base, min(base + chunk, total), dtype=np.uint64)
        bits = (idx[:, None] >> np.arange(n, dtype=np.uint64)) & 1
        inst_bits = bits[:, :n_inst].astype(bool)
        eq_bits = bits[:, n_inst:].astype(bool)

        w = np.prod(np.where(inst_bits, priors, 1.0 - priors), axis=1)
        w *= np.where(inst_bits[:, 0], e1_t, e1_f)
        w *= np.where(inst_bits[:, -1], e2_t, e2_f)
        both = inst_bits[:, :-1] & inst_bits[:, 1:]  # parents of eq k
        w *= np.prod(np.where(eq_bits, np.where(both, eq_p, 0.0),
                              np.where(both, 1.0 - eq_p, 1.0)), axis=1)
        w_ei = w * np.where(eq_bits.all(axis=1), cpts.gamma1, cpts.gamma0)

        s0 += float(w.sum())
        s1 += float(w_ei.sum())
        if base + len(idx) == total:
            numerator = float(w_ei[-1])  # the all-true assignment
    return s0, s1, numerator


def posterior_by_enumeration(network: VertebrateNetwork,
                             cpts: Cpts) -> tuple[float, float]:
    """(joint, residual) by full enumeration.

    ``joint`` is P(every instance and equality node true | both end
    evidence nodes and the interior evidence node).  ``residual`` is the
    bounded group the joint factors into beyond the spinal contribution:
    p(==)^k * gamma1 / P(E_I | e1, e2).
    """
    s0, s1, numerator = masses_by_enumeration(network, cpts)
    joint = numerator / s1
    p_ei_given_ends = s1 / s0
    residual = (cpts.eq_prior ** len(cpts.eq_true)) * cpts.gamma1 / p_ei_given_ends
    return joint, residual


@dataclass
class _Factor:
    vars: tuple[int, ...]
    table: dict[tuple[int, ...], float] = field(default_factory=dict)

    def value(self, assignment: dict[int, int]) -> float:
        return self.table[tuple(assignment[v] for v in self.vars)]


def _multiply(a: _Factor, b: _Factor) -> _Factor:
    vars_out = tuple(dict.fromkeys(a.vars + b.vars))
    out = _Factor(vars_out)
    for values in iter_product((0, 1), repeat=len(vars_out)):
        assignment = dict(zip(vars_out, values))
        out.table[values] = a.value(assignment) * b.value(assignment)
    return out


def _sum_out(factor: _Factor, var: int) -> _Factor:
    keep = tuple(v for v in factor.vars if v != var)
    out = _Factor(keep, {values: 0.0 for values in iter_product((0, 1), repeat=len(keep))})
    pos = factor.vars.index(var)
    for values, weight in factor.table.items():
        reduced = values[:pos] + values[pos + 1:]
        out.table[reduced] += weight
    return out


def _eliminate_all(factors: list[_Factor], order: list[int]) -> float:
    live = list(factors)
    for var in order:
        touching = [f for f in live if var in f.vars]
        rest = [f for f in live if var not in f.vars]
        merged = touching[0]
        for f in touching[1:]:
            merged = _multiply(merged, f)
        live = rest + [_sum_out(merged, var)]
    result = 1.0
    for f in live:
        result *= f.table[()]
    return result


def posterior_by_elimination(network: VertebrateNetwork, cpts: Cpts) -> tuple[float, float]:
    """Same (joint, residual) by sum-product variable elimination."""
    n_inst = len(cpts.inst_prior)
    n_eq = len(cpts.eq_true)
    inst_var = list(range(n_inst))
    eq_var = [n_inst + k for k in range(n_eq)]

    factors: list[_Factor] = []
    for i, q in enumerate(cpts.inst_prior):
        factors.append(_Factor((inst_var[i],), {(1,): q, (0,): 1.0 - q}))
    (e1_t, e1_f), (e2_t, e2_f) = cpts.evidence
    factors.append(_Factor((inst_var[0],), {(1,): e1_t, (0,): e1_f}))
    factors.append(_Factor((inst_var[-1],), {(1,): e2_t, (0,): e2_f}))
    for k, p in enumerate(cpts.eq_true):
        table = {}
        for a, b, e in iter_product((0, 1), repeat=3):
            on = p if (a and b) else 0.0
            table[(a, b, e)] = on if e else 1.0 - on
        factors.append(_Factor((inst_var[k], inst_var[k + 1], eq_var[k]), table))

    interior = _Factor(tuple(eq_var), {
        values: cpts.gamma1 if all(values) else cpts.gamma0
        for values in iter_product((0, 1), repeat=n_eq)
    })

    order = inst_var + eq_var
    s0 = _eliminate_all(factors, order)
    s1 = _eliminate_all(factors + [interior], order)
    all_true = {v: 1 for v in order}
    numerator = 1.0
    for f in factors + [interior]:
        numerator *= f.value(all_true)

    joint = numerator / s1
    residual = (cpts.eq_prior ** n_eq) * cpts.gamma1 / (s1 / s0)
    return joint, residual
