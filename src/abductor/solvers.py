"""Abduction solvers: definitional brute-force oracles, the 2^|H| baselines,
the model-enumeration algorithms (full-class and weight-ordered positive), the
polynomial-space recursive positive solver, the 1-valid shortcut, and the
positive-clause pipeline through SimpleSAT.

Every solver preprocesses its input (see core.preprocess) and returns an
AbdResult whose witness, when present, passes core.is_explanation on the
instance the caller passed, so it includes the manifestations that preprocess
drops as self-explained.  The explanation sets (of enum_abd, pabd_enum and the
oracle_*_explanations functions) are over preprocess(inst).instance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .core import (AbductionInstance, Explanation, FragmentError, Formula,
                   PreprocessResult, TRIVIALLY_NO, conjoin_literals, entails,
                   evaluate, preprocess, satisfies_vars, submasks, SatDecider)
from .langlib import ConstraintLanguage, is_one_valid
from .reductions import ReductionReport, abd_to_simplesat
from .satenum import (EnumStats, ModelStream, WEIGHT_ORDERED, decide,
                      enumerate_models, enumerate_weight_ordered, hyp_mask,
                      solve_simple_sat, weight)


class OrderingContractError(RuntimeError):
    """A weight-ordered model stream emitted an increasing weight."""


class OracleCapError(ValueError):
    """Instance exceeds the brute-force size cap."""


# brute-force size caps: 2^n assignments, the 2^|H| lattice, the 3^|H| sweep
ORACLE_MAX_VARS = 20
ORACLE_MAX_HYP = 16
GENERAL_MAX_HYP = 10


@dataclass(frozen=True)
class AbdResult:
    answer: bool
    witness: Explanation | None
    stats: EnumStats
    algorithm: str
    report: ReductionReport | None = None  # of the reduction the solver ran


@dataclass(frozen=True)
class ExplanationSet:
    explanations: frozenset[frozenset[int]]


def _yes(pre: PreprocessResult, lits: Iterable[int], stats: EnumStats,
         algorithm: str, report: ReductionReport | None = None) -> AbdResult:
    """Answer yes for the caller's instance: lits explains pre.instance, and
    the self-explained manifestations preprocess dropped are added back."""
    return AbdResult(True, Explanation(frozenset(lits) | pre.self_explained),
                     stats, algorithm, report)


def _no(algorithm: str, stats: EnumStats | None = None) -> AbdResult:
    return AbdResult(False, None, stats or EnumStats(), algorithm)


def _positive(mask: int, hyp: Iterable[int]) -> frozenset[int]:
    """The hypotheses whose bits are set in the variable-bit mask."""
    return frozenset(h for h in hyp if (mask >> (h - 1)) & 1)


def _full(mask: int, hyp: Iterable[int]) -> frozenset[int]:
    """The full literal set over hyp that the mask picks: h if set, else ¬h."""
    return frozenset(h if (mask >> (h - 1)) & 1 else -h for h in hyp)


def _maximal(patterns: Iterable[int]) -> list[int]:
    """The subset-maximal bit patterns, widest first."""
    maximal: list[int] = []
    for p in sorted(patterns, key=lambda q: -bin(q).count("1")):
        if not any(q != p and q & p == p for q in maximal):
            maximal.append(p)
    return maximal


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def brute_models(phi: Formula) -> tuple[int, ...]:
    """Every satisfying total assignment, by scanning all 2^n candidates."""
    return tuple(s for s in range(1 << phi.num_vars) if evaluate(phi, s))


def model_table(inst: AbductionInstance) -> tuple[dict[int, int], dict[int, int]]:
    """The models of KB counted per H-projection sigma & hmask: (all models,
    models violating M).  Exhaustive and without preprocessing, so the raw
    audits of preprocess use it as it is."""
    if inst.num_vars > ORACLE_MAX_VARS:
        raise OracleCapError(f"n={inst.num_vars} exceeds oracle cap {ORACLE_MAX_VARS}")
    if len(inst.hypotheses) > ORACLE_MAX_HYP:
        raise OracleCapError(f"|H|={len(inst.hypotheses)} exceeds oracle cap {ORACLE_MAX_HYP}")
    hmask = hyp_mask(inst.hypotheses)
    count: dict[int, int] = {}
    bad: dict[int, int] = {}
    for sigma in brute_models(inst.kb):
        proj = sigma & hmask
        count[proj] = count.get(proj, 0) + 1
        if not satisfies_vars(sigma, inst.manifestations):
            bad[proj] = bad.get(proj, 0) + 1
    return count, bad


def pabd_lattice(inst: AbductionInstance) -> tuple[dict[int, int], dict[int, int]]:
    """Superset-summed (sat-count, bad-count) tables over the H-subset lattice,
    keyed by the submasks of the H mask in increasing order."""
    count, bad = model_table(inst)
    f = dict.fromkeys(submasks(hyp_mask(inst.hypotheses)), 0)
    g = dict(f)
    for proj, c in count.items():
        f[proj] += c
        g[proj] += bad.get(proj, 0)
    for v in sorted(inst.hypotheses):
        bit = 1 << (v - 1)
        for p in f:
            if not p & bit:
                f[p] += f[p | bit]
                g[p] += g[p | bit]
    return f, g


def _oracle_stats(phi: Formula, models: int) -> EnumStats:
    return EnumStats(branch_nodes=0, leaves=1 << phi.num_vars,
                     models_emitted=models, max_depth=0)


def oracle_abd(inst: AbductionInstance) -> AbdResult:
    """Ground truth for symmetric abduction via exhaustive assignment scan.

    Iterates the 2^|H| full candidates; a candidate survives iff it has a
    model and every model of KB extending it satisfies M (an explanation
    exists iff a full one does).
    """
    pre = preprocess(inst)
    if pre.verdict == TRIVIALLY_NO:
        return _no("oracle-abd")
    inst = pre.instance
    count, bad = model_table(inst)
    good = [p for p in count if p not in bad]
    stats = _oracle_stats(inst.kb, sum(count.values()))
    if not good:
        return _no("oracle-abd", stats)
    return _yes(pre, _full(min(good), sorted(inst.hypotheses)), stats, "oracle-abd")


def oracle_full_explanations(inst: AbductionInstance) -> frozenset[frozenset[int]]:
    pre = preprocess(inst)
    if pre.verdict == TRIVIALLY_NO:
        return frozenset()
    inst = pre.instance
    count, bad = model_table(inst)
    hyp = sorted(inst.hypotheses)
    return frozenset(_full(p, hyp) for p in count if p not in bad)


def oracle_pabd(inst: AbductionInstance) -> AbdResult:
    """Ground truth for positive abduction: every E ⊆ H is checked against the
    exhaustively computed model table (E is an explanation iff some model sets
    E true and no model setting E true violates M)."""
    pre = preprocess(inst)
    if pre.verdict == TRIVIALLY_NO:
        return _no("oracle-pabd")
    inst = pre.instance
    f, g = pabd_lattice(inst)
    stats = _oracle_stats(inst.kb, f[0])  # f[0] sums over every model
    ok = [p for p in f if f[p] > 0 and g[p] == 0]
    if not ok:
        return _no("oracle-pabd", stats)
    best = max(ok, key=lambda p: bin(p).count("1"))
    return _yes(pre, _positive(best, sorted(inst.hypotheses)), stats, "oracle-pabd")


def oracle_positive_explanations(inst: AbductionInstance) -> tuple[frozenset[frozenset[int]],
                                                                   frozenset[frozenset[int]]]:
    """(all positive explanations, the subset-maximal ones)."""
    pre = preprocess(inst)
    if pre.verdict == TRIVIALLY_NO:
        return frozenset(), frozenset()
    inst = pre.instance
    f, g = pabd_lattice(inst)
    hyp = sorted(inst.hypotheses)
    all_ok = [p for p in f if f[p] > 0 and g[p] == 0]
    return (frozenset(_positive(p, hyp) for p in all_ok),
            frozenset(_positive(p, hyp) for p in _maximal(all_ok)))


def oracle_abd_general(inst: AbductionInstance) -> bool:
    """Slow independent check over *all* consistent E ⊆ Lits(H) (3^|H| sets).

    Exists to validate the extension property the faster oracles rely on:
    an explanation exists iff a full one does.
    """
    pre = preprocess(inst)
    if pre.verdict == TRIVIALLY_NO:
        return False
    inst = pre.instance
    if len(inst.hypotheses) > GENERAL_MAX_HYP:
        raise OracleCapError("|H| too large for the 3^|H| sweep")
    models = brute_models(inst.kb)
    hyp = sorted(inst.hypotheses)
    states = [(0, 0)]
    for h in hyp:
        bit = 1 << (h - 1)
        states = [(p | (bit if c == 1 else 0), m | (bit if c == 2 else 0))
                  for p, m in states for c in (0, 1, 2)]
    for pos, neg in states:
        sat_seen = False
        holds = True
        for sigma in models:
            if sigma & pos == pos and sigma & neg == 0:
                sat_seen = True
                if not satisfies_vars(sigma, inst.manifestations):
                    holds = False
                    break
        if sat_seen and holds:
            return True
    return False


# ---------------------------------------------------------------------------
# baselines (Theorem-3 style exhaustive candidate enumeration)
# ---------------------------------------------------------------------------

def _baseline(inst: AbductionInstance, sat: SatDecider, algorithm: str,
              candidate: Callable[[int, list[int]], frozenset[int]]) -> AbdResult:
    """Try candidate(mask, sorted H) for the 2^|H| submasks of the H mask in
    increasing order, which is binary counting over sorted H."""
    pre = preprocess(inst)
    stats = EnumStats()
    if pre.verdict == TRIVIALLY_NO:
        return _no(algorithm, stats)
    inst = pre.instance
    hyp = sorted(inst.hypotheses)
    for mask in submasks(hyp_mask(hyp)):
        stats.branch_nodes += 1
        lits = candidate(mask, hyp)
        base = conjoin_literals(inst.kb, lits)
        stats.leaves += 1
        if not sat(base):
            continue
        stats.leaves += len(inst.manifestations)
        if entails(base, inst.manifestations, sat):
            return _yes(pre, lits, stats, algorithm)
    return _no(algorithm, stats)


def baseline_abd(inst: AbductionInstance, sat: SatDecider = decide) -> AbdResult:
    """Try all 2^|H| full candidates; per candidate one satisfiability check
    and one unsatisfiability check per manifestation."""
    return _baseline(inst, sat, "baseline-abd", _full)


def baseline_pabd(inst: AbductionInstance, sat: SatDecider = decide) -> AbdResult:
    """As baseline_abd but over the 2^|H| positive subsets E ⊆ H."""
    return _baseline(inst, sat, "baseline-pabd", _positive)


# ---------------------------------------------------------------------------
# enumeration-based symmetric solver (equivalence classes over H)
# ---------------------------------------------------------------------------

def enum_abd(inst: AbductionInstance,
             stream: ModelStream | None = None) -> tuple[AbdResult, ExplanationSet]:
    """Partition the models of KB by their H-restriction and discard a class
    as soon as one member violates M; the survivors are exactly the full
    explanations."""
    pre = preprocess(inst)
    if pre.verdict == TRIVIALLY_NO:
        return _no("enum-abd"), ExplanationSet(frozenset())
    inst = pre.instance
    if stream is None:
        stream = enumerate_models(inst.kb)
    hmask = hyp_mask(inst.hypotheses)
    discarded: set[int] = set()
    potential: set[int] = set()
    for sigma in stream:
        proj = sigma & hmask
        if proj in discarded:
            continue
        if satisfies_vars(sigma, inst.manifestations):
            potential.add(proj)
        else:
            discarded.add(proj)
            potential.discard(proj)
    hyp = sorted(inst.hypotheses)
    eset = ExplanationSet(frozenset(_full(p, hyp) for p in potential))
    if not potential:
        return _no("enum-abd", stream.stats), eset
    return _yes(pre, _full(min(potential), hyp), stream.stats, "enum-abd"), eset


# ---------------------------------------------------------------------------
# polynomial-space recursive positive solver
# ---------------------------------------------------------------------------

@dataclass
class PabdAudit:
    """Instrumentation for the recursive solver's resource contract."""
    visited: set[frozenset[int]] = field(default_factory=set)
    duplicate_visits: int = 0
    max_depth: int = 0
    max_frame_cells: int = 0


def pabd_recursive(inst: AbductionInstance, sat: SatDecider = decide,
                   audit: PabdAudit | None = None) -> AbdResult:
    """Positive abduction by recursive descent through the subsets of H.

    Each node looks at the candidate E (the removable set D plus the locked
    set delta) through its full extension G = E ∪ {¬x : x ∈ H−E}:

      * if KB ∧ G ∧ ¬m is satisfiable for some m, a model with positive
        pattern exactly E violates M, so E and every subset die: prune;
      * if KB ∧ G is satisfiable, E is accepted *after verifying*
        KB ∧ E ⊨ M directly; a failed verification exhibits a model whose
        positive pattern strictly contains E and violates M, which again
        kills every subset of E, so the subtree is pruned rather than
        accepted (the unverified accept is unsound: a wider pattern that
        never occurs as a visited candidate can otherwise slip through);
      * otherwise descend, removing one element of D at a time while locking
        previously removed elements into delta, so each subset of H is
        visited at most once.

    An explicit stack holds one (D, delta, next child) entry per level: space
    stays O(|H|^2) cells and depth is not bounded by the recursion limit.
    """
    pre = preprocess(inst)
    stats = EnumStats()
    if pre.verdict == TRIVIALLY_NO:
        return _no("pabd-rec", stats)
    inst = pre.instance
    hyp = tuple(sorted(inst.hypotheses))
    man = sorted(inst.manifestations)
    stack: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
    d, delta = hyp, ()
    while True:
        depth = len(stack) + 1
        stats.branch_nodes += 1
        stats.max_depth = max(stats.max_depth, depth)
        e = frozenset(d) | frozenset(delta)
        if audit is not None:
            audit.max_depth = max(audit.max_depth, depth)
            audit.max_frame_cells = max(audit.max_frame_cells, len(d) + len(delta))
            if e in audit.visited:
                audit.duplicate_visits += 1
            audit.visited.add(e)
        base_g = conjoin_literals(inst.kb, e | frozenset(-x for x in hyp if x not in e))
        if not entails(base_g, man, sat):
            stats.leaves += 1
        elif sat(base_g):
            stats.leaves += 1
            if entails(conjoin_literals(inst.kb, e), man, sat):
                return _yes(pre, e, stats, "pabd-rec")
            # else a superset pattern violates M: the whole subtree is dead
        elif d:
            stack.append((d, delta, 0))
        else:
            stats.leaves += 1
        # preorder: the next child of the deepest level that has one left
        while stack and stack[-1][2] == len(stack[-1][0]):
            stack.pop()
        if not stack:
            return _no("pabd-rec", stats)
        pd, pdelta, i = stack[-1]
        stack[-1] = (pd, pdelta, i + 1)
        d, delta = pd[i + 1:], pdelta + pd[:i]


# ---------------------------------------------------------------------------
# weight-ordered enumeration positive solver
# ---------------------------------------------------------------------------

def pabd_enum(inst: AbductionInstance,
              stream: ModelStream | None = None) -> tuple[AbdResult, ExplanationSet]:
    """Positive abduction from a non-increasing-w_H model stream.

    Runs the weight-ordered scheme (extract the positive candidate of each
    model, discard on a violating model, push discards to immediate subsets),
    then verifies survivors against the recorded violating patterns: the
    one-level discard propagation stalls on weight levels with no models, so
    a surviving candidate may still be covered by a wider violating pattern.
    The verified survivors, filtered to subset-maximal elements, are exactly
    the subset-maximal positive explanations.
    """
    pre = preprocess(inst)
    if pre.verdict == TRIVIALLY_NO:
        return _no("pabd-enum"), ExplanationSet(frozenset())
    inst = pre.instance
    if stream is None:
        stream = enumerate_weight_ordered(inst.kb, inst.hypotheses)
    if stream.ordering != WEIGHT_ORDERED:
        raise OrderingContractError("pabd_enum needs a weight-ordered stream")
    hmask = hyp_mask(inst.hypotheses)
    last_w: int | None = None
    discarded: set[int] = set()
    potential: set[int] = set()
    bad_patterns: set[int] = set()
    for sigma in stream:
        w = weight(sigma, hmask)
        if last_w is not None and w > last_w:
            raise OrderingContractError("model stream weight increased")
        last_w = w
        proj = sigma & hmask
        if proj not in discarded:
            if satisfies_vars(sigma, inst.manifestations):
                potential.add(proj)
            else:
                discarded.add(proj)
                potential.discard(proj)
                bad_patterns.add(proj)
        if proj in discarded:
            p = proj
            while p:
                bit = p & (-p)
                discarded.add(proj & ~bit)
                p ^= bit
    survivors = [e for e in potential
                 if not any(e & b == e for b in bad_patterns)]
    maximal = _maximal(survivors)
    hyp = sorted(inst.hypotheses)
    eset = ExplanationSet(frozenset(_positive(p, hyp) for p in maximal))
    if not maximal:
        return _no("pabd-enum", stream.stats), eset
    best = max(maximal, key=lambda q: bin(q).count("1"))
    return _yes(pre, _positive(best, hyp), stream.stats, "pabd-enum"), eset


# ---------------------------------------------------------------------------
# coNP shortcut for 1-valid languages
# ---------------------------------------------------------------------------

def pabd_one_valid(inst: AbductionInstance) -> AbdResult:
    """For 1-valid knowledge bases a positive explanation exists iff H itself
    is one, and KB ∧ H is consistent for free, so only the |M| entailment
    checks remain."""
    lang = ConstraintLanguage(frozenset(inst.kb.relations()))
    if not is_one_valid(lang):
        raise FragmentError("knowledge base is not 1-valid")
    pre = preprocess(inst)
    stats = EnumStats()
    if pre.verdict == TRIVIALLY_NO:
        return _no("one-valid", stats)
    inst = pre.instance
    base = conjoin_literals(inst.kb, inst.hypotheses)
    stats.leaves = len(inst.manifestations)
    if entails(base, inst.manifestations, decide):
        return _yes(pre, inst.hypotheses, stats, "one-valid")
    return _no("one-valid", stats)


# ---------------------------------------------------------------------------
# positive k-CNF pipeline through SimpleSAT
# ---------------------------------------------------------------------------

def abd_kcnf_pos(inst: AbductionInstance) -> AbdResult:
    """Symmetric abduction over positive clauses via the SimpleSAT reduction;
    a model of the reduced instance maps to the negative explanation holding
    ¬h exactly for the hypotheses the model sets to 0."""
    pre = preprocess(inst)
    if pre.verdict == TRIVIALLY_NO:
        return _no("simplesat")
    inst = pre.instance
    simple, report = abd_to_simplesat(inst)
    model, stats = solve_simple_sat(simple)
    if model is None:
        return AbdResult(False, None, stats, "simplesat", report)
    lits = frozenset(-h for h in inst.hypotheses if not (model >> (h - 1)) & 1)
    return _yes(pre, lits, stats, "simplesat", report)
