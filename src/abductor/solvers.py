"""Abduction solvers: definitional brute-force oracles, the 2^|H| baselines,
the model-enumeration algorithms (full-class and weight-ordered positive), the
polynomial-space recursive positive solver, the 1-valid shortcut, and the
positive-clause pipeline through SimpleSAT.  ENGINES is the one list of them
that `abductor solve`, verify.check_solvers (in row order) and the golden node
counts read; adding an engine is adding a row.

Every solver preprocesses its input (see core.preprocess) and returns an
AbdResult whose witness, when present, passes core.is_explanation on the
instance the caller passed, so it includes the manifestations that preprocess
drops as self-explained.  The explanation sets (of enum_abd, pabd_enum and the
oracle_*_explanations functions) are over preprocess(inst).instance.

The oracles read the models of KB off its truth table, a cached bit-parallel
table built from the variable columns (core.truth_table, one bit per
assignment), and brute_models is that cache.  explained is their one view of
it, read once per call: a candidate explains iff some model extends it (∃)
and every model that extends it satisfies M (∀), and both quantifiers, over
the variables outside H and then over the supersets of each H pattern, are
shifts and masks of the table.  Two caps bound the oracles: n <=
core.ORACLE_MAX_VARS (2^n-bit tables, enforced where they are built) and
|H| <= ORACLE_MAX_HYP (2^|H| patterns read out).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .core import (AbductionInstance, Explanation, FragmentError, Formula,
                   OracleCapError, PreprocessResult, TRIVIALLY_NO, entails,
                   preprocess, submasks, SatDecider, columns,
                   table_models, truth_table)
from .langlib import ConstraintLanguage, is_one_valid
from .reductions import ReductionReport, abd_to_simplesat, is_kcnf_formula
from .satenum import (EnumStats, ModelStream, WEIGHT_ORDERED, compile_kb,
                      decide, enumerate_models, enumerate_weight_ordered,
                      hyp_mask, solve_simple_sat)


class OrderingContractError(RuntimeError):
    """A weight-ordered model stream emitted an increasing weight."""


# the brute-force cap on |H|; the one on n is core.ORACLE_MAX_VARS
ORACLE_MAX_HYP = 16


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


def _no(algorithm: str, stats: EnumStats | None = None,
        report: ReductionReport | None = None) -> AbdResult:
    return AbdResult(False, None, stats or EnumStats(), algorithm, report)


def _positive(mask: int, hyp: Iterable[int]) -> frozenset[int]:
    """The hypotheses whose bits are set in the variable-bit mask."""
    return frozenset(h for h in hyp if (mask >> (h - 1)) & 1)


def _full(mask: int, hyp: Iterable[int]) -> frozenset[int]:
    """The full literal set over hyp that the mask picks: h if set, else ¬h."""
    return frozenset(h if (mask >> (h - 1)) & 1 else -h for h in hyp)


def _maximal(patterns: Iterable[int]) -> list[int]:
    """The subset-maximal bit patterns, widest first."""
    maximal: list[int] = []
    for p in sorted(patterns, key=lambda q: -q.bit_count()):
        if not any(q != p and q & p == p for q in maximal):
            maximal.append(p)
    return maximal


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def brute_models(phi: Formula) -> int:
    """The truth table of phi over all 2^n assignments (core.truth_table):
    bit s is set iff assignment s satisfies phi.  Raises OracleCapError
    above core.ORACLE_MAX_VARS variables."""
    return truth_table(phi)


def explained(inst: AbductionInstance) -> tuple[int, int, int]:
    """(model count, full, positive) of the instance as given, without
    preprocessing, so the raw audits of preprocess use it as it is.  Bit p of
    full is set iff the full candidate over H that the pattern p picks
    explains M; bit p of positive is set iff the positive candidate p does.

    Both come from F, the truth table of KB, and G = F & ~(AND of the M
    columns), its models that violate M.  ∃ over each variable outside H
    leaves bit p of each set iff one of its models projects to p on H, so
    full = F & ~G; the superset-OR over each h in H then leaves bit p set iff
    one of its models is ⊇ p, so positive = F & ~G."""
    if len(inst.hypotheses) > ORACLE_MAX_HYP:
        raise OracleCapError(f"|H|={len(inst.hypotheses)} exceeds oracle cap {ORACLE_MAX_HYP}")
    table = brute_models(inst.kb)
    cols = columns(inst.num_vars)
    f = good = table
    for m in inst.manifestations:
        good &= cols[m - 1][1]
    g = table ^ good
    for v in range(1, inst.num_vars + 1):
        if v not in inst.hypotheses:
            shift, keep = 1 << (v - 1), cols[v - 1][0]
            f = (f | f >> shift) & keep
            g = (g | g >> shift) & keep
    full = f & ~g
    for h in inst.hypotheses:
        shift, keep = 1 << (h - 1), cols[h - 1][0]
        f |= (f >> shift) & keep
        g |= (g >> shift) & keep
    return table.bit_count(), full, f & ~g


def _oracle_stats(phi: Formula, models: int) -> EnumStats:
    return EnumStats(branch_nodes=0, leaves=1 << phi.num_vars,
                     models_emitted=models, max_depth=0)


def oracle_abd(inst: AbductionInstance) -> AbdResult:
    """Ground truth for symmetric abduction: the witness is the full
    candidate of the lowest pattern that explains (an explanation exists iff
    a full one does)."""
    algorithm = "oracle-abd"
    pre = preprocess(inst)
    if pre.verdict == TRIVIALLY_NO:
        return _no(algorithm)
    inst = pre.instance
    models, full, _ = explained(inst)
    stats = _oracle_stats(inst.kb, models)
    if not full:
        return _no(algorithm, stats)
    return _yes(pre, _full((full & -full).bit_length() - 1, sorted(inst.hypotheses)),
                stats, algorithm)


def oracle_full_explanations(inst: AbductionInstance) -> frozenset[frozenset[int]]:
    pre = preprocess(inst)
    if pre.verdict == TRIVIALLY_NO:
        return frozenset()
    inst = pre.instance
    hyp = sorted(inst.hypotheses)
    return frozenset(_full(p, hyp) for p in table_models(explained(inst)[1]))


def oracle_pabd(inst: AbductionInstance) -> AbdResult:
    """Ground truth for positive abduction (E ⊆ H is an explanation iff some
    model sets E true and no model setting E true violates M): the witness is
    the first pattern of highest popcount that explains."""
    algorithm = "oracle-pabd"
    pre = preprocess(inst)
    if pre.verdict == TRIVIALLY_NO:
        return _no(algorithm)
    inst = pre.instance
    models, _, positive = explained(inst)
    stats = _oracle_stats(inst.kb, models)
    if not positive:
        return _no(algorithm, stats)
    best = max(table_models(positive), key=int.bit_count)
    return _yes(pre, _positive(best, sorted(inst.hypotheses)), stats, algorithm)


def oracle_positive_explanations(inst: AbductionInstance) -> tuple[frozenset[frozenset[int]],
                                                                   frozenset[frozenset[int]]]:
    """(all positive explanations, the subset-maximal ones)."""
    pre = preprocess(inst)
    if pre.verdict == TRIVIALLY_NO:
        return frozenset(), frozenset()
    inst = pre.instance
    hyp = sorted(inst.hypotheses)
    all_ok = table_models(explained(inst)[2])
    return (frozenset(_positive(p, hyp) for p in all_ok),
            frozenset(_positive(p, hyp) for p in _maximal(all_ok)))


# ---------------------------------------------------------------------------
# baselines (Theorem-3 style exhaustive candidate enumeration)
# ---------------------------------------------------------------------------

def _baseline(inst: AbductionInstance, sat: SatDecider, algorithm: str,
              full: bool) -> AbdResult:
    """Try the positive or full candidate of each of the 2^|H| submasks of
    the H mask in increasing order, which is binary counting over sorted H."""
    pre = preprocess(inst)
    stats = EnumStats()
    if pre.verdict == TRIVIALLY_NO:
        return _no(algorithm, stats)
    inst = pre.instance
    kb = compile_kb(inst.kb)
    hmask = hyp_mask(inst.hypotheses)
    for mask in submasks(hmask):
        stats.branch_nodes += 1
        neg = hmask ^ mask if full else 0
        stats.leaves += 1
        if not sat(kb, mask, neg):
            continue
        stats.leaves += len(inst.manifestations)
        if entails(kb, mask, neg, inst.manifestations, sat):
            witness = (_full if full else _positive)(mask, inst.hypotheses)
            return _yes(pre, witness, stats, algorithm)
    return _no(algorithm, stats)


def baseline_abd(inst: AbductionInstance, sat: SatDecider = decide) -> AbdResult:
    """Try all 2^|H| full candidates; per candidate one satisfiability check
    and one unsatisfiability check per manifestation."""
    return _baseline(inst, sat, "baseline-abd", full=True)


def baseline_pabd(inst: AbductionInstance, sat: SatDecider = decide) -> AbdResult:
    """As baseline_abd but over the 2^|H| positive subsets E ⊆ H."""
    return _baseline(inst, sat, "baseline-pabd", full=False)


# ---------------------------------------------------------------------------
# enumeration-based symmetric solver (equivalence classes over H)
# ---------------------------------------------------------------------------

def enum_abd(inst: AbductionInstance,
             stream: ModelStream | None = None) -> tuple[AbdResult, ExplanationSet]:
    """Partition the models of KB by their H-restriction and discard a class
    as soon as one member violates M; the survivors are exactly the full
    explanations."""
    algorithm = "enum-abd"
    pre = preprocess(inst)
    if pre.verdict == TRIVIALLY_NO:
        return _no(algorithm), ExplanationSet(frozenset())
    inst = pre.instance
    if stream is None:
        stream = enumerate_models(inst.kb)
    hmask, mmask = hyp_mask(inst.hypotheses), hyp_mask(inst.manifestations)
    discarded: set[int] = set()
    potential: set[int] = set()
    for sigma in stream:
        proj = sigma & hmask
        if proj in discarded:
            continue
        if sigma & mmask == mmask:
            potential.add(proj)
        else:
            discarded.add(proj)
            potential.discard(proj)
    hyp = sorted(inst.hypotheses)
    eset = ExplanationSet(frozenset(_full(p, hyp) for p in potential))
    if not potential:
        return _no(algorithm, stream.stats), eset
    return _yes(pre, _full(min(potential), hyp), stream.stats, algorithm), eset


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

    D, delta and E are variable-bit masks, and G is the assumptions (E, H − E).
    An explicit stack holds one (D, delta, D's bits not yet removed) entry per
    level: space stays O(|H|^2) bits, and depth is not bounded by recursion.
    """
    algorithm = "pabd-rec"
    pre = preprocess(inst)
    stats = EnumStats()
    if pre.verdict == TRIVIALLY_NO:
        return _no(algorithm, stats)
    inst = pre.instance
    kb = compile_kb(inst.kb)
    hmask = hyp_mask(inst.hypotheses)
    man = sorted(inst.manifestations)
    stack: list[tuple[int, int, int]] = []
    d, delta = hmask, 0
    while True:
        depth = len(stack) + 1
        stats.branch_nodes += 1
        stats.max_depth = max(stats.max_depth, depth)
        e = d | delta
        if audit is not None:
            audit.max_depth = max(audit.max_depth, depth)
            audit.max_frame_cells = max(audit.max_frame_cells, d.bit_count() + delta.bit_count())
            visit = _positive(e, inst.hypotheses)
            audit.duplicate_visits += visit in audit.visited
            audit.visited.add(visit)
        if not entails(kb, e, hmask ^ e, man, sat):
            stats.leaves += 1
        elif sat(kb, e, hmask ^ e):
            stats.leaves += 1
            if entails(kb, e, 0, man, sat):
                return _yes(pre, _positive(e, inst.hypotheses), stats, algorithm)
            # else a superset pattern violates M: the whole subtree is dead
        elif d:
            stack.append((d, delta, d))
        else:
            stats.leaves += 1
        # preorder: the next child of the deepest level that has one left
        while stack and not stack[-1][2]:
            stack.pop()
        if not stack:
            return _no(algorithm, stats)
        pd, pdelta, rest = stack[-1]
        b = rest & -rest  # remove b, keep D above b, lock D below b
        stack[-1] = (pd, pdelta, rest ^ b)
        d, delta = pd & ~((b << 1) - 1), pdelta | pd & (b - 1)


# ---------------------------------------------------------------------------
# weight-ordered enumeration positive solver
# ---------------------------------------------------------------------------

def pabd_enum(inst: AbductionInstance,
              stream: ModelStream | None = None) -> tuple[AbdResult, ExplanationSet]:
    """Positive abduction from a non-increasing-w_H model stream.

    Runs the weight-ordered scheme (extract the positive candidate of each
    model, discard on a violating model, push a discarded projection to its
    immediate subsets once), then verifies survivors against the recorded
    violating patterns: the one-level discard propagation stalls on weight
    levels with no models, so a surviving candidate may still be covered by
    a wider violating pattern.
    The verified survivors, filtered to subset-maximal elements, are exactly
    the subset-maximal positive explanations.
    """
    algorithm = "pabd-enum"
    pre = preprocess(inst)
    if pre.verdict == TRIVIALLY_NO:
        return _no(algorithm), ExplanationSet(frozenset())
    inst = pre.instance
    if stream is None:
        stream = enumerate_weight_ordered(inst.kb, inst.hypotheses)
    if stream.ordering != WEIGHT_ORDERED:
        raise OrderingContractError("pabd_enum needs a weight-ordered stream")
    hmask, mmask = hyp_mask(inst.hypotheses), hyp_mask(inst.manifestations)
    last_w = hmask.bit_count()
    discarded: set[int] = set()
    pushed: set[int] = set()  # the discarded projections whose subsets are pushed
    potential: set[int] = set()
    bad_patterns: set[int] = set()
    for sigma in stream:
        proj = sigma & hmask
        w = proj.bit_count()
        if w > last_w:
            raise OrderingContractError("model stream weight increased")
        last_w = w
        if proj in pushed:
            continue
        if proj not in discarded:
            if sigma & mmask == mmask:
                potential.add(proj)
                continue
            discarded.add(proj)
            potential.discard(proj)
            bad_patterns.add(proj)
        pushed.add(proj)
        p = proj
        while p:
            bit = p & -p
            discarded.add(proj ^ bit)
            p ^= bit
    survivors = [e for e in potential
                 if not any(e & b == e for b in bad_patterns)]
    maximal = _maximal(survivors)
    hyp = sorted(inst.hypotheses)
    eset = ExplanationSet(frozenset(_positive(p, hyp) for p in maximal))
    if not maximal:
        return _no(algorithm, stream.stats), eset
    best = max(maximal, key=int.bit_count)
    return _yes(pre, _positive(best, hyp), stream.stats, algorithm), eset


# ---------------------------------------------------------------------------
# coNP shortcut for 1-valid languages
# ---------------------------------------------------------------------------

def one_valid_kb(inst: AbductionInstance) -> bool:
    """Where pabd_one_valid applies: every relation of KB holds on all ones."""
    return is_one_valid(ConstraintLanguage(frozenset(inst.kb.relations())))


def pabd_one_valid(inst: AbductionInstance) -> AbdResult:
    """For 1-valid knowledge bases a positive explanation exists iff H itself
    is one, and KB ∧ H is consistent for free, so only the |M| entailment
    checks remain."""
    algorithm = "one-valid"
    if not one_valid_kb(inst):
        raise FragmentError("knowledge base is not 1-valid")
    pre = preprocess(inst)
    stats = EnumStats()
    if pre.verdict == TRIVIALLY_NO:
        return _no(algorithm, stats)
    inst = pre.instance
    stats.leaves = len(inst.manifestations)
    if entails(compile_kb(inst.kb), hyp_mask(inst.hypotheses), 0, inst.manifestations, decide):
        return _yes(pre, inst.hypotheses, stats, algorithm)
    return _no(algorithm, stats)


# ---------------------------------------------------------------------------
# positive k-CNF pipeline through SimpleSAT
# ---------------------------------------------------------------------------

def positive_cnf(inst: AbductionInstance) -> bool:
    """Where abd_kcnf_pos applies (abd_to_simplesat's input check)."""
    return is_kcnf_formula(inst.kb, positive=True) and preprocess(inst).instance.is_normalized()


def abd_kcnf_pos(inst: AbductionInstance) -> AbdResult:
    """Symmetric abduction over positive clauses via the SimpleSAT reduction;
    a model of the reduced instance maps to the negative explanation holding
    ¬h exactly for the hypotheses the model sets to 0."""
    algorithm = "simplesat"
    pre = preprocess(inst)
    if pre.verdict == TRIVIALLY_NO:
        return _no(algorithm)
    inst = pre.instance
    simple, report = abd_to_simplesat(inst)
    model, stats = solve_simple_sat(simple)
    if model is None:
        return _no(algorithm, stats, report)
    lits = frozenset(-h for h in inst.hypotheses if not (model >> (h - 1)) & 1)
    return _yes(pre, lits, stats, algorithm, report)


@dataclass
class Engine:
    name: str  # AbdResult.algorithm, and the kind of verify's findings
    mode: str  # `abductor solve --mode`
    algo: str  # `abductor solve --algo`
    solve: Callable
    explanations: str | None = None  # "full"/"maximal": oracle set of its ExplanationSet
    applies: Callable[[AbductionInstance], bool] | None = None  # None: everywhere

    def run(self, inst: AbductionInstance, **kw) -> tuple[AbdResult, ExplanationSet | None]:
        out = self.solve(inst, **kw)
        return out if self.explanations else (out, None)


ENGINES: tuple[Engine, ...] = (
    Engine("oracle-abd", "abd", "oracle", oracle_abd),
    Engine("oracle-pabd", "pabd", "oracle", oracle_pabd),
    Engine("baseline-abd", "abd", "baseline", baseline_abd),
    Engine("enum-abd", "abd", "enum", enum_abd, "full"),
    Engine("baseline-pabd", "pabd", "baseline", baseline_pabd),
    Engine("pabd-rec", "pabd", "pabd-rec", pabd_recursive),
    Engine("pabd-enum", "pabd", "pabd-enum", pabd_enum, "maximal"),
    Engine("simplesat", "abd", "simplesat", abd_kcnf_pos, applies=positive_cnf),
    Engine("one-valid", "pabd", "one-valid", pabd_one_valid, applies=one_valid_kb),
)
