"""Abduction solvers: definitional brute-force oracles, the 2^|H| baselines,
the model-enumeration algorithms (full-class and weight-ordered positive), the
polynomial-space recursive positive solver, the 1-valid shortcut, and the
positive-clause pipeline through SimpleSAT.

Each engine is declared once, by decorating its body with _engine(name,
mode, algo, explanations, applies): that declaration is its row of ENGINES,
the one list that `abductor solve`, verify.check_solvers (in row order) and
the golden node counts read, so adding an engine is declaring a body.  The
wrapper owns preprocessing (core.preprocess) for every solver: it raises
FragmentError before preprocessing where the row's `applies` predicate is
false, answers a trivially-no instance without running the body, hands the
body preprocess(inst).instance, adds the manifestations that preprocess
drops as self-explained to the body's witness, and names the AbdResult.  So
each body is the procedure alone, and each witness passes
core.is_explanation on the instance the caller passed.  The explanation sets
(of enum_abd, pabd_enum and the oracle_*_explanations functions) are over
preprocess(inst).instance.  _full and _positive build every literal set
from the pairs of _lit_pairs, one (-h, h) pair per hypothesis h made once
per call, so every set of one call shares its literal objects instead of
holding a fresh -h per set.

The oracles read the models of KB off its truth table, a cached bit-parallel
table built from the variable columns (core.truth_table, one bit per
assignment), and brute_models is that cache.  Two functions read it.
explained is the oracles' one view of it, read once per call: a candidate
explains iff some model extends it (∃) and every model that extends it
satisfies M (∀), and both quantifiers, over the variables outside H and then
over the supersets of each H pattern, are shifts and masks of the table.
oracle_explains checks one given literal set the same way, by ANDing its
literal columns into the table, so verify checks witnesses without running
satenum.decide.  Two caps bound the oracles: n <= core.ORACLE_MAX_VARS
(2^n-bit tables, enforced where they are built) and |H| <= ORACLE_MAX_HYP
(2^|H| patterns read out).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

from .core import (AbductionInstance, Explanation, FragmentError, Formula,
                   OracleCapError, TRIVIALLY_NO, entails, hyp_literal_masks,
                   preprocess, submasks, SatDecider, columns,
                   table_models, truth_table)
from .langlib import ONE, ConstraintLanguage, invariant
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


class _Answer(NamedTuple):
    """A solver body's answer on the preprocessed instance: the witness's
    literals, or None for no (an empty set is a yes with E = ∅)."""
    lits: Iterable[int] | None
    stats: EnumStats
    report: ReductionReport | None = None


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


ENGINES: list[Engine] = []  # one row per _engine declaration, in definition order


def _engine(name: str, mode: str, algo: str, explanations: str | None = None,
            applies: Callable[[AbductionInstance], bool] | None = None):
    """Decorate a solver body into its public solver, whose AbdResult is
    named `name`, and append its row to ENGINES.  The body takes
    preprocess(inst).instance and returns an _Answer, with an ExplanationSet
    beside it when `explanations` names the oracle set it is checked
    against.  The solver raises FragmentError before preprocessing where
    `applies` is false, answers a trivially-no instance no (with an empty
    ExplanationSet) without running the body, and adds the self-explained
    manifestations to the body's witness."""
    def wrap(body: Callable) -> Callable:
        @functools.wraps(body)
        def solve(inst: AbductionInstance, *args, **kw):
            if applies is not None and not applies(inst):
                raise FragmentError(f"{name}: {applies.__name__} is false on this instance")
            pre = preprocess(inst)
            if pre.verdict == TRIVIALLY_NO:
                ans, eset = _Answer(None, EnumStats()), ExplanationSet(frozenset())
            elif explanations:
                ans, eset = body(pre.instance, *args, **kw)
            else:
                ans = body(pre.instance, *args, **kw)
            witness = (None if ans.lits is None
                       else Explanation(frozenset(ans.lits) | pre.self_explained))
            res = AbdResult(witness is not None, witness, ans.stats, name, ans.report)
            return (res, eset) if explanations else res
        ENGINES.append(Engine(name, mode, algo, solve, explanations, applies))
        return solve
    return wrap


def _lit_pairs(hyp: Iterable[int]) -> list[tuple[int, tuple[int, int]]]:
    """One (bit, (-h, h)) pair per hypothesis h, made once per call, so every
    literal set that _full and _positive build from it shares its ints."""
    return [(h - 1, (-h, h)) for h in hyp]


def _positive(mask: int, lits: list[tuple[int, tuple[int, int]]]) -> frozenset[int]:
    """The hypotheses whose bits are set in the variable-bit mask."""
    return frozenset([lit[1] for b, lit in lits if mask >> b & 1])


def _full(mask: int, lits: list[tuple[int, tuple[int, int]]]) -> frozenset[int]:
    """The full literal set over the hypotheses that the mask picks: h if
    set, else ¬h."""
    return frozenset([lit[mask >> b & 1] for b, lit in lits])


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


def oracle_explains(inst: AbductionInstance, lits: Iterable[int]) -> bool:
    """core.is_explanation read off the truth table of KB instead of decided
    by search: the models that set every literal of E exist, and none of
    them sets some m in M false.  Raises StructureError as is_explanation
    does, and OracleCapError above core.ORACLE_MAX_VARS variables."""
    pos, neg = hyp_literal_masks(inst, lits)
    table = brute_models(inst.kb)
    cols = columns(inst.num_vars)
    for side, mask in ((1, pos), (0, neg)):
        for b in table_models(mask):
            table &= cols[b][side]
    return table != 0 and not any(table & cols[m - 1][0] for m in inst.manifestations)


def _oracle_stats(phi: Formula, models: int) -> EnumStats:
    return EnumStats(branch_nodes=0, leaves=1 << phi.num_vars,
                     models_emitted=models, max_depth=0)


@_engine("oracle-abd", "abd", "oracle")
def oracle_abd(inst: AbductionInstance) -> _Answer:
    """Ground truth for symmetric abduction: the witness is the full
    candidate of the lowest pattern that explains (an explanation exists iff
    a full one does)."""
    models, full, _ = explained(inst)
    lowest = full & -full
    return _Answer(_full(lowest.bit_length() - 1, _lit_pairs(inst.hypotheses)) if full else None,
                   _oracle_stats(inst.kb, models))


@_engine("oracle-pabd", "pabd", "oracle")
def oracle_pabd(inst: AbductionInstance) -> _Answer:
    """Ground truth for positive abduction (E ⊆ H is an explanation iff some
    model sets E true and no model setting E true violates M): the witness is
    the first pattern of highest popcount that explains."""
    models, _, positive = explained(inst)
    best = max(table_models(positive), key=int.bit_count, default=None)
    return _Answer(None if best is None else _positive(best, _lit_pairs(inst.hypotheses)),
                   _oracle_stats(inst.kb, models))


_Sets = frozenset[frozenset[int]]  # explanations as literal sets


def _oracle_sets(inst: AbductionInstance) -> tuple[_Sets, _Sets, _Sets]:
    """(full, positive, subset-maximal positive explanations) of
    preprocess(inst).instance from one explained read; empty if trivially-no."""
    pre = preprocess(inst)
    if pre.verdict == TRIVIALLY_NO:
        return frozenset(), frozenset(), frozenset()
    inst = pre.instance
    lits = _lit_pairs(inst.hypotheses)
    _, full, positive = explained(inst)
    all_ok = table_models(positive)
    return (frozenset(_full(p, lits) for p in table_models(full)),
            frozenset(_positive(p, lits) for p in all_ok),
            frozenset(_positive(p, lits) for p in _maximal(all_ok)))


def oracle_full_explanations(inst: AbductionInstance) -> _Sets:
    return _oracle_sets(inst)[0]


def oracle_positive_explanations(inst: AbductionInstance) -> tuple[_Sets, _Sets]:
    """(all positive explanations, the subset-maximal ones)."""
    return _oracle_sets(inst)[1:]


# ---------------------------------------------------------------------------
# baselines (Theorem-3 style exhaustive candidate enumeration)
# ---------------------------------------------------------------------------

def _baseline(inst: AbductionInstance, sat: SatDecider, full: bool) -> _Answer:
    """Try the positive or full candidate of each of the 2^|H| submasks of
    the H mask in increasing order, which is binary counting over sorted H."""
    stats = EnumStats()
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
            return _Answer((_full if full else _positive)(mask, _lit_pairs(inst.hypotheses)),
                           stats)
    return _Answer(None, stats)


@_engine("baseline-abd", "abd", "baseline")
def baseline_abd(inst: AbductionInstance, sat: SatDecider = decide) -> _Answer:
    """Try all 2^|H| full candidates; per candidate one satisfiability check
    and one unsatisfiability check per manifestation."""
    return _baseline(inst, sat, full=True)


@_engine("baseline-pabd", "pabd", "baseline")
def baseline_pabd(inst: AbductionInstance, sat: SatDecider = decide) -> _Answer:
    """As baseline_abd but over the 2^|H| positive subsets E ⊆ H."""
    return _baseline(inst, sat, full=False)


# ---------------------------------------------------------------------------
# enumeration-based symmetric solver (equivalence classes over H)
# ---------------------------------------------------------------------------

@_engine("enum-abd", "abd", "enum", explanations="full")
def enum_abd(inst: AbductionInstance,
             stream: ModelStream | None = None) -> tuple[_Answer, ExplanationSet]:
    """Partition the models of KB by their H-restriction and discard a class
    as soon as one member violates M; the survivors are exactly the full
    explanations."""
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
    lits = _lit_pairs(inst.hypotheses)
    return (_Answer(_full(min(potential), lits) if potential else None, stream.stats),
            ExplanationSet(frozenset(_full(p, lits) for p in potential)))


# ---------------------------------------------------------------------------
# polynomial-space recursive positive solver
# ---------------------------------------------------------------------------

@dataclass
class PabdAudit:
    """Instrumentation for the recursive solver's resource contract (its
    depth is the result's stats.max_depth)."""
    visited: set[frozenset[int]] = field(default_factory=set)
    duplicate_visits: int = 0
    max_frame_cells: int = 0


@_engine("pabd-rec", "pabd", "pabd-rec")
def pabd_recursive(inst: AbductionInstance, sat: SatDecider = decide,
                   audit: PabdAudit | None = None) -> _Answer:
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
    stats = EnumStats()
    kb = compile_kb(inst.kb)
    hmask = hyp_mask(inst.hypotheses)
    man = sorted(inst.manifestations)
    lits = _lit_pairs(inst.hypotheses)
    stack: list[tuple[int, int, int]] = []
    d, delta = hmask, 0
    while True:
        depth = len(stack) + 1
        stats.branch_nodes += 1
        stats.max_depth = max(stats.max_depth, depth)
        e = d | delta
        if audit is not None:
            audit.max_frame_cells = max(audit.max_frame_cells, d.bit_count() + delta.bit_count())
            visit = _positive(e, lits)
            audit.duplicate_visits += visit in audit.visited
            audit.visited.add(visit)
        if not entails(kb, e, hmask ^ e, man, sat):
            stats.leaves += 1
        elif sat(kb, e, hmask ^ e):
            stats.leaves += 1
            if entails(kb, e, 0, man, sat):
                return _Answer(_positive(e, lits), stats)
            # else a superset pattern violates M: the whole subtree is dead
        elif d:
            stack.append((d, delta, d))
        else:
            stats.leaves += 1
        # preorder: the next child of the deepest level that has one left
        while stack and not stack[-1][2]:
            stack.pop()
        if not stack:
            return _Answer(None, stats)
        pd, pdelta, rest = stack[-1]
        b = rest & -rest  # remove b, keep D above b, lock D below b
        stack[-1] = (pd, pdelta, rest ^ b)
        d, delta = pd & ~((b << 1) - 1), pdelta | pd & (b - 1)


# ---------------------------------------------------------------------------
# weight-ordered enumeration positive solver
# ---------------------------------------------------------------------------

@_engine("pabd-enum", "pabd", "pabd-enum", explanations="maximal")
def pabd_enum(inst: AbductionInstance,
              stream: ModelStream | None = None) -> tuple[_Answer, ExplanationSet]:
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
    maximal = _maximal(survivors)  # widest first, so [0] has the highest popcount
    lits = _lit_pairs(inst.hypotheses)
    return (_Answer(_positive(maximal[0], lits) if maximal else None, stream.stats),
            ExplanationSet(frozenset(_positive(p, lits) for p in maximal)))


# ---------------------------------------------------------------------------
# coNP shortcut for 1-valid languages
# ---------------------------------------------------------------------------

def one_valid_kb(inst: AbductionInstance) -> bool:
    """Where pabd_one_valid applies: every relation of KB holds on all ones."""
    return invariant(ConstraintLanguage(frozenset(inst.kb.relations())), ONE)


@_engine("one-valid", "pabd", "one-valid", applies=one_valid_kb)
def pabd_one_valid(inst: AbductionInstance) -> _Answer:
    """For 1-valid knowledge bases a positive explanation exists iff H itself
    is one, and KB ∧ H is consistent for free, so only the |M| entailment
    checks remain."""
    man = inst.manifestations
    found = entails(compile_kb(inst.kb), hyp_mask(inst.hypotheses), 0, man, decide)
    return _Answer(inst.hypotheses if found else None, EnumStats(leaves=len(man)))


# ---------------------------------------------------------------------------
# positive k-CNF pipeline through SimpleSAT
# ---------------------------------------------------------------------------

def positive_cnf(inst: AbductionInstance) -> bool:
    """Where abd_kcnf_pos applies: KB is a positive CNF and no variable of
    var(KB) is in both H and M, which on preprocess(inst).instance is
    abd_to_simplesat's input check."""
    return (is_kcnf_formula(inst.kb, positive=True)
            and not inst.hypotheses & inst.manifestations & inst.kb.used_vars())


@_engine("simplesat", "abd", "simplesat", applies=positive_cnf)
def abd_kcnf_pos(inst: AbductionInstance) -> _Answer:
    """Symmetric abduction over positive clauses via the SimpleSAT reduction;
    a model of the reduced instance maps to the negative explanation holding
    ¬h exactly for the hypotheses the model sets to 0."""
    simple, report = abd_to_simplesat(inst)
    model, stats = solve_simple_sat(simple)
    lits = (None if model is None
            else frozenset(-h for h in inst.hypotheses if not (model >> (h - 1)) & 1))
    return _Answer(lits, stats, report)
