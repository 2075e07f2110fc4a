"""Reduction constructions: instance transformers between abduction fragments
and the generators that turn cliques, two-level QBFs, and CNF-SAT instances
into hard abduction instances.

An instance transformer takes the preprocessed instance,
core.preprocess(inst).instance, and its caller supplies it, so `verify` and
`abductor reduce` hand every transformer the same input.  Every transformer
returns (output, ReductionReport); building the report checks its variable
accounting, so a contract violation raises instead of silently shipping a
wrong instance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from .core import (AbductionInstance, BOT, Constraint, FragmentError, Formula,
                   FALSE0, StructureError, TOP, hyp_mask, truth_table)
from .langlib import (ConstraintLanguage, InequalityGadget, clause_relation,
                      derive_inequality, imp, nae)
from .satenum import SimpleSatInstance, compile_kb, decide


class ReductionContractError(RuntimeError):
    """A transformer's declared variable/clause accounting failed."""


CV = "CV"
LV = "LV"
SHRINKING = "shrinking"


@dataclass(frozen=True)
class ReductionReport:
    name: str
    input_vars: int
    output_vars: int
    output_constraints: int
    added_vars: int
    contract: str
    notes: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        """A CV or LV output has at most the input's variables plus the added
        ones; a shrinking output has at most the input's."""
        allowed = self.input_vars + (0 if self.contract == SHRINKING else self.added_vars)
        if self.output_vars > allowed:
            raise ReductionContractError(
                f"{self.name}: {self.contract} contract broken "
                f"({self.input_vars} -> {self.output_vars}, added {self.added_vars})")


# ---------------------------------------------------------------------------
# fragment recognizers
# ---------------------------------------------------------------------------

IMP_REL = imp()


def formula_as_clauses(phi: Formula) -> list[tuple[tuple[int, ...], tuple[int, ...]]] | None:
    """Each constraint as (signs, scope) if the formula is pure CNF, with the
    signs of Relation.clause_signs."""
    out = []
    for con in phi.constraints:
        signs = con.relation.clause_signs
        if signs is None:
            return None
        out.append((signs, con.scope))
    return out


def is_kcnf_formula(phi: Formula, k: int | None = None, positive: bool = False) -> bool:
    clauses = formula_as_clauses(phi)
    if clauses is None:
        return False
    for signs, _scope in clauses:
        if k is not None and len(signs) > k:
            return False
        if positive and any(signs):
            return False
    return True


def is_neg_imp_formula(phi: Formula) -> bool:
    for con in phi.constraints:
        if con.relation == IMP_REL:
            continue
        signs = con.relation.clause_signs
        if signs is None or not all(signs):
            return False
    return True


# ---------------------------------------------------------------------------
# Lemma-22 style: negative clauses + implications  ->  positive clauses
# ---------------------------------------------------------------------------

def _imp_closure(phi: Formula, start: int) -> set[int]:
    adj: dict[int, list[int]] = {}
    for con in phi.constraints:
        if con.relation == IMP_REL:
            adj.setdefault(con.scope[0], []).append(con.scope[1])
    seen = {start}
    work = [start]
    while work:
        u = work.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                work.append(v)
    return seen


def negimp_to_pos(inst: AbductionInstance) -> tuple[AbductionInstance, ReductionReport]:
    """Rewrite a negative-clause + implication instance over positive clauses.

    Positive consequences cons(h) come from the implication digraph; the
    output keeps (h ∨ m) for every m ∈ cons(h) and blocks every H-subset of
    size <= k that is inconsistent with KB ∧ M.  Explanations correspond by
    flipping literals.  An H/M overlap is first removed with two fresh
    variables (h* forcing the overlap and a fresh manifestation m*), which is
    the only place variables are added.  The one output serves symmetric
    and positive abduction alike.
    """
    if not is_neg_imp_formula(inst.kb):
        raise FragmentError("knowledge base is not negative-clauses + implications")
    n0 = inst.num_vars
    kb, hyp, man = inst.kb, set(inst.hypotheses), set(inst.manifestations)
    added = 0
    overlap = sorted(hyp & man)
    if overlap:
        h_star, m_star = n0 + 1, n0 + 2
        added = 2
        cons = list(kb.constraints)
        cons.append(Constraint(IMP_REL, (h_star, m_star)))
        for x in overlap:
            cons.append(Constraint(IMP_REL, (h_star, x)))
        kb = Formula(n0 + 2, tuple(cons))
        hyp = (hyp - set(overlap)) | {h_star}
        man = (man - set(overlap)) | {m_star}
    k = max([con.relation.arity for con in kb.constraints
             if con.relation != IMP_REL] + [2])

    out_cons: list[Constraint] = []
    seen: set[tuple[int, ...]] = set()
    for h in sorted(hyp):
        reach = _imp_closure(kb, h)
        for m in sorted(man):
            if m in reach:
                scope = (h, m)
                if scope not in seen:
                    seen.add(scope)
                    out_cons.append(Constraint(clause_relation((0, 0), "OR2"), scope))
    man_mask = hyp_mask(man)
    compiled = compile_kb(kb)
    for size in range(1, k + 1):
        for subset in itertools.combinations(sorted(hyp), size):
            if not decide(compiled, man_mask | hyp_mask(subset)):
                scope = tuple(subset)
                if scope not in seen:
                    seen.add(scope)
                    out_cons.append(Constraint(clause_relation((0,) * size, f"OR{size}"), scope))

    out = AbductionInstance(Formula(kb.num_vars, tuple(out_cons)),
                            frozenset(hyp), frozenset(man))
    report = ReductionReport("negimp-to-pos", n0, out.num_vars, len(out_cons),
                             added, CV, notes={"k": k})
    return out, report


# ---------------------------------------------------------------------------
# Theorem-21 style: positive clauses -> SimpleSAT over H
# ---------------------------------------------------------------------------

def abd_to_simplesat(inst: AbductionInstance) -> tuple[SimpleSatInstance, ReductionReport]:
    """Keep only clauses over H (as positive clauses) and clauses pairing one
    manifestation with hypotheses (as candidate negative terms); everything
    else cannot influence the existence of a negative explanation and is
    dropped (counted in the report)."""
    if not is_kcnf_formula(inst.kb, positive=True):
        raise FragmentError("knowledge base is not a positive CNF")
    if not inst.is_normalized():
        # preprocess leaves these in M when it answers trivially-no
        unexplainable = inst.manifestations - inst.kb.used_vars() - inst.hypotheses
        if unexplainable:
            raise FragmentError(
                f"manifestations {sorted(unexplainable)} are outside var(KB) and not in H: "
                "nothing can explain them, so the instance is trivially no")
        raise FragmentError("instance must be preprocessed with H and M disjoint")
    hyp, man = inst.hypotheses, inst.manifestations
    positive: list[frozenset[int]] = []
    terms: dict[int, list[frozenset[int]]] = {m: [] for m in man}
    dropped = 0
    p = max([con.relation.arity for con in inst.kb.constraints] + [1])
    for con in inst.kb.constraints:
        vs = frozenset(con.scope)
        in_m = vs & man
        if not in_m and vs <= hyp:
            positive.append(vs)
        elif len(in_m) == 1 and vs - in_m <= hyp:
            m = next(iter(in_m))
            terms[m].append(vs - in_m)
        else:
            dropped += 1
    dnfs = tuple(tuple(terms[m]) for m in sorted(man))
    simple = SimpleSatInstance(inst.num_vars, tuple(positive), dnfs, p)
    used = set().union(*positive) if positive else set()
    for d in dnfs:
        for t in d:
            used |= t
    if not used <= hyp:
        raise ReductionContractError("SimpleSAT instance mentions non-hypothesis variables")
    report = ReductionReport("abd-to-simplesat", inst.num_vars, len(used),
                             len(positive) + len(dnfs), 0, SHRINKING,
                             notes={"dropped_clauses": dropped, "p": p})
    return simple, report


# ---------------------------------------------------------------------------
# colored clique -> abduction over negative 2-clauses + implications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColoredGraph:
    num_vertices: int
    num_colors: int
    colors: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if len(self.colors) != self.num_vertices:
            raise StructureError("one color per vertex required")
        if any(not 1 <= c <= self.num_colors for c in self.colors):
            raise StructureError("color out of range")
        for u, v in self.edges:
            if u == v:
                raise StructureError("edges must be irreflexive")
            if not (1 <= u < v <= self.num_vertices):
                raise StructureError("edges must be sorted in-range pairs")

    def adjacent(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def colorful_clique_exists(g: ColoredGraph) -> bool:
    """Brute force: try one vertex per color, all combinations."""
    by_color: list[list[int]] = [[] for _ in range(g.num_colors)]
    for v, c in enumerate(g.colors, start=1):
        by_color[c - 1].append(v)
    if any(not vs for vs in by_color):
        return False
    for pick in itertools.product(*by_color):
        if all(g.adjacent(a, b) for a, b in itertools.combinations(pick, 2)):
            return True
    return False


def clique_to_abd(g: ColoredGraph) -> tuple[AbductionInstance, ReductionReport]:
    """One manifestation per color, v -> m_color(v) per vertex, and a negative
    clause per non-edge; a colorful clique is exactly a choice of vertices
    explaining every color without hitting a non-edge."""
    n = g.num_vertices + g.num_colors
    m_of = {c: g.num_vertices + c for c in range(1, g.num_colors + 1)}
    cons: list[Constraint] = []
    for v, c in enumerate(g.colors, start=1):
        cons.append(Constraint(IMP_REL, (v, m_of[c])))
    neg2 = clause_relation((1, 1), "NOR2")
    for u, v in itertools.combinations(range(1, g.num_vertices + 1), 2):
        if not g.adjacent(u, v):
            cons.append(Constraint(neg2, (u, v)))
    inst = AbductionInstance(Formula(n, tuple(cons)),
                             frozenset(range(1, g.num_vertices + 1)),
                             frozenset(m_of.values()))
    report = ReductionReport("clique-to-abd", g.num_vertices, n, len(cons),
                             g.num_colors, CV,
                             notes={"colors": g.num_colors})
    return inst, report


# ---------------------------------------------------------------------------
# two-level QBF (exists/forall, 3-DNF matrix) -> 4-CNF abduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QbfInstance:
    """∃ x_1..x_nx ∀ y_1..y_ny . Φ with Φ a DNF of terms of <= 3 literals.

    Variables 1..num_x are existential, num_x+1..num_x+num_y universal;
    literals are signed ints.
    """
    num_x: int
    num_y: int
    terms: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.num_x + self.num_y
        for t in self.terms:
            if len(t) > 3:
                raise StructureError("terms may hold at most 3 literals")
            if any(not 1 <= abs(l) <= n for l in t):
                raise StructureError("term literal out of range")


def qbf_truth(q: QbfInstance) -> bool:
    """Brute-force ∃X ∀Y evaluation of the DNF matrix."""

    def term_true(t: tuple[int, ...], sigma: int) -> bool:
        return all(((sigma >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0) for l in t)

    for xs in range(1 << q.num_x):
        ok = True
        for ys in range(1 << q.num_y):
            sigma = xs | (ys << q.num_x)
            if not any(term_true(t, sigma) for t in q.terms):
                ok = False
                break
        if ok:
            return True
    return False


def _clause_constraint(lits: Sequence[int]) -> Constraint | None:
    """Deduplicate literals; None for tautologies."""
    seen: dict[int, int] = {}
    for l in lits:
        v = abs(l)
        s = 0 if l > 0 else 1
        if v in seen and seen[v] != s:
            return None
        seen[v] = s
    scope = tuple(sorted(seen))
    signs = tuple(seen[v] for v in scope)
    return Constraint(clause_relation(signs), scope)


def qbf_to_abd4cnf(q: QbfInstance) -> tuple[AbductionInstance, ReductionReport]:
    """H = X and M = Y ∪ {s}; the knowledge base says Φ implies s and every y,
    and s alone implies every y.  Distributing ¬Φ (a 3-CNF) over each target
    yields clauses of width at most 4."""
    n = q.num_x + q.num_y + 1
    s = n
    ys = list(range(q.num_x + 1, q.num_x + q.num_y + 1))
    cons: list[Constraint] = []
    seen: set[Constraint] = set()
    for t in q.terms:
        neg = [-l for l in t]
        for target in [s] + ys:
            con = _clause_constraint(neg + [target])
            if con is not None and con not in seen:
                seen.add(con)
                cons.append(con)
    for y in ys:
        con = _clause_constraint([-s, y])
        if con is not None and con not in seen:
            seen.add(con)
            cons.append(con)
    inst = AbductionInstance(Formula(n, tuple(cons)),
                             frozenset(range(1, q.num_x + 1)),
                             frozenset(ys) | {s})
    report = ReductionReport("qbf-to-abd4cnf", q.num_x + q.num_y, n, len(cons),
                             1, CV)
    return inst, report


# ---------------------------------------------------------------------------
# symmetric -> positive abduction over 4-CNF (complement variables)
# ---------------------------------------------------------------------------

def abd_to_pabd_4cnf(inst: AbductionInstance) -> tuple[AbductionInstance, ReductionReport]:
    """Add a complement variable x' with x <-> ¬x' per hypothesis; positive
    explanations of the output correspond to general explanations of the
    input (x' standing in for ¬x)."""
    if not is_kcnf_formula(inst.kb, k=4):
        raise FragmentError("knowledge base is not a CNF of width <= 4")
    hyp = sorted(inst.hypotheses)
    n0 = inst.num_vars
    prime = {h: n0 + i + 1 for i, h in enumerate(hyp)}
    cons = list(inst.kb.constraints)
    or2 = clause_relation((0, 0), "OR2")
    nor2 = clause_relation((1, 1), "NOR2")
    for h in hyp:
        cons.append(Constraint(or2, (h, prime[h])))
        cons.append(Constraint(nor2, (h, prime[h])))
    out = AbductionInstance(Formula(n0 + len(hyp), tuple(cons)),
                            frozenset(hyp) | frozenset(prime.values()),
                            inst.manifestations)
    report = ReductionReport("abd-to-pabd-4cnf", n0, out.num_vars, len(cons),
                             len(hyp), LV,
                             notes={"prime_of": {str(h): prime[h] for h in hyp}})
    return out, report


# ---------------------------------------------------------------------------
# Theorem-28 style: eliminate unary constants via derived inequality
# ---------------------------------------------------------------------------

def eliminate_constants(inst: AbductionInstance) -> tuple[AbductionInstance, ReductionReport]:
    """Replace ⊥(x) by NEQ(x, V1) and ⊤(y) by NEQ(y, V0), pinning the fresh
    pair apart and forcing V1 true by putting it in both H' and M'.  NEQ is
    realized as an identification minor of a language relation, so the output
    stays inside the constant-free language."""
    rels = [c.relation for c in inst.kb.constraints if c.relation not in (BOT, TOP)]
    gadget: InequalityGadget = derive_inequality(ConstraintLanguage(frozenset(rels)))
    n0 = inst.num_vars
    v0, v1 = n0 + 1, n0 + 2
    cons: list[Constraint] = []
    for con in inst.kb.constraints:
        if con.relation == BOT:
            cons.append(Constraint(gadget.base, gadget.scope_for(con.scope[0], v1)))
        elif con.relation == TOP:
            cons.append(Constraint(gadget.base, gadget.scope_for(con.scope[0], v0)))
        else:
            cons.append(con)
    cons.append(Constraint(gadget.base, gadget.scope_for(v0, v1)))
    out = AbductionInstance(Formula(n0 + 2, tuple(cons)),
                            inst.hypotheses | {v1},
                            inst.manifestations | {v1})
    return out, ReductionReport("eliminate-constants", n0, n0 + 2, len(cons), 2, CV)


# ---------------------------------------------------------------------------
# Theorem-29 style: CNF -> not-all-equal
# ---------------------------------------------------------------------------

def kcnf_to_nae(inst: AbductionInstance) -> tuple[AbductionInstance, ReductionReport]:
    """Each clause with sign pattern s becomes the (arity+1)-ary NAE relation
    with pattern (s, 0) applied to (scope, V0); V0 != V1 is expressed inside
    NAE by identifying two coordinates, and V1 joins both H and M."""
    clauses = formula_as_clauses(inst.kb)
    if clauses is None:
        raise FragmentError("knowledge base is not a CNF")
    n0 = inst.num_vars
    v0, v1 = n0 + 1, n0 + 2
    cons: list[Constraint] = []
    for signs, scope in clauses:
        cons.append(Constraint(nae(signs + (0,)), scope + (v0,)))
    cons.append(Constraint(nae((0, 0, 0)), (v0, v0, v1)))
    out = AbductionInstance(Formula(n0 + 2, tuple(cons)),
                            inst.hypotheses | {v1},
                            inst.manifestations | {v1})
    return out, ReductionReport("kcnf-to-nae", n0, n0 + 2, len(cons), 2, CV)


# ---------------------------------------------------------------------------
# Lemma-30 style: CNF-SAT -> abduction over negative clauses + implications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for cl in self.clauses:
            if any(not 1 <= abs(l) <= self.num_vars for l in cl):
                raise StructureError("clause literal out of range")

    def satisfiable(self) -> bool:
        """Brute force: the truth table of core (core.truth_table) over the
        clauses as constraints, tautologies dropped, is nonzero."""
        cons = [c for c in map(_clause_constraint, self.clauses) if c is not None]
        return truth_table(Formula(self.num_vars, tuple(cons))) != 0


def cnfsat_to_abd_lb(phi: CnfFormula) -> tuple[AbductionInstance, ReductionReport]:
    """Triple the variables: x' carries the complement role (positive x becomes
    ¬x'), m_x must be explained by picking x or x', and (¬x ∨ ¬x') forbids
    picking both; satisfying assignments correspond to explanations."""
    v = phi.num_vars
    prime = {x: v + x for x in range(1, v + 1)}
    mvar = {x: 2 * v + x for x in range(1, v + 1)}
    cons: list[Constraint] = []
    for cl in phi.clauses:
        mapped = sorted({prime[l] if l > 0 else -l for l in cl})
        if not mapped:
            cons.append(Constraint(FALSE0, ()))
            continue
        cons.append(Constraint(clause_relation((1,) * len(mapped)), tuple(mapped)))
    nor2 = clause_relation((1, 1), "NOR2")
    for x in range(1, v + 1):
        cons.append(Constraint(nor2, (x, prime[x])))
        cons.append(Constraint(IMP_REL, (x, mvar[x])))
        cons.append(Constraint(IMP_REL, (prime[x], mvar[x])))
    hyp = frozenset(range(1, 2 * v + 1))
    man = frozenset(mvar.values())
    inst = AbductionInstance(Formula(3 * v, tuple(cons)), hyp, man)
    report = ReductionReport("cnfsat-to-abd", v, 3 * v, len(cons), 2 * v, LV,
                             notes={"H": len(hyp), "M": len(man)})
    return inst, report


# ---------------------------------------------------------------------------
# Lemma-32 style: 2-CNF abduction -> CNF-SAT (clause merging)
# ---------------------------------------------------------------------------

def abd2cnf_to_cnfsat(inst: AbductionInstance) -> tuple[CnfFormula, ReductionReport]:
    """For each manifestation m, delete the binary clauses (ℓ ∨ m) and add the
    single merged clause over their partner literals; everything else is kept.

    This follows the published construction literally; it is a kernelization
    device, and on some instances the output's satisfiability disagrees with
    the abduction answer (the verification sweep logs such cases instead of
    asserting agreement).
    """
    if not is_kcnf_formula(inst.kb, k=2):
        raise FragmentError("knowledge base is not a 2-CNF")
    man = inst.manifestations
    partners: dict[int, list[int]] = {m: [] for m in sorted(man)}
    kept: list[tuple[int, ...]] = []
    in_clauses = formula_as_clauses(inst.kb)
    for signs, scope in in_clauses:
        lits = tuple(v if s == 0 else -v for s, v in zip(signs, scope))
        pos_m = [l for l in lits if l > 0 and l in man]
        if len(lits) == 2 and pos_m:
            for m in pos_m:
                rest = [l for l in lits if l != m]
                partners[m].extend(rest)
        else:
            kept.append(lits)
    merged = [tuple(dict.fromkeys(partners[m])) for m in sorted(man)]
    clauses = tuple(dict.fromkeys(kept + merged))
    out = CnfFormula(inst.num_vars, clauses)
    report = ReductionReport("abd2cnf-to-cnfsat", inst.num_vars, inst.num_vars,
                             len(clauses), 0, CV,
                             notes={"merged": len(merged)})
    # each input clause is kept or merged away, and each m adds one clause
    if len(clauses) > len(in_clauses) + len(man):
        raise ReductionContractError(
            "merged output exceeded the input's clauses plus one per manifestation")
    return out, report
