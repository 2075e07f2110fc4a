"""Cross-validation sweeps: every solver against its brute-force oracle and
every reduction against answer preservation on its applicable instances.

A failure carries the offending instance (greedily minimized) so it can be
dumped and replayed.  The clause-merging 2-CNF -> CNF-SAT reduction is
compared but only *logged* on disagreement: the published construction is a
kernelization device and is not answer-preserving on all inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from ..core import (AbductionInstance, Constraint, Formula, Relation,
                    BOT, TOP, is_explanation, preprocess)
from ..langlib import (ConstraintLanguage, LanguageError, clause_relation,
                       is_one_valid, nae, one_in_k, parity)
from ..reductions import (IMP_REL, abd2cnf_to_cnfsat, abd_to_pabd_4cnf,
                          abd_to_simplesat, clique_to_abd, cnfsat_to_abd_lb,
                          colorful_clique_exists, eliminate_constants,
                          is_kcnf_formula, is_neg_imp_formula, kcnf_to_nae,
                          negimp_to_pos, qbf_to_abd4cnf, qbf_truth)
from ..satenum import solve_simple_sat
from ..solvers import (PabdAudit, abd_kcnf_pos, baseline_abd, baseline_pabd,
                       enum_abd, model_table, oracle_abd,
                       oracle_full_explanations, oracle_pabd,
                       oracle_positive_explanations, pabd_enum,
                       pabd_lattice, pabd_one_valid, pabd_recursive)
from . import generators, io

# reduction outputs above this many variables are not checked by the oracles
REDUCTION_OUT_CAP = 14


@dataclass
class Finding:
    kind: str
    detail: str
    instance_text: str


@dataclass
class VerifyReport:
    instances: int = 0
    failures: list[Finding] = field(default_factory=list)
    logged: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# raw definitional oracles (no preprocessing; used to audit preprocess itself)
# ---------------------------------------------------------------------------

def raw_abd_answer(inst: AbductionInstance) -> bool:
    count, bad = model_table(inst)
    return any(p not in bad for p in count)


def raw_pabd_answer(inst: AbductionInstance) -> bool:
    f, g = pabd_lattice(inst)
    return any(f[p] > 0 and g[p] == 0 for p in f)


# ---------------------------------------------------------------------------
# per-instance checks
# ---------------------------------------------------------------------------

def check_solvers(inst: AbductionInstance) -> list[Finding]:
    text = io.write_text(inst)
    fails: list[Finding] = []

    def bad(kind: str, detail: str) -> None:
        fails.append(Finding(kind, detail, text))

    pre = preprocess(inst).instance
    truth_abd = oracle_abd(inst)
    truth_pabd = oracle_pabd(inst)
    full_set = oracle_full_explanations(inst)
    _all_pos, max_pos = oracle_positive_explanations(inst)

    def check_result(name: str, res, truth) -> None:
        if res.answer != truth.answer:
            bad(name, f"answer {res.answer} vs oracle {truth.answer}")
        elif res.answer and res.witness is not None:
            if not is_explanation(inst, res.witness.literals):
                bad(name, f"witness {sorted(res.witness.literals)} is not an explanation")

    check_result("baseline-abd", baseline_abd(inst), truth_abd)
    res, eset = enum_abd(inst)
    check_result("enum-abd", res, truth_abd)
    if eset.explanations != full_set:
        bad("enum-abd-set", f"full-explanation set mismatch "
            f"({len(eset.explanations)} vs {len(full_set)})")

    check_result("baseline-pabd", baseline_pabd(inst), truth_pabd)
    audit = PabdAudit()
    check_result("pabd-rec", pabd_recursive(inst, audit=audit), truth_pabd)
    h = len(pre.hypotheses)
    if audit.duplicate_visits:
        bad("pabd-rec-audit", f"{audit.duplicate_visits} duplicate subset visits")
    if len(audit.visited) > (1 << h):
        bad("pabd-rec-audit", f"visited {len(audit.visited)} subsets > 2^|H|")
    if audit.max_depth > h + 1:
        bad("pabd-rec-audit", f"depth {audit.max_depth} > |H|+1={h + 1}")
    res, pset = pabd_enum(inst)
    check_result("pabd-enum", res, truth_pabd)
    if pset.explanations != max_pos:
        bad("pabd-enum-set", f"maximal-positive set mismatch "
            f"({sorted(map(sorted, pset.explanations))} vs {sorted(map(sorted, max_pos))})")

    if is_kcnf_formula(inst.kb, positive=True) and pre.is_normalized():
        check_result("simplesat", abd_kcnf_pos(inst), truth_abd)
    if is_one_valid(ConstraintLanguage(frozenset(inst.kb.relations()))):
        check_result("one-valid", pabd_one_valid(inst), truth_pabd)
    return fails


def _oracle_pair(inst: AbductionInstance) -> tuple[bool, bool]:
    return oracle_abd(inst).answer, oracle_pabd(inst).answer


def check_reductions(inst: AbductionInstance) -> tuple[list[Finding], list[Finding]]:
    text = io.write_text(inst)
    fails: list[Finding] = []
    logged: list[Finding] = []
    in_abd, in_pabd = _oracle_pair(inst)
    pre = preprocess(inst).instance

    if is_neg_imp_formula(inst.kb):
        out, _rep = negimp_to_pos(inst)
        if out.num_vars <= REDUCTION_OUT_CAP:
            out_abd = oracle_abd(out).answer
            for mode, truth in (("abd", in_abd), ("pabd", in_pabd)):
                if out_abd != truth:
                    fails.append(Finding(f"negimp-to-pos/{mode}",
                                         f"answer flipped (input {truth})", text))

    if is_kcnf_formula(inst.kb, positive=True) and pre.is_normalized():
        simple, _rep = abd_to_simplesat(pre)
        model, _stats = solve_simple_sat(simple)
        if (model is not None) != in_abd:
            fails.append(Finding("abd-to-simplesat",
                                 f"SimpleSAT {(model is not None)} vs oracle {in_abd}", text))

    if is_kcnf_formula(inst.kb, k=4):
        out, _rep = abd_to_pabd_4cnf(pre)
        if out.num_vars <= REDUCTION_OUT_CAP and oracle_pabd(out).answer != in_abd:
            fails.append(Finding("abd-to-pabd-4cnf",
                                 f"positive answer vs symmetric input {in_abd}", text))

    if is_kcnf_formula(inst.kb):
        out, _rep = kcnf_to_nae(pre)
        if out.num_vars <= REDUCTION_OUT_CAP:
            o_abd, o_pabd = _oracle_pair(out)
            if o_abd != in_abd or o_pabd != in_pabd:
                fails.append(Finding("kcnf-to-nae",
                                     f"({o_abd},{o_pabd}) vs ({in_abd},{in_pabd})", text))

    probe = _with_constants(pre)
    try:
        out, _rep = eliminate_constants(probe)
    except LanguageError:
        pass  # no inequality gadget in the language
    else:
        if out.num_vars <= REDUCTION_OUT_CAP:
            p_abd, p_pabd = _oracle_pair(probe)
            o_abd, o_pabd = _oracle_pair(out)
            if (o_abd, o_pabd) != (p_abd, p_pabd):
                fails.append(Finding("eliminate-constants",
                                     f"({o_abd},{o_pabd}) vs ({p_abd},{p_pabd})",
                                     io.write_text(probe)))

    if is_kcnf_formula(inst.kb, k=2):
        out, _rep = abd2cnf_to_cnfsat(pre)
        if out.num_vars <= 16:
            out_sat = out.satisfiable()
            if out_sat != in_abd:
                logged.append(Finding("abd2cnf-to-cnfsat",
                                      f"SAT {out_sat} vs oracle {in_abd}", text))
    return fails, logged


def _with_constants(inst: AbductionInstance) -> AbductionInstance:
    """Pin the two lowest variables with ⊥/⊤ to exercise constant elimination."""
    cons = list(inst.kb.constraints)
    used = sorted(inst.kb.used_vars())
    if used:
        cons.append(Constraint(BOT, (used[0],)))
    if len(used) > 1:
        cons.append(Constraint(TOP, (used[1],)))
    return AbductionInstance(Formula(inst.num_vars, tuple(cons)),
                             inst.hypotheses, inst.manifestations)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _exhaustive_pool() -> list[Constraint]:
    """Constraint atoms over variables 1..3, including two irregular relations
    whose model patterns skip weight levels (they stress the discard logic of
    the positive enumeration algorithms)."""
    hole_a = Relation.from_tuples(3, [(1, 1, 0), (1, 0, 0)], "HOLEA")
    hole_b = Relation.from_tuples(3, [(1, 1, 0), (0, 0, 1)], "HOLEB")
    atoms = [
        Constraint(one_in_k(3), (1, 2, 3)),
        Constraint(parity(3, 0), (1, 2, 3)),
        Constraint(nae((0, 0, 0)), (1, 2, 3)),
        Constraint(clause_relation((0, 0, 0), "OR3"), (1, 2, 3)),
        Constraint(clause_relation((1, 1, 1), "NOR3"), (1, 2, 3)),
        Constraint(hole_a, (1, 2, 3)),
        Constraint(hole_b, (1, 2, 3)),
        Constraint(one_in_k(2), (1, 2)),
        Constraint(clause_relation((0, 0), "OR2"), (1, 3)),
        Constraint(clause_relation((1, 1), "NOR2"), (2, 3)),
        Constraint(IMP_REL, (1, 2)),
        Constraint(IMP_REL, (2, 3)),
        Constraint(IMP_REL, (3, 1)),
        Constraint(BOT, (1,)),
        Constraint(TOP, (3,)),
    ]
    return atoms


def exhaustive_instances() -> Iterator[AbductionInstance]:
    """Every KB of <= 3 pool constraints over n=3, with every H/M split."""
    atoms = _exhaustive_pool()
    kbs: list[tuple[Constraint, ...]] = []
    for size in (1, 2, 3):
        kbs.extend(itertools.combinations(atoms, size))
    for cons in kbs:
        phi = Formula(3, tuple(cons))
        for split in itertools.product((0, 1, 2), repeat=3):
            hyp = frozenset(v for v, s in zip((1, 2, 3), split) if s == 1)
            man = frozenset(v for v, s in zip((1, 2, 3), split) if s == 2)
            yield AbductionInstance(phi, hyp, man)


def preprocess_audit_instances() -> Iterator[AbductionInstance]:
    """Small KBs over variables 1..2 inside a 4-variable universe, so variables
    3 and 4 exercise the outside-KB normalization rules."""
    atoms = [
        Constraint(one_in_k(2), (1, 2)),
        Constraint(clause_relation((0, 0), "OR2"), (1, 2)),
        Constraint(IMP_REL, (1, 2)),
        Constraint(BOT, (1,)),
        Constraint(TOP, (2,)),
    ]
    kbs = [()] + [(a,) for a in atoms] + list(itertools.combinations(atoms, 2))
    for cons in kbs:
        phi = Formula(4, tuple(cons))
        for split in itertools.product((0, 1, 2, 3), repeat=4):
            hyp = frozenset(v for v, s in zip((1, 2, 3, 4), split) if s in (1, 3))
            man = frozenset(v for v, s in zip((1, 2, 3, 4), split) if s in (2, 3))
            yield AbductionInstance(phi, hyp, man)


RANDOM_FAMILIES: dict[str, Callable[[int, int], AbductionInstance]] = {
    "xsat": generators.gen_xsat,
    "equations": generators.gen_equations,
    "aff": generators.gen_aff,
    "kcnf-pos": lambda n, seed: generators.gen_kcnf_pos(n, seed, k=2 + (seed % 2)),
    "kcnf-neg-imp": lambda n, seed: generators.gen_kcnf_neg_imp(n, seed, k=2),
    "nae": generators.gen_nae3,
}


def random_instances(per_family: int, max_n: int = 12,
                     seed: int = 0) -> Iterator[tuple[str, AbductionInstance]]:
    if max_n < 4:
        raise ValueError(f"random instances need max_n >= 4, got {max_n}")
    sizes = list(range(4, max_n + 1))
    for family, gen in RANDOM_FAMILIES.items():
        for i in range(per_family):
            n = sizes[i % len(sizes)]
            yield family, gen(n, seed * 100003 + i)


def generator_level_checks(count: int = 50, seed: int = 0) -> list[Finding]:
    """Clique / QBF / CNF-SAT constructions against their own brute oracles."""
    fails: list[Finding] = []
    for i in range(count):
        g = generators.gen_colored_graph(2 + i % 2, 2 + (i // 2) % 2, seed + i,
                                         edge_prob=0.3 + 0.15 * (i % 4))
        inst, _rep = clique_to_abd(g)
        want = colorful_clique_exists(g)
        if oracle_abd(inst).answer != want or oracle_pabd(inst).answer != want:
            fails.append(Finding("clique-to-abd", f"graph #{i} mismatch (want {want})",
                                 io.write_text(inst)))
    for i in range(count):
        q = generators.gen_qbf_instance(1 + i % 3, 1 + (i // 3) % 3, 1 + i % 4, seed + i)
        inst, _rep = qbf_to_abd4cnf(q)
        want = qbf_truth(q)
        if oracle_abd(inst).answer != want:
            fails.append(Finding("qbf-to-abd4cnf", f"qbf #{i} mismatch (want {want})",
                                 io.write_text(inst)))
    for i in range(count):
        phi = generators.gen_cnf_formula(2 + i % 3, 2 + i % 5, 3, seed + i)
        inst, _rep = cnfsat_to_abd_lb(phi)
        want = phi.satisfiable()
        if oracle_abd(inst).answer != want or oracle_pabd(inst).answer != want:
            fails.append(Finding("cnfsat-to-abd", f"cnf #{i} mismatch (want {want})",
                                 io.write_text(inst)))
    return fails


# ---------------------------------------------------------------------------
# minimization and the driver
# ---------------------------------------------------------------------------

def minimize_instance(inst: AbductionInstance,
                      still_fails: Callable[[AbductionInstance], bool]) -> AbductionInstance:
    """Greedy shrink: drop constraints, then hypotheses, then manifestations,
    one at a time, restarting after each drop that keeps the predicate failing."""

    def variants(inst: AbductionInstance) -> Iterator[AbductionInstance]:
        cons, hyp, man = inst.kb.constraints, inst.hypotheses, inst.manifestations
        for i in range(len(cons)):
            yield AbductionInstance(Formula(inst.num_vars, cons[:i] + cons[i + 1:]), hyp, man)
        for h in sorted(hyp):
            yield AbductionInstance(inst.kb, hyp - {h}, man)
        for m in sorted(man):
            yield AbductionInstance(inst.kb, hyp, man - {m})

    def fails(cand: AbductionInstance) -> bool:
        try:
            return still_fails(cand)
        except Exception:
            return False

    while (smaller := next(filter(fails, variants(inst)), None)) is not None:
        inst = smaller
    return inst


def run_verify(suite: str = "random", per_family: int = 50, max_n: int = 10,
               seed: int = 0, progress: Callable[[str], None] | None = None) -> VerifyReport:
    report = VerifyReport()

    def feed(instances: Iterable[tuple[str, AbductionInstance]]) -> None:
        for family, inst in instances:
            report.instances += 1
            fails = check_solvers(inst)
            rfails, rlogged = check_reductions(inst)
            for f in fails + rfails:
                f.detail = f"[{family}] {f.detail}"
                report.failures.append(f)
            report.logged.extend(rlogged)
            if progress and report.instances % 500 == 0:
                progress(f"{report.instances} instances, "
                         f"{len(report.failures)} failures")

    if suite == "exhaustive":
        feed(("exhaustive", inst) for inst in exhaustive_instances())
    elif suite == "random":
        feed(random_instances(per_family, max_n, seed))
        report.failures.extend(generator_level_checks(min(per_family, 50), seed))
    else:
        raise ValueError(f"unknown suite '{suite}' (use exhaustive or random)")
    return report
