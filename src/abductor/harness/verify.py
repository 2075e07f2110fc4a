"""Cross-validation sweeps: every solver against its brute-force oracle and
every reduction against answer preservation on its applicable instances.

A failure carries the offending instance; `abductor verify --dump` minimizes
it greedily and writes it out for replay.  The clause-merging 2-CNF ->
CNF-SAT reduction is compared but only *logged* on disagreement: the
published construction is a kernelization device and is not
answer-preserving on all inputs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from ..core import (AbductionInstance, Constraint, Formula, PreprocessResult,
                    Relation, BOT, TOP, TRIVIALLY_NO, is_explanation, preprocess)
from ..langlib import LanguageError, clause_relation, nae, one_in_k, parity
from ..reductions import (IMP_REL, abd2cnf_to_cnfsat, abd_to_pabd_4cnf,
                          clique_to_abd, cnfsat_to_abd_lb,
                          colorful_clique_exists, eliminate_constants,
                          formula_as_clauses, is_neg_imp_formula, kcnf_to_nae,
                          negimp_to_pos, qbf_to_abd4cnf, qbf_truth)
from ..solvers import ENGINES, PabdAudit, _oracle_sets, explained, pabd_recursive
from . import generators

# reduction outputs above this many variables are not checked by the oracles
REDUCTION_OUT_CAP = 14


@dataclass
class Finding:
    kind: str
    detail: str
    instance: AbductionInstance


@dataclass
class VerifyReport:
    instances: int = 0
    failures: list[Finding] = field(default_factory=list)
    logged: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# per-instance checks
# ---------------------------------------------------------------------------

def check_solvers(inst: AbductionInstance) -> list[Finding]:
    """Every row of solvers.ENGINES that applies to inst against the oracles.
    Each distinct witness is checked once; each row that returns a bad one
    is a finding, as is a yes without a witness."""
    fails: list[Finding] = []

    def bad(kind: str, detail: str) -> None:
        fails.append(Finding(kind, detail, inst))

    explains = functools.cache(functools.partial(is_explanation, inst))
    full, positive, maximal = _oracle_sets(inst)
    truth = {"abd": bool(full), "pabd": bool(positive)}
    sets = {"full": ("full-explanation", full, len),
            "maximal": ("maximal-positive", maximal, lambda s: sorted(map(sorted, s)))}
    for e in ENGINES:
        if e.algo == "oracle" or e.applies and not e.applies(inst):
            continue
        audit = PabdAudit() if e.solve is pabd_recursive else None
        res, eset = e.run(inst) if audit is None else e.run(inst, audit=audit)
        if res.answer != truth[e.mode]:
            bad(e.name, f"answer {res.answer} vs oracle {truth[e.mode]}")
        elif res.answer and res.witness is None:
            bad(e.name, "answer True without a witness")
        elif res.answer and not explains(res.witness.literals):
            bad(e.name, f"witness {sorted(res.witness.literals)} is not an explanation")
        if eset is not None:
            label, oracle_set, show = sets[e.explanations]
            if eset.explanations != oracle_set:
                bad(f"{e.name}-set", f"{label} set mismatch "
                    f"({show(eset.explanations)} vs {show(oracle_set)})")
        if audit is None:
            continue
        h = len(preprocess(inst).instance.hypotheses)
        if audit.duplicate_visits:
            bad(f"{e.name}-audit", f"{audit.duplicate_visits} duplicate subset visits")
        if len(audit.visited) > (1 << h):
            bad(f"{e.name}-audit", f"visited {len(audit.visited)} subsets > 2^|H|")
        if res.stats.max_depth > h + 1:
            bad(f"{e.name}-audit", f"depth {res.stats.max_depth} > |H|+1={h + 1}")
    return fails


def _oracle_pair(inst: AbductionInstance) -> tuple[bool, bool]:
    """(oracle_abd(inst).answer, oracle_pabd(inst).answer) from one explained read."""
    return _preprocessed_pair(preprocess(inst))


def _preprocessed_pair(pre: PreprocessResult) -> tuple[bool, bool]:
    """_oracle_pair of the instance that preprocess turned into pre."""
    if pre.verdict == TRIVIALLY_NO:
        return False, False
    _, full, positive = explained(pre.instance)
    return bool(full), bool(positive)


def check_reductions(inst: AbductionInstance) -> tuple[list[Finding], list[Finding]]:
    fails: list[Finding] = []
    logged: list[Finding] = []
    pre_result = preprocess(inst)
    in_abd, in_pabd = _preprocessed_pair(pre_result)
    pre = pre_result.instance
    # the widest clause of a CNF KB, or None: the k-CNF gates of the reductions
    clauses = formula_as_clauses(inst.kb)
    width = None if clauses is None else max((len(signs) for signs, _ in clauses), default=0)

    if is_neg_imp_formula(inst.kb):
        out, _rep = negimp_to_pos(pre)
        if out.num_vars <= REDUCTION_OUT_CAP:
            out_abd, _ = _oracle_pair(out)
            for mode, truth in (("abd", in_abd), ("pabd", in_pabd)):
                if out_abd != truth:
                    fails.append(Finding(f"negimp-to-pos/{mode}",
                                         f"answer flipped (input {truth})", inst))

    if width is not None and width <= 4:
        out, _rep = abd_to_pabd_4cnf(pre)
        if out.num_vars <= REDUCTION_OUT_CAP and _oracle_pair(out)[1] != in_abd:
            fails.append(Finding("abd-to-pabd-4cnf",
                                 f"positive answer vs symmetric input {in_abd}", inst))

    if width is not None:
        out, _rep = kcnf_to_nae(pre)
        if out.num_vars <= REDUCTION_OUT_CAP:
            o_abd, o_pabd = _oracle_pair(out)
            if o_abd != in_abd or o_pabd != in_pabd:
                fails.append(Finding("kcnf-to-nae",
                                     f"({o_abd},{o_pabd}) vs ({in_abd},{in_pabd})", inst))

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
                                     f"({o_abd},{o_pabd}) vs ({p_abd},{p_pabd})", probe))

    if width is not None and width <= 2:
        out, _rep = abd2cnf_to_cnfsat(pre)
        if out.num_vars <= 16:
            out_sat = out.satisfiable()
            if out_sat != in_abd:
                logged.append(Finding("abd2cnf-to-cnfsat",
                                      f"SAT {out_sat} vs oracle {in_abd}", inst))
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
    if per_family < 1:
        raise ValueError(f"random instances need per_family >= 1, got {per_family}")
    sizes = list(range(4, max_n + 1))
    for family, gen in RANDOM_FAMILIES.items():
        for i in range(per_family):
            n = sizes[i % len(sizes)]
            yield family, gen(n, seed * 100003 + i)


# the kinds of generator_level_checks' findings, which no per-instance check reports
GENERATOR_KINDS = frozenset({"clique-to-abd", "qbf-to-abd4cnf", "cnfsat-to-abd"})


def generator_level_checks(count: int = 50, seed: int = 0) -> list[Finding]:
    """Clique / QBF / CNF-SAT constructions against their own brute oracles."""
    fails: list[Finding] = []
    for i in range(count):
        g = generators.gen_colored_graph(2 + i % 2, 2 + (i // 2) % 2, seed + i,
                                         edge_prob=0.3 + 0.15 * (i % 4))
        inst, _rep = clique_to_abd(g)
        want = colorful_clique_exists(g)
        if _oracle_pair(inst) != (want, want):
            fails.append(Finding("clique-to-abd", f"graph #{i} mismatch (want {want})", inst))
    for i in range(count):
        q = generators.gen_qbf_instance(1 + i % 3, 1 + (i // 3) % 3, 1 + i % 4, seed + i)
        inst, _rep = qbf_to_abd4cnf(q)
        want = qbf_truth(q)
        if _oracle_pair(inst)[0] != want:
            fails.append(Finding("qbf-to-abd4cnf", f"qbf #{i} mismatch (want {want})", inst))
    for i in range(count):
        phi = generators.gen_cnf_formula(2 + i % 3, 2 + i % 5, 3, seed + i)
        inst, _rep = cnfsat_to_abd_lb(phi)
        want = phi.satisfiable()
        if _oracle_pair(inst) != (want, want):
            fails.append(Finding("cnfsat-to-abd", f"cnf #{i} mismatch (want {want})", inst))
    return fails


# ---------------------------------------------------------------------------
# minimization and the driver
# ---------------------------------------------------------------------------

def minimize_instance(inst: AbductionInstance,
                      still_fails: Callable[[AbductionInstance], bool]) -> AbductionInstance:
    """Greedy shrink: drop constraints, then hypotheses, then manifestations,
    one at a time, restarting after each drop that keeps the predicate failing.
    An instance the predicate does not fail on is returned unchanged."""

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

    if not fails(inst):
        return inst
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
