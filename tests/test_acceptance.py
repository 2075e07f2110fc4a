"""Acceptance suite: one test per shipped criterion, each printing a PASS line
with its measured evidence.  Tolerances are pinned here, not configurable.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import itertools
import time

from abductor.core import is_explanation, preprocess
from abductor.langlib import aff, branching_closure, xsat_family
from abductor.satenum import solve_simple_sat, sparse_enumerate
from abductor.solvers import (PabdAudit, enum_abd, oracle_abd, pabd_enum,
                              pabd_recursive)
from abductor.reductions import (abd2cnf_to_cnfsat, abd_to_simplesat,
                                 cnfsat_to_abd_lb, eliminate_constants,
                                 kcnf_to_nae, qbf_to_abd4cnf, qbf_truth)
from abductor.harness import generators, verify
from abductor.harness.bench import fit_base, simplesat_hard_instance

from test_core import example1_instance
from test_solvers import results
from test_satenum import gauss_count

XSAT_LANG = branching_closure(xsat_family(3))
AFF_LANG = branching_closure(aff(3))


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_worked_example():
    t0 = time.perf_counter()
    inst = example1_instance()
    e2 = frozenset({1, 4})          # {A, D}
    e1 = frozenset({1, -4, -5})     # {A, not D, not E}

    # every engine that applies, one-valid included: each clause has a positive literal
    assert all(res.answer for _, res in results(inst))

    _, full_set = enum_abd(inst)[0], enum_abd(inst)[1]
    assert e1 in full_set.explanations

    # {A,D} is a positive explanation; the subset-maximal set returned by the
    # weight-ordered solver covers it with a superset ({A,D,E} also explains,
    # so {A,D} itself is not subset-maximal)
    assert is_explanation(inst, e2)
    _, pset = pabd_enum(inst)
    assert any(e2 <= e for e in pset.explanations)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"all solvers yes; E1 in full set; maximal set covers E2 "
              f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    exhaustive = verify.run_verify(suite="exhaustive")
    assert exhaustive.ok, [f"{f.kind}: {f.detail}" for f in exhaustive.failures[:5]]
    randoms = verify.run_verify(suite="random", per_family=500, max_n=12, seed=2024)
    assert randoms.ok, [f"{f.kind}: {f.detail}" for f in randoms.failures[:5]]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(2, f"{exhaustive.instances} exhaustive + {randoms.instances} random "
              f"instances, 0 disagreements "
              f"({len(randoms.logged)} logged for the clause-merging construction) "
              f"in {elapsed:.0f} s")


def test_criterion_3_chain_tightness():
    t0 = time.perf_counter()
    for m in range(1, 11):
        inst = generators.gen_xsat_chain(m)
        stream = sparse_enumerate(inst.kb, XSAT_LANG, r0=2)
        count = sum(1 for _ in stream)
        assert count == 2 ** m, (m, count)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, f"chain model counts exactly 2^m for m=1..10 ({elapsed:.2f} s)")


def test_criterion_4_sparse_scaling():
    t0 = time.perf_counter()
    points = []
    for n in range(10, 25, 2):
        runs = []
        for seed in range(5):
            inst = generators.gen_xsat_disjoint(n, seed)
            stream = sparse_enumerate(inst.kb, XSAT_LANG, r0=2)
            for _ in stream:
                pass
            runs.append(stream.stats.branch_nodes)
        runs.sort()
        points.append((n, float(runs[len(runs) // 2])))
    base, residual = fit_base(points)
    assert base <= 1.45, (base, points)

    for n in range(4, 17, 2):
        for seed in range(3):
            inst = generators.gen_aff(n, seed)
            stream = sparse_enumerate(inst.kb, AFF_LANG, r0=1)
            count = sum(1 for _ in stream)
            assert count == gauss_count(inst.kb), (n, seed)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(4, f"xsat fitted base {base:.4f} <= 1.45 (residual {residual:.3f}); "
              f"affine counts match elimination up to n=16 ({elapsed:.1f} s)")


def test_criterion_5_simplesat_branching_constant():
    t0 = time.perf_counter()
    points = []
    for n in range(8, 25, 2):
        _, stats = solve_simple_sat(simplesat_hard_instance(n))
        points.append((n, float(stats.branch_nodes)))
    base, residual = fit_base(points)
    assert base <= 1.65, (base, points)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(5, f"adversarial width-2 family fitted base {base:.4f} <= 1.65 "
              f"(golden ratio 1.6181) in {elapsed:.2f} s")


def test_criterion_6_reduction_contracts():
    t0 = time.perf_counter()
    checked = 0
    for seed in range(100):
        inst = generators.gen_nae3(4 + seed % 4, seed)
        _, rep = eliminate_constants(
            verify._with_constants(preprocess(inst).instance))
        assert rep.added_vars == 2 and rep.output_vars == inst.num_vars + 2
        checked += 1
    for seed in range(100):
        inst = generators.gen_2cnf(4 + seed % 5, seed)
        _, rep = kcnf_to_nae(preprocess(inst).instance)
        assert rep.added_vars == 2
        out, rep = abd2cnf_to_cnfsat(preprocess(inst).instance)
        assert len(out.clauses) <= inst.num_vars ** 2
        checked += 1
    for seed in range(100):
        phi = generators.gen_cnf_formula(2 + seed % 4, 2 + seed % 5, 3, seed)
        _, rep = cnfsat_to_abd_lb(phi)
        assert rep.output_vars == 3 * phi.num_vars
        assert rep.notes["H"] == 2 * rep.notes["M"]
        checked += 1
    for seed in range(100):
        inst = preprocess(generators.gen_kcnf_pos(6 + seed % 5, seed, k=3)).instance
        simple, rep = abd_to_simplesat(inst)
        used = set().union(*simple.positive_clauses) if simple.positive_clauses else set()
        for d in simple.negative_dnfs:
            for t in d:
                used |= t
        assert used <= inst.hypotheses
        checked += 1
    elapsed = time.perf_counter() - t0
    report(6, f"{checked} reduction runs, zero contract violations ({elapsed:.1f} s)")


def test_criterion_7_recursive_resource_contract():
    t0 = time.perf_counter()
    audited = 0
    gens = [generators.gen_xsat, generators.gen_equations, generators.gen_aff,
            generators.gen_kcnf_pos, generators.gen_kcnf_neg_imp,
            generators.gen_nae3]
    for gen in gens:
        for seed in range(25):
            inst = gen(4 + seed % 9, seed)
            pre = preprocess(inst).instance
            h = len(pre.hypotheses)
            if h > 12:
                continue
            audit = PabdAudit()
            res = pabd_recursive(inst, audit=audit)
            assert audit.duplicate_visits == 0
            assert len(audit.visited) <= 1 << h
            assert res.stats.max_depth <= h + 1
            assert audit.max_frame_cells <= max(h, 1)
            audited += 1
    elapsed = time.perf_counter() - t0
    report(7, f"{audited} audited runs: every subset visited at most once, "
              f"depth <= |H|+1, frames O(|H|) ({elapsed:.1f} s)")


def test_criterion_8_qbf_generator_correctness():
    t0 = time.perf_counter()
    checked = 0
    # exhaustive over tiny quantifier blocks and term counts
    for num_x, num_y in ((0, 1), (1, 0), (1, 1), (2, 1), (1, 2)):
        n = num_x + num_y
        lits = [l for v in range(1, n + 1) for l in (v, -v)]
        pool = [t for size in (1, 2) for t in itertools.combinations(lits, size)
                if not any(-l in t for l in t)]
        for terms in itertools.islice(itertools.combinations(pool, 2), 0, None, 7):
            from abductor.reductions import QbfInstance
            q = QbfInstance(num_x, num_y, terms)
            inst, _rep = qbf_to_abd4cnf(q)
            assert oracle_abd(inst).answer == qbf_truth(q), (num_x, num_y, terms)
            checked += 1
    # random within the full |X|+|Y| <= 6, <= 4 term box
    for seed in range(400):
        num_x = seed % 5
        num_y = min(6 - num_x, 1 + seed % 3)
        q = generators.gen_qbf_instance(num_x, num_y, 1 + seed % 4, seed)
        inst, _rep = qbf_to_abd4cnf(q)
        assert oracle_abd(inst).answer == qbf_truth(q), seed
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(8, f"{checked} QBFs agree with the two-level brute-force evaluator "
              f"({elapsed:.1f} s)")
