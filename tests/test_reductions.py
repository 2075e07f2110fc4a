import itertools

import pytest

from abductor.core import (AbductionInstance, Constraint, FragmentError,
                           Formula, BOT, TOP, Relation, decode_tuple, formula,
                           preprocess)
from abductor.langlib import clause_relation, nae, one_in_k, parity
from abductor.reductions import (CV, LV, SHRINKING, CnfFormula, ColoredGraph,
                                 IMP_REL, QbfInstance, ReductionContractError,
                                 ReductionReport,
                                 abd2cnf_to_cnfsat, abd_to_pabd_4cnf,
                                 abd_to_simplesat, clique_to_abd,
                                 cnfsat_to_abd_lb, colorful_clique_exists,
                                 eliminate_constants, kcnf_to_nae,
                                 negimp_to_pos, qbf_to_abd4cnf, qbf_truth)
from abductor.satenum import solve_simple_sat
from abductor.solvers import oracle_abd, oracle_pabd
from abductor.harness.generators import (gen_2cnf, gen_cnf_formula,
                                         gen_colored_graph, gen_kcnf_neg_imp,
                                         gen_kcnf_pos, gen_nae3,
                                         gen_qbf_instance)


def inst_of(n, cons, hyp, man):
    return AbductionInstance(formula(n, cons), frozenset(hyp), frozenset(man))


def test_clause_signs_is_the_one_missing_tuple():
    """Relation.clause_signs finds the missing code by a sum; it must agree
    with a search for the one missing tuple on all 278 relations of arity
    0..3 (a 0-ary relation is no clause), and it is computed once."""
    relations = clauses = 0
    for k in (0, 1, 2, 3):
        for members in itertools.product((0, 1), repeat=1 << k):
            rel = Relation(k, tuple(c for c, keep in enumerate(members) if keep))
            missing = [c for c in range(1 << k) if c not in rel.codes]
            want = decode_tuple(missing[0], k) if k and len(missing) == 1 else None
            assert rel.clause_signs == want, rel
            assert rel.clause_signs is rel.__dict__["clause_signs"]
            relations += 1
            clauses += want is not None
    assert (relations, clauses) == (278, 2 + 4 + 8)


class TestNegImpToPos:
    def test_single_implication(self):
        inst = inst_of(2, [(IMP_REL, (1, 2))], {1}, {2})
        out, rep = negimp_to_pos(inst)
        assert rep.added_vars == 0 and rep.contract == "CV"
        assert any(set(c.scope) == {1, 2} for c in out.kb.constraints)
        assert oracle_abd(out).answer and oracle_abd(inst).answer

    def test_blocking_clause_added(self):
        # (not h1 or not h2) and (h1 -> m): the pair {h1,h2} is inconsistent
        # with KB and M, so the output blocks it
        inst = inst_of(3, [(clause_relation((1, 1)), (1, 2)), (IMP_REL, (1, 3))],
                       {1, 2}, {3})
        out, _rep = negimp_to_pos(inst)
        assert any(set(c.scope) == {1, 2} and c.relation == clause_relation((0, 0))
                   for c in out.kb.constraints)
        assert oracle_abd(out).answer == oracle_abd(inst).answer

    def test_overlap_resolved_with_two_fresh_vars(self):
        inst = inst_of(2, [(IMP_REL, (1, 2))], {1, 2}, {2})
        out, rep = negimp_to_pos(inst)
        assert rep.added_vars == 2
        assert out.num_vars == 4
        assert not (out.hypotheses & out.manifestations)
        assert oracle_abd(out).answer == oracle_pabd(inst).answer == oracle_abd(inst).answer

    def test_rejects_other_fragments(self):
        with pytest.raises(FragmentError):
            negimp_to_pos(inst_of(2, [(one_in_k(2), (1, 2))], {1}, {2}))

    def test_answer_preservation_sweep(self):
        for seed in range(40):
            inst = gen_kcnf_neg_imp(4 + seed % 4, seed)
            in_abd, in_pabd = oracle_abd(inst).answer, oracle_pabd(inst).answer
            out, rep = negimp_to_pos(inst)
            assert rep.added_vars <= 2
            out_abd = oracle_abd(out).answer
            assert out_abd == in_abd, f"seed {seed} symmetric"
            assert out_abd == in_pabd, f"seed {seed} positive"


class TestReductionReport:
    def test_variable_accounting_rule(self):
        for contract in (CV, LV):
            ReductionReport("r", 3, 5, 0, 2, contract)
            with pytest.raises(ReductionContractError):
                ReductionReport("r", 3, 6, 0, 2, contract)
        ReductionReport("r", 3, 3, 0, 0, SHRINKING)
        with pytest.raises(ReductionContractError):
            ReductionReport("r", 3, 4, 0, 1, SHRINKING)


class TestAbdToSimpleSat:
    def test_minimal_clause(self):
        inst = inst_of(2, [(clause_relation((0, 0)), (1, 2))], {1}, {2})
        simple, rep = abd_to_simplesat(inst)
        assert simple.positive_clauses == ()
        assert simple.negative_dnfs == ((frozenset({1}),),)
        model, _ = solve_simple_sat(simple)
        assert model is not None and oracle_abd(inst).answer

    def test_unexplainable_manifestation(self):
        # both manifestations appear only in the dropped two-M clause, so
        # their disjunctions are empty -> unsat
        inst = inst_of(4, [(clause_relation((0, 0)), (1, 2)),
                           (clause_relation((0, 0)), (3, 4))],
                       {1, 2}, {3, 4})
        simple, _rep = abd_to_simplesat(inst)
        assert () in simple.negative_dnfs
        assert solve_simple_sat(simple)[0] is None

    def test_unit_manifestation_clause_is_trivially_true_term(self):
        # a unit clause (m) explains m by itself: empty negative term
        inst = inst_of(3, [(clause_relation((0, 0)), (1, 2)),
                           (clause_relation((0,)), (3,))],
                       {1, 2}, {3})
        simple, _rep = abd_to_simplesat(inst)
        assert (frozenset(),) in simple.negative_dnfs
        assert solve_simple_sat(simple)[0] is not None

    def test_pure_h_clause_becomes_positive(self):
        inst = inst_of(3, [(clause_relation((0, 0)), (1, 2)),
                           (clause_relation((0, 0)), (1, 3))], {1, 2}, {3})
        simple, _rep = abd_to_simplesat(inst)
        assert frozenset({1, 2}) in simple.positive_clauses
        model, _ = solve_simple_sat(simple)
        assert (model is not None) == oracle_abd(inst).answer

    def test_variables_stay_inside_h(self):
        for seed in range(30):
            inst = gen_kcnf_pos(7, seed, k=3)
            pre = preprocess(inst).instance
            simple, rep = abd_to_simplesat(pre)
            used = set()
            for c in simple.positive_clauses:
                used |= c
            for d in simple.negative_dnfs:
                for t in d:
                    used |= t
            assert used <= pre.hypotheses
            assert rep.output_vars <= len(pre.hypotheses)

    def test_dropped_clauses_counted(self):
        # clause with two manifestation variables is unusable
        inst = inst_of(3, [(clause_relation((0, 0)), (2, 3)),
                           (clause_relation((0, 0)), (1, 2))], {1}, {2, 3})
        _simple, rep = abd_to_simplesat(inst)
        assert rep.notes["dropped_clauses"] == 1


class TestCliqueToAbd:
    def test_two_colors_with_edge(self):
        g = ColoredGraph(2, 2, (1, 2), frozenset({(1, 2)}))
        inst, rep = clique_to_abd(g)
        assert rep.output_vars == 4 and rep.added_vars == 2
        assert oracle_abd(inst).answer

    def test_two_colors_missing_edge(self):
        g = ColoredGraph(2, 2, (1, 2), frozenset())
        inst, _rep = clique_to_abd(g)
        assert not oracle_abd(inst).answer

    def test_singleton(self):
        g = ColoredGraph(1, 1, (1,), frozenset())
        inst, _rep = clique_to_abd(g)
        assert oracle_abd(inst).answer  # one vertex is a colorful clique

    def test_random_graphs_match_bruteforce(self):
        for seed in range(25):
            g = gen_colored_graph(2 + seed % 2, 2, seed, edge_prob=0.4)
            inst, rep = clique_to_abd(g)
            assert rep.output_vars == g.num_vertices + g.num_colors
            want = colorful_clique_exists(g)
            assert oracle_abd(inst).answer == want
            assert oracle_pabd(inst).answer == want


class TestQbfToAbd:
    def test_spec_worked_example(self):
        # exists x forall y . (x and not y) or (x and y): true at x=1
        q = QbfInstance(1, 1, ((1, -2), (1, 2)))
        assert qbf_truth(q)
        inst, rep = qbf_to_abd4cnf(q)
        assert rep.added_vars == 1 and inst.num_vars == 3
        scopes = {(tuple(c.scope), c.relation) for c in inst.kb.constraints}
        assert len(inst.kb.constraints) == 4  # tautologies dropped
        assert oracle_abd(inst).answer

    def test_false_qbf(self):
        q = QbfInstance(1, 1, ((1, -2),))
        assert not qbf_truth(q)
        inst, _rep = qbf_to_abd4cnf(q)
        assert not oracle_abd(inst).answer

    def test_empty_matrix_is_false(self):
        q = QbfInstance(1, 1, ())
        assert not qbf_truth(q)
        inst, _rep = qbf_to_abd4cnf(q)
        assert not oracle_abd(inst).answer

    def test_empty_x_tautologous_matrix(self):
        q = QbfInstance(0, 1, ((1,), (-1,)))
        assert qbf_truth(q)
        inst, _rep = qbf_to_abd4cnf(q)
        assert oracle_abd(inst).answer

    def test_width_stays_at_most_four(self):
        for seed in range(20):
            q = gen_qbf_instance(2, 2, 3, seed)
            inst, _rep = qbf_to_abd4cnf(q)
            assert all(c.relation.arity <= 4 for c in inst.kb.constraints)

    def test_exhaustive_small_box(self):
        lits = [1, -1, 2, -2]
        term_pool = [t for size in (1, 2)
                     for t in itertools.combinations(lits, size)
                     if not any(-l in t for l in t)]
        checked = 0
        for num_terms in (1, 2):
            for terms in itertools.combinations(term_pool, num_terms):
                q = QbfInstance(1, 1, terms)
                inst, _rep = qbf_to_abd4cnf(q)
                assert oracle_abd(inst).answer == qbf_truth(q), terms
                checked += 1
        assert checked > 30


class TestAbdToPabd:
    def test_complement_pairs_added(self):
        inst = inst_of(2, [(clause_relation((0, 1)), (1, 2))], {1}, {2})
        out, rep = abd_to_pabd_4cnf(inst)
        assert rep.added_vars == 1 and out.num_vars == 3
        assert frozenset({1, 3}) <= out.hypotheses

    def test_empty_h_unchanged_answer(self):
        inst = inst_of(2, [(clause_relation((0,)), (2,))], set(), {2})
        out, _rep = abd_to_pabd_4cnf(inst)
        assert oracle_pabd(out).answer == oracle_abd(inst).answer

    def test_witness_mapping(self):
        inst = inst_of(3, [(clause_relation((0, 0)), (2, 3)),
                           (clause_relation((1, 0)), (1, 3))], {1, 2}, {3})
        out, rep = abd_to_pabd_4cnf(inst)
        prime = {int(k): v for k, v in rep.notes["prime_of"].items()}
        res = oracle_pabd(out)
        assert res.answer == oracle_abd(inst).answer
        if res.answer:
            lits = res.witness.literals
            mapped = frozenset(l for l in lits if l in inst.hypotheses) | \
                frozenset(-h for h, hp in prime.items() if hp in lits)
            from abductor.core import is_explanation
            assert is_explanation(inst, mapped)

    def test_preservation_sweep(self):
        for seed in range(25):
            inst = gen_2cnf(4 + seed % 3, seed)
            out, _rep = abd_to_pabd_4cnf(inst)
            assert oracle_pabd(out).answer == oracle_abd(inst).answer, f"seed {seed}"


class TestEliminateConstants:
    def _with_constants(self, base, pins):
        cons = list(base.kb.constraints) + \
            [Constraint(BOT if val == 0 else TOP, (v,)) for v, val in pins]
        return AbductionInstance(Formula(base.num_vars, cons),
                                 base.hypotheses, base.manifestations)

    def test_scaffold_only(self):
        inst = gen_nae3(4, 1)
        out, rep = eliminate_constants(inst)
        assert rep.added_vars == 2
        assert oracle_abd(out).answer == oracle_abd(inst).answer
        assert oracle_pabd(out).answer == oracle_pabd(inst).answer

    def test_with_pinned_variables(self):
        for seed in range(15):
            base = gen_nae3(4, seed)
            # guarantee a qualifying relation: the even-sign NAE avoids both
            # constant tuples (mixed sign patterns contain them)
            cons = base.kb.constraints + (Constraint(nae((0, 0, 0)), (1, 2, 3)),)
            base = AbductionInstance(Formula(base.num_vars, cons),
                                     base.hypotheses, base.manifestations)
            probe = self._with_constants(base, [(1, 0), (2, 1)])
            out, rep = eliminate_constants(probe)
            assert rep.added_vars == 2
            assert out.num_vars == probe.num_vars + 2
            assert oracle_abd(out).answer == oracle_abd(probe).answer, f"seed {seed}"
            assert oracle_pabd(out).answer == oracle_pabd(probe).answer, f"seed {seed}"
            assert not any(c.relation in (BOT, TOP) for c in out.kb.constraints)

    def test_precondition_failure(self):
        from abductor.langlib import LanguageError
        inst = inst_of(2, [(parity(2, 0), (1, 2)), (BOT, (1,))], {1}, {2})
        with pytest.raises(LanguageError):
            eliminate_constants(inst)


class TestKcnfToNae:
    def test_clause_encoding(self):
        # (x or not y) with V0 = 0 matches the clause's satisfying set
        inst = inst_of(2, [(clause_relation((0, 1)), (1, 2))], {1}, {2})
        out, rep = kcnf_to_nae(inst)
        assert rep.added_vars == 2 and out.num_vars == 4
        con = out.kb.constraints[0]
        assert con.relation == nae((0, 1, 0)) and con.scope == (1, 2, 3)

    def test_preservation_on_2cnf(self):
        for seed in range(25):
            inst = gen_2cnf(4 + seed % 3, seed + 100)
            out, _rep = kcnf_to_nae(inst)
            assert oracle_abd(out).answer == oracle_abd(inst).answer, f"seed {seed}"
            assert oracle_pabd(out).answer == oracle_pabd(inst).answer, f"seed {seed}"

    def test_empty_kb_scaffold(self):
        inst = inst_of(1, [(clause_relation((0,)), (1,))], {1}, set())
        out, _rep = kcnf_to_nae(inst)
        assert oracle_abd(out).answer == oracle_abd(inst).answer


class TestCnfSatToAbd:
    def test_single_positive_unit(self):
        phi = CnfFormula(1, ((1,),))
        inst, rep = cnfsat_to_abd_lb(phi)
        assert rep.output_vars == 3 and rep.notes["H"] == 2 and rep.notes["M"] == 1
        assert oracle_abd(inst).answer

    def test_unsat_source(self):
        phi = CnfFormula(1, ((1,), (-1,)))
        inst, _rep = cnfsat_to_abd_lb(phi)
        assert not oracle_abd(inst).answer

    def test_random_cnf_sweep(self):
        for seed in range(30):
            phi = gen_cnf_formula(2 + seed % 3, 2 + seed % 4, 3, seed)
            inst, rep = cnfsat_to_abd_lb(phi)
            assert rep.output_vars == 3 * phi.num_vars
            want = phi.satisfiable()
            assert oracle_abd(inst).answer == want, f"seed {seed}"
            assert oracle_pabd(inst).answer == want, f"seed {seed}"


class TestAbd2CnfToCnfSat:
    def test_merged_clause(self):
        inst = inst_of(3, [(clause_relation((0, 0)), (1, 3)),
                           (clause_relation((0, 0)), (2, 3))], {1, 2}, {3})
        out, rep = abd2cnf_to_cnfsat(inst)
        assert (1, 2) in out.clauses and rep.notes["merged"] == 1

    def test_unexplainable_manifestation_gives_empty_clause(self):
        # m = 1 only ever appears negatively: nothing can entail it
        inst = inst_of(2, [(clause_relation((1, 0)), (1, 2))], {2}, {1})
        out, _rep = abd2cnf_to_cnfsat(inst)
        assert () in out.clauses and not out.satisfiable()
        assert not oracle_abd(inst).answer

    def test_clause_budget(self):
        for seed in range(20):
            inst = gen_2cnf(5, seed)
            out, _rep = abd2cnf_to_cnfsat(inst)
            assert len(out.clauses) <= inst.num_vars ** 2

    def test_documented_disagreement_exists(self):
        # (x -> m) with H empty: the merged clause (x) is satisfiable although
        # nothing explains m; the construction is logged, not trusted
        inst = inst_of(2, [(IMP_REL, (1, 2))], set(), {2})
        out, _rep = abd2cnf_to_cnfsat(inst)
        assert out.satisfiable() and not oracle_abd(inst).answer

    def test_rejects_wider_clauses(self):
        inst = inst_of(3, [(clause_relation((0, 0, 0)), (1, 2, 3))], {1}, {2})
        with pytest.raises(FragmentError):
            abd2cnf_to_cnfsat(inst)


def test_cnfsat_empty_clause_has_no_explanation():
    """An empty clause makes the formula unsatisfiable; the construction
    keeps it as the 0-ary false constraint, so no explanation exists."""
    phi = CnfFormula(2, ((1, 2), ()))
    assert not phi.satisfiable()
    out, _rep = cnfsat_to_abd_lb(phi)
    assert not oracle_abd(out).answer and not oracle_pabd(out).answer


def test_abd2cnf_keeps_a_dense_2cnf():
    """Over n variables there are 2n^2 distinct clauses of width <= 2, so an
    input may hold more than n^2 of them; the output is bounded by the
    input's clauses plus one merged clause per manifestation."""
    cons = [(clause_relation((0,)), (1,)), (clause_relation((0,)), (2,)),
            (clause_relation((0, 0)), (1, 2)), (clause_relation((1, 0)), (1, 2)),
            (clause_relation((1, 1)), (1, 2))]
    out, rep = abd2cnf_to_cnfsat(inst_of(2, cons, {1}, ()))
    assert out.clauses == ((1,), (2,), (1, 2), (-1, 2), (-1, -2))
    assert rep.output_constraints == 5 and not out.satisfiable()
