import itertools

import pytest

from abductor.core import (AbductionInstance, Constraint, Formula, Relation,
                           StructureError, TRIVIALLY_NO, TRIVIALLY_REDUCED,
                           UNCHANGED, BOT, TOP, assignment_from_values,
                           conjoin_literals, entails, evaluate, formula,
                           is_explanation, preprocess)
from abductor.langlib import clause_relation, one_in_k
from abductor.satenum import decide
from abductor.solvers import brute_models


def example1_instance() -> AbductionInstance:
    # A=1 B=2 C=3 D=4 E=5
    kb = formula(5, [
        (clause_relation((1, 1, 0)), (1, 2, 3)),  # A and B imply C
        (clause_relation((1, 0)), (4, 2)),        # D implies B
        (clause_relation((0, 0)), (5, 3)),        # not E implies C
        (clause_relation((0, 1)), (5, 4)),        # not E implies not D
    ])
    return AbductionInstance(kb, frozenset({1, 4, 5}), frozenset({3}))


def naive_evaluate(phi: Formula, sigma: int) -> bool:
    vals = {v: (sigma >> (v - 1)) & 1 for v in range(1, phi.num_vars + 1)}
    for con in phi.constraints:
        if tuple(vals[v] for v in con.scope) not in con.relation.tuples():
            return False
    return True


class TestRelation:
    def test_canonical_codes(self):
        r = Relation.from_tuples(2, [(1, 0), (0, 1), (1, 0)])
        assert r.codes == (1, 2)
        assert len(r) == 2 and not r.is_trivial

    def test_zero_ary_constants(self):
        from abductor.core import FALSE0, TRUE0
        assert FALSE0.is_empty and not TRUE0.is_empty
        assert TRUE0.is_trivial

    def test_bad_tuple_length(self):
        with pytest.raises(StructureError):
            Relation.from_tuples(2, [(0, 1, 1)])

    def test_name_ignored_in_equality(self):
        assert Relation(2, (1, 2), "a") == Relation(2, (1, 2), "b")


class TestEvaluate:
    def test_neq_examples(self):
        neq = one_in_k(2)
        phi = formula(2, [(neq, (1, 2))])
        assert evaluate(phi, assignment_from_values((0, 1)))
        assert not evaluate(phi, assignment_from_values((1, 1)))

    def test_example1_all_ones(self):
        inst = example1_instance()
        assert evaluate(inst.kb, 0b11111)

    def test_scope_out_of_range_rejected(self):
        with pytest.raises(StructureError):
            formula(1, [(one_in_k(2), (1, 2))])

    def test_agrees_with_naive_check_exhaustively(self):
        rels = [one_in_k(2), clause_relation((0, 1)), clause_relation((1, 1, 0)),
                Relation.from_tuples(3, [(1, 1, 0), (0, 0, 1)])]
        phi = formula(4, [(rels[0], (1, 2)), (rels[1], (2, 3)),
                          (rels[2], (1, 3, 4)), (rels[3], (4, 2, 1))])
        for sigma in range(1 << 4):
            assert evaluate(phi, sigma) == naive_evaluate(phi, sigma)


class TestIsExplanation:
    def test_example1_full(self):
        inst = example1_instance()
        assert is_explanation(inst, {1, -4, -5})

    def test_example1_positive(self):
        inst = example1_instance()
        assert is_explanation(inst, {1, 4})

    def test_example1_buses_alone_fails(self):
        inst = example1_instance()
        assert not is_explanation(inst, {5})

    def test_literals_must_range_over_hypotheses(self):
        inst = example1_instance()
        with pytest.raises(StructureError):
            is_explanation(inst, {2})

    def test_inconsistent_literals_never_explain(self):
        inst = example1_instance()
        assert not is_explanation(inst, {1, -1})

    def test_matches_bruteforce_definition(self):
        inst = example1_instance()
        n = inst.num_vars
        models = [s for s in range(1 << n) if evaluate(inst.kb, s)]
        for lits in itertools.product(*[(h, -h, None) for h in sorted(inst.hypotheses)]):
            e = frozenset(l for l in lits if l is not None)
            sat_models = [s for s in models
                          if all(((s >> (abs(l) - 1)) & 1) == (l > 0) for l in e)]
            want = bool(sat_models) and all(
                (s >> 2) & 1 for s in sat_models)  # M = {3}
            assert is_explanation(inst, e) == want


class TestConjoin:
    def test_bot_top_constraints(self):
        phi = formula(2, [(one_in_k(2), (1, 2))])
        forced = conjoin_literals(phi, {1, -2})
        assert forced.constraints[-2:] == (Constraint(TOP, (1,)), Constraint(BOT, (2,)))
        assert decide(forced) is False or decide(forced) is True  # total

    def test_literal_out_of_range(self):
        with pytest.raises(StructureError):
            conjoin_literals(formula(1, []), {2})

    @pytest.mark.parametrize("lit", [0, 4, -4])
    def test_literal_zero_or_past_num_vars(self, lit):
        with pytest.raises(StructureError):
            conjoin_literals(formula(3, [(one_in_k(2), (1, 2))]), {1, lit})

    @pytest.mark.parametrize("m", [0, 4])
    def test_entails_manifestation_out_of_range(self, m):
        phi = formula(3, [(one_in_k(2), (1, 2))])
        with pytest.raises(StructureError):
            entails(phi, [m], decide)

    def test_extended_formula_equals_the_public_constructor(self):
        phi = formula(3, [(one_in_k(2), (1, 2)), (clause_relation((0, 1)), (2, 3))])
        public = Formula(3, phi.constraints + (Constraint(TOP, (1,)), Constraint(BOT, (3,))))
        fast = conjoin_literals(phi, [1, -3])
        assert fast == public and hash(fast) == hash(public)
        seen = []
        entails(phi, [3], lambda f: seen.append(f) or True)
        public = Formula(3, phi.constraints + (Constraint(BOT, (3,)),))
        assert seen == [public] and hash(seen[0]) == hash(public)

    def test_extended_formula_hits_the_oracle_cache(self):
        phi = formula(3, [(one_in_k(2), (1, 2))])
        public = Formula(3, phi.constraints + (Constraint(TOP, (2,)),))
        brute_models.cache_clear()
        models = brute_models(public)
        assert brute_models(conjoin_literals(phi, [2])) == models
        assert brute_models.cache_info().hits == 1


class TestPreprocess:
    def test_unexplainable_outside_manifestation(self):
        kb = formula(3, [(one_in_k(2), (1, 2))])
        inst = AbductionInstance(kb, frozenset({1}), frozenset({3}))
        assert preprocess(inst).verdict == TRIVIALLY_NO

    def test_overlap_outside_kb_dropped_from_both(self):
        kb = formula(3, [(one_in_k(2), (1, 2))])
        inst = AbductionInstance(kb, frozenset({1, 3}), frozenset({3}))
        res = preprocess(inst)
        assert res.verdict == TRIVIALLY_REDUCED
        assert res.instance.hypotheses == frozenset({1})
        assert res.instance.manifestations == frozenset()

    def test_irrelevant_hypothesis_dropped(self):
        kb = formula(3, [(one_in_k(2), (1, 2))])
        inst = AbductionInstance(kb, frozenset({1, 3}), frozenset({2}))
        res = preprocess(inst)
        assert res.verdict == TRIVIALLY_REDUCED
        assert res.instance.hypotheses == frozenset({1})

    def test_fixed_point(self):
        inst = example1_instance()
        res = preprocess(inst)
        assert res.verdict == UNCHANGED and res.instance == inst

    def test_idempotent(self):
        kb = formula(4, [(one_in_k(2), (1, 2))])
        inst = AbductionInstance(kb, frozenset({1, 3, 4}), frozenset({2, 4}))
        once = preprocess(inst)
        twice = preprocess(once.instance)
        assert twice.instance == once.instance
        assert twice.verdict == UNCHANGED
