import dataclasses
import itertools

import pytest

from abductor.core import (AbductionInstance, Constraint, Formula, Relation,
                           StructureError, TRIVIALLY_NO, TRIVIALLY_REDUCED,
                           UNCHANGED, BOT, TOP, decode_tuple, encode_tuple,
                           entails, evaluate, formula, is_explanation,
                           literal_masks, preprocess)
from abductor.harness import io, verify
from abductor.langlib import clause_relation, one_in_k
from abductor.satenum import compile_kb, decide
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

    def test_table_terms_are_a_direct_scan(self):
        """On all 278 relations of arity <= 3, table_terms lists the member
        tuples, or the missing ones with flip set when more than half of
        {0,1}^k is in the relation; it is computed once."""
        count = 0
        for k in range(4):
            for members in itertools.product((0, 1), repeat=1 << k):
                rel = Relation(k, tuple(c for c, keep in enumerate(members) if keep))
                flip = 2 * sum(members) > 1 << k
                terms = tuple(decode_tuple(c, k) for c in range(1 << k) if members[c] != flip)
                assert rel.table_terms == (flip, terms), rel
                assert rel.table_terms is rel.__dict__["table_terms"]
                count += 1
        assert count == 278

    def test_derived_facts_stay_out_of_eq_hash_and_fields(self):
        fresh = clause_relation((0, 1))
        warm = Relation(2, fresh.codes, "CL01")
        assert warm.clause_signs == (0, 1) and warm.table_terms == (True, ((0, 1),))
        assert [f.name for f in dataclasses.fields(Relation)] == [
            "arity", "codes", "name", "_codeset"]
        assert warm == fresh and hash(warm) == hash(Relation(2, fresh.codes))
        assert repr(warm) == "Relation(arity=2, codes=(0, 1, 3), name='CL01')"


class TestEvaluate:
    def test_neq_examples(self):
        neq = one_in_k(2)
        phi = formula(2, [(neq, (1, 2))])
        assert evaluate(phi, encode_tuple((0, 1)))
        assert not evaluate(phi, encode_tuple((1, 1)))

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
        for lits in ([1, -2], [1, 2], [-1, -2], [2]):
            public = Formula(2, phi.constraints + tuple(
                Constraint(TOP if l > 0 else BOT, (abs(l),)) for l in lits))
            assert decide(compile_kb(phi), *literal_masks(lits)) is bool(brute_models(public)), lits

    def test_literal_out_of_range(self):
        with pytest.raises(StructureError):
            decide(compile_kb(formula(1, [])), *literal_masks([2]))

    @pytest.mark.parametrize("lit", [0, 4, -4])
    def test_literal_zero_or_past_num_vars(self, lit):
        kb = compile_kb(formula(3, [(one_in_k(2), (1, 2))]))
        with pytest.raises(StructureError):
            decide(kb, *literal_masks([1, lit]))
        # also after a literal that clashes with the first, and on a KB that
        # conflicts at its root
        with pytest.raises(StructureError):
            decide(kb, *literal_masks([1, -1, lit]))
        with pytest.raises(StructureError):
            decide(compile_kb(formula(3, [(Relation(2, ()), (1, 2))])), *literal_masks([lit]))

    @pytest.mark.parametrize("m", [0, 4, -1])
    def test_entails_manifestation_out_of_range(self, m):
        kb = compile_kb(formula(3, [(one_in_k(2), (1, 2))]))
        with pytest.raises(StructureError):
            entails(kb, 0, 0, [m], decide)

    def test_extended_formula_equals_the_public_constructor(self):
        """entails asks the SAT callback KB ∧ E ∧ ¬m as the masks of E with
        m's bit added to the negated ones, and decide on the compiled KB with
        those masks answers as a fresh compile of the public formula with one
        TOP/BOT unit per literal."""
        phi = formula(3, [(one_in_k(2), (1, 2)), (clause_relation((0, 1)), (2, 3))])
        kb = compile_kb(phi)
        seen = []
        assert not entails(kb, *literal_masks([1]), [3, 2],
                           lambda k, pos, neg: seen.append((k, pos, neg)) or True)
        assert seen == [(kb, *literal_masks([1, -3]))]
        public = Formula(3, phi.constraints + (Constraint(TOP, (1,)), Constraint(BOT, (3,))))
        assert decide(kb, *literal_masks([1, -3])) is decide(compile_kb(public))

    def test_compiled_base_leaves_equality_repr_and_text_alone(self):
        kb = formula(3, [(one_in_k(2), (1, 2)), (clause_relation((0, 1)), (2, 3))])
        public = Formula(3, kb.constraints + (Constraint(TOP, (1,)), Constraint(BOT, (3,))))
        text = io.write_text(AbductionInstance(kb, frozenset({1, 3}), frozenset({2})))
        brute_models.cache_clear()
        models = brute_models(kb)
        assert decide(compile_kb(kb), *literal_masks([1, -3])) == decide(compile_kb(public))
        assert is_explanation(AbductionInstance(kb, frozenset({1, 3}), frozenset({2})), {-1})
        again = formula(3, [(one_in_k(2), (1, 2)), (clause_relation((0, 1)), (2, 3))])
        assert kb == again and hash(kb) == hash(again) and repr(kb) == repr(again)
        assert (io.write_text(AbductionInstance(kb, frozenset({1, 3}), frozenset({2})))
                == text)
        assert brute_models(again) == models
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

    @staticmethod
    def reference(inst: AbductionInstance) -> tuple[str, AbductionInstance | None, frozenset]:
        """The three rules over var(KB), as sets: (verdict, instance,
        self-explained), with no instance for a trivially-no verdict."""
        used = inst.kb.used_vars()
        hyp, man = inst.hypotheses, inst.manifestations
        if man - used - hyp:
            return TRIVIALLY_NO, None, frozenset()
        self_explained = (man & hyp) - used
        verdict = TRIVIALLY_REDUCED if hyp - used else UNCHANGED
        return (verdict, AbductionInstance(inst.kb, hyp & used, man - self_explained),
                self_explained)

    def test_normalised_instances_come_back_as_they_are(self):
        """preprocess hands back the very instance exactly when H ∪ M ⊆
        var(KB), and otherwise gives what the three rules give."""
        counts = {TRIVIALLY_NO: 0, TRIVIALLY_REDUCED: 0, UNCHANGED: 0}
        for inst in itertools.chain(verify.preprocess_audit_instances(),
                                    verify.exhaustive_instances()):
            res = preprocess(inst)
            inside = inst.hypotheses | inst.manifestations <= inst.kb.used_vars()
            assert (res.instance is inst) == inside == (res.verdict == UNCHANGED), inst
            verdict, want, self_explained = self.reference(inst)
            assert res.verdict == verdict, inst
            if verdict != TRIVIALLY_NO:
                assert (res.instance, res.self_explained) == (want, self_explained), inst
            counts[verdict] += 1
        assert all(counts.values()), counts
