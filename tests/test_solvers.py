import sys

import pytest

from abductor.core import (AbductionInstance, Relation, BOT, TOP, TRIVIALLY_NO,
                           FragmentError, formula, is_explanation, preprocess)
from abductor.langlib import clause_relation, one_in_k
from abductor.satenum import ModelStream, EnumStats, enumerate_models
from abductor import solvers
from abductor.solvers import (OracleCapError, OrderingContractError, PabdAudit,
                              abd_kcnf_pos, baseline_abd, enum_abd, oracle_abd,
                              oracle_full_explanations, oracle_pabd,
                              oracle_positive_explanations, pabd_enum,
                              pabd_one_valid, pabd_recursive)
from abductor.harness import io, verify
from abductor.harness.cli import main as cli_main
from abductor.harness.generators import (gen_2cnf, gen_aff, gen_equations,
                                         gen_kcnf_neg_imp, gen_kcnf_pos,
                                         gen_nae3, gen_xsat, gen_xsat_chain)

from oracle_general import oracle_abd_general
from test_core import example1_instance


def alg3_killer() -> AbductionInstance:
    # one bad model at weight 2 and one good model at weight 0, with no
    # models at weight 1: the literal discard propagation stalls
    rel = Relation.from_tuples(3, [(1, 1, 0), (0, 0, 1)])
    return AbductionInstance(formula(3, [(rel, (1, 2, 3))]),
                             frozenset({1, 2}), frozenset({3}))


def alg2_killer() -> AbductionInstance:
    # the bad pattern {1,2} is never visited before {1} along the recursion
    # order, so the unverified accept of the published recursion fires
    rel = Relation.from_tuples(4, [(1, 1, 0, 0), (1, 0, 0, 1)])
    return AbductionInstance(formula(4, [(rel, (1, 2, 3, 4))]),
                             frozenset({1, 2, 3}), frozenset({4}))


def results(inst):
    """(row name, AbdResult) of every solvers.ENGINES row that applies to inst."""
    return [(e.name, e.run(inst)[0]) for e in solvers.ENGINES
            if e.applies is None or e.applies(inst)]


class TestExample1:
    def test_all_solvers_say_yes(self):
        for name, res in results(example1_instance()):
            assert res.answer, name

    def test_enum_abd_full_set_contains_e1(self):
        _, eset = enum_abd(example1_instance())
        assert frozenset({1, -4, -5}) in eset.explanations
        assert eset.explanations == oracle_full_explanations(example1_instance())

    def test_pabd_enum_maximal_set_covers_e2(self):
        inst = example1_instance()
        assert is_explanation(inst, {1, 4})
        _, pset = pabd_enum(inst)
        assert any(frozenset({1, 4}) <= e for e in pset.explanations)
        _, maximal = oracle_positive_explanations(inst)
        assert pset.explanations == maximal

    def test_witnesses_are_explanations(self):
        inst = example1_instance()
        for name, res in results(inst):
            assert res.witness is not None, name
            assert is_explanation(inst, res.witness.literals), name


class TestPublishedAlgorithmGaps:
    """Regression instances on which the verbatim published procedures accept
    a non-explanation; the shipped solvers must match the oracle."""

    def test_weight_ordered_discard_stall(self):
        inst = alg3_killer()
        assert not oracle_pabd(inst).answer
        res, eset = pabd_enum(inst)
        assert not res.answer and not eset.explanations

    def test_recursive_unverified_accept(self):
        inst = alg2_killer()
        assert not oracle_pabd(inst).answer
        assert not pabd_recursive(inst).answer

    def test_verbatim_discard_set_would_accept(self):
        # document the stall: after the bad weight-2 model, the weight-0
        # model's pattern is not in the one-step discard set
        inst = alg3_killer()
        discarded = {0b11, 0b01, 0b10}  # bad pattern and its immediate subsets
        assert 0b00 not in discarded


ORACLES = (oracle_abd, oracle_pabd, oracle_full_explanations,
           oracle_positive_explanations, solvers.explained)


class TestOracles:
    def test_cap_enforced(self):
        inst = gen_xsat(21, 0)
        with pytest.raises(OracleCapError):
            oracle_abd(inst)

    def test_hypothesis_cap_enforced(self, tmp_path, capsys):
        # n = 18 is under the cap on n; H = 1..17 is inside var(KB)
        or2 = clause_relation((0, 0), "OR2")
        kb = formula(18, [(or2, (v, v + 1)) for v in range(1, 18)])
        inst = AbductionInstance(kb, frozenset(range(1, 18)), frozenset({18}))
        for oracle in ORACLES:
            with pytest.raises(OracleCapError, match=r"\|H\|=17 exceeds oracle cap 16"):
                oracle(inst)
        path = tmp_path / "wide.abd"
        io.write(inst, str(path))
        assert cli_main(["solve", str(path), "--algo", "oracle", "--mode", "abd"]) == 2
        assert "error: |H|=17 exceeds oracle cap 16" in capsys.readouterr().err

    def test_one_table_lookup_per_call(self, monkeypatch):
        brute_models, lookups = solvers.brute_models, []

        def counting(phi):
            lookups.append(phi)
            return brute_models(phi)

        monkeypatch.setattr(solvers, "brute_models", counting)
        inst = example1_instance()
        for oracle in ORACLES:
            lookups.clear()
            oracle(inst)
            assert lookups == [inst.kb], oracle.__name__

    def test_extension_property_on_pool_sample(self):
        import itertools
        count = 0
        for inst in itertools.islice(verify.exhaustive_instances(), 0, 2000, 7):
            assert oracle_abd(inst).answer == oracle_abd_general(inst)
            count += 1
        assert count > 200

    def test_pabd_oracle_witness_maximal(self):
        inst = example1_instance()
        res = oracle_pabd(inst)
        assert res.witness.literals == frozenset({1, 4, 5})


class TestExplanationSets:
    @staticmethod
    def literal_objects(sets) -> int:
        return len({id(lit) for e in sets for lit in e})

    def test_the_sets_share_their_literal_objects(self):
        """On an xsat chain, enum_abd's set is the oracle's, and each holds
        at most one object per literal over H."""
        inst = gen_xsat_chain(8)
        _, eset = enum_abd(inst)
        oracle = oracle_full_explanations(inst)
        assert eset.explanations == oracle and len(oracle) == 128
        for sets in (eset.explanations, oracle):
            assert self.literal_objects(sets) <= 2 * len(inst.hypotheses)


class TestEmptyEdges:
    def test_empty_hypotheses_kb_entails(self):
        # KB forces m true, H empty: E = {} explains
        kb = formula(2, [(TOP, (2,)), (one_in_k(2), (1, 2))])
        inst = AbductionInstance(kb, frozenset(), frozenset({2}))
        for name, res in results(inst):
            assert res.answer, name

    def test_empty_hypotheses_kb_does_not_entail(self):
        kb = formula(2, [(one_in_k(2), (1, 2))])
        inst = AbductionInstance(kb, frozenset(), frozenset({2}))
        assert not baseline_abd(inst).answer
        assert not pabd_recursive(inst).answer

    def test_empty_manifestations(self):
        kb = formula(2, [(one_in_k(2), (1, 2))])
        inst = AbductionInstance(kb, frozenset({1}), frozenset())
        assert oracle_abd(inst).answer and pabd_enum(inst)[0].answer

    def test_descent_to_empty_candidate(self):
        # only E = {} works: H inconsistent with KB, M entailed by KB alone
        kb = formula(2, [(BOT, (1,)), (TOP, (2,))])
        inst = AbductionInstance(kb, frozenset({1}), frozenset({2}))
        res = pabd_recursive(inst)
        assert res.answer and res.witness.literals == frozenset()

    def test_unsat_kb_all_no(self):
        kb = formula(2, [(Relation(2, ()), (1, 2))])
        inst = AbductionInstance(kb, frozenset({1}), frozenset({2}))
        for name, res in results(inst):
            assert not res.answer, name


class TestPabdRecursiveContract:
    def test_subset_visit_audit(self):
        for seed in range(10):
            inst = gen_nae3(7, seed)
            audit = PabdAudit()
            res = pabd_recursive(inst, audit=audit)
            h = len(inst.hypotheses)
            assert audit.duplicate_visits == 0
            assert len(audit.visited) <= 1 << h
            assert res.stats.max_depth <= h + 1
            assert audit.max_frame_cells <= h

    def test_deep_descent_does_not_overflow(self):
        # NOR2 chain, H = every variable, M empty: {i..n} has no model until
        # i = n, so the descent goes one level deeper per hypothesis
        n = 400
        nor2 = Relation(2, (0, 1, 2))  # not both
        kb = formula(n, [(nor2, (i, i + 1)) for i in range(1, n)])
        inst = AbductionInstance(kb, frozenset(range(1, n + 1)), frozenset())
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            res = pabd_recursive(inst)
        finally:
            sys.setrecursionlimit(limit)
        assert res.answer and res.witness.literals == {n}
        assert res.stats.max_depth == n

    def test_exhaustive_descent_visits_every_subset(self):
        # an unsatisfiable KB never fires either pruning test, forcing the
        # full lexicographic traversal (each subset exactly once)
        kb = formula(2, [(Relation(2, ()), (1, 2))])
        inst = AbductionInstance(kb, frozenset({1, 2}), frozenset())
        audit = PabdAudit()
        assert not pabd_recursive(inst, audit=audit).answer
        assert audit.visited == {frozenset(), frozenset({1}), frozenset({2}),
                                 frozenset({1, 2})}
        assert audit.duplicate_visits == 0


class TestPabdEnumContract:
    def test_rejects_unordered_stream(self):
        inst = example1_instance()
        stream = enumerate_models(inst.kb)  # unordered tag
        with pytest.raises(OrderingContractError):
            pabd_enum(inst, stream=stream)

    def test_detects_weight_violation(self):
        inst = example1_instance()
        models = sorted(enumerate_models(inst.kb))  # ascending, so weight increases
        lying = ModelStream(iter(models), EnumStats(), "non-increasing-w_H")
        with pytest.raises(OrderingContractError):
            pabd_enum(inst, stream=lying)


class TestFragmentSolvers:
    def test_one_valid_requires_one_valid_language(self):
        inst = AbductionInstance(formula(1, [(BOT, (1,))]),
                                 frozenset(), frozenset({1}))
        with pytest.raises(FragmentError):
            pabd_one_valid(inst)

    def test_one_valid_agreement(self):
        for seed in range(40):
            inst = gen_kcnf_pos(8, seed, k=3)
            assert pabd_one_valid(inst).answer == oracle_pabd(inst).answer

    def test_one_valid_witness_is_h(self):
        inst = gen_kcnf_pos(6, 3, k=2)
        res = pabd_one_valid(inst)
        if res.answer:
            assert res.witness.literals == preprocessed_h(inst)

    def test_kcnf_pos_agreement(self):
        for seed in range(60):
            inst = gen_kcnf_pos(8, seed, k=3 if seed % 2 else 2)
            assert abd_kcnf_pos(inst).answer == oracle_abd(inst).answer

    def test_kcnf_pos_witness_sound(self):
        for seed in range(20):
            inst = gen_kcnf_pos(7, seed, k=2)
            res = abd_kcnf_pos(inst)
            if res.answer:
                assert is_explanation(inst, res.witness.literals)
                assert all(l < 0 for l in res.witness.literals)

    def test_kcnf_pos_rejects_other_fragments(self):
        inst = gen_nae3(5, 0)
        with pytest.raises(FragmentError):
            abd_kcnf_pos(inst)

    def test_trivially_no_outside_the_fragments(self):
        """A row with `applies` checks it before preprocessing, so both
        fragment rows raise on a trivially-no instance outside their
        fragment."""
        nor2 = clause_relation((1, 1))
        inst = AbductionInstance(formula(3, [(nor2, (1, 2))]), frozenset({1}), frozenset({3}))
        assert preprocess(inst).verdict == TRIVIALLY_NO
        for solve in (pabd_one_valid, abd_kcnf_pos):
            with pytest.raises(FragmentError):
                solve(inst)

    @pytest.mark.parametrize("pool, selected", [
        ("exhaustive_instances", {"one-valid": 1107, "simplesat": 189}),
        ("preprocess_audit_instances", {"one-valid": 1792, "simplesat": 736}),
    ])
    def test_engine_predicates_match_their_solvers(self, pool, selected):
        """A row's solver raises FragmentError iff its `applies` is false;
        the counts pin the instances check_solvers runs it on."""
        insts = list(getattr(verify, pool)())
        counts = {}
        for e in (e for e in solvers.ENGINES if e.applies is not None):
            counts[e.name] = sum(map(e.applies, insts))
            for inst in insts:
                try:
                    e.run(inst)
                except FragmentError:
                    assert not e.applies(inst), (e.name, io.write_text(inst))
                else:
                    assert e.applies(inst), (e.name, io.write_text(inst))
        assert counts == selected

    def test_engine_declarations_are_unique(self):
        """cmd_solve runs the first row of a (mode, algo) pair, so a second
        declaration of a name or a pair would be hidden."""
        names = [e.name for e in solvers.ENGINES]
        pairs = [(e.mode, e.algo) for e in solvers.ENGINES]
        assert len(set(names)) == len(names) and len(set(pairs)) == len(pairs)

    def test_every_engine_names_its_result(self):
        """Every ENGINES row's result carries the row's name, on a yes, a no
        and a trivially-no instance of positive clauses, which every row's
        solver accepts; a row's explanation set is empty on the last."""
        clause = clause_relation((0, 0))
        chain = formula(3, [(clause, (1, 2)), (clause, (2, 3))])
        cases = {
            True: AbductionInstance(formula(3, [(TOP, (3,)), (clause, (1, 2))]),
                                    frozenset({1, 2}), frozenset({3})),
            False: AbductionInstance(chain, frozenset({1}), frozenset({3})),
            "trivially-no": AbductionInstance(formula(3, [(clause, (1, 2))]),
                                              frozenset({1}), frozenset({3})),
        }
        for want, inst in cases.items():
            assert (preprocess(inst).verdict == TRIVIALLY_NO) is (want == "trivially-no")
            for e in solvers.ENGINES:
                res, eset = e.run(inst)
                assert res.algorithm == e.name, (res.algorithm, want)
                assert res.answer is (want is True), (e.name, want)
                if want == "trivially-no" and e.explanations:
                    assert eset.explanations == frozenset(), e.name


class TestRandomAgreement:
    FAMILIES = [gen_xsat, gen_equations, gen_aff, gen_kcnf_pos,
                gen_kcnf_neg_imp, gen_nae3, gen_2cnf]

    def test_solver_oracle_agreement(self):
        failures = []
        for gen in self.FAMILIES:
            for seed in range(12):
                inst = gen(4 + seed % 5, seed)
                failures += [f"{gen.__name__}/{seed}: {f.kind} {f.detail}"
                             for f in verify.check_solvers(inst)]
        assert not failures, failures


def preprocessed_h(inst):
    from abductor.core import preprocess
    return frozenset(preprocess(inst).instance.hypotheses)
