import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abductor.core import Relation, evaluate, formula
from abductor.langlib import (ConstraintLanguage, aff, branching_closure,
                              clause_relation, equations_family, imp, nae,
                              one_in_k, parity, xsat_family)
from abductor.satenum import (LanguageContractError, SimpleSatInstance,
                              WEIGHT_ORDERED, compile_kb, decide, enumerate_models,
                              enumerate_weight_ordered, hyp_mask,
                              solve_simple_sat, sparse_enumerate)
from abductor.harness.bench import fit_base, simplesat_hard_instance
from abductor.harness.generators import (gen_aff, gen_equations, gen_nae3,
                                         gen_xsat, gen_xsat_chain)
from simplesat_reference import reference_simple_sat

XSAT_LANG = branching_closure(xsat_family(3))


def brute_models(phi):
    return sorted(s for s in range(1 << phi.num_vars) if evaluate(phi, s))


def random_formula(n, seed):
    """Mixed-relation random formulas, including irregular explicit relations."""
    rng = random.Random(seed)
    pool = [one_in_k(2), one_in_k(3), parity(3, rng.randrange(2)),
            clause_relation((0, 1, 1)), clause_relation((0, 0)),
            nae((0, 1, 0)),
            Relation.from_tuples(3, rng.sample([t for t in
                [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]],
                rng.randint(1, 5)))]
    cons = []
    for _ in range(rng.randint(1, n // 2 + 2)):
        rel = rng.choice(pool)
        scope = tuple(rng.choices(range(1, n + 1), k=rel.arity))  # repeats allowed
        cons.append((rel, scope))
    return formula(n, cons)


class TestDecide:
    def test_diagonal_inequality_unsat(self):
        assert not decide(compile_kb(formula(1, [(one_in_k(2), (1, 1))])))

    def test_empty_formula_sat(self):
        assert decide(compile_kb(formula(3, [])))

    def test_example_like_conjunction(self):
        phi = formula(3, [(clause_relation((0, 0)), (1, 2)),
                          (one_in_k(2), (2, 3))])
        assert decide(compile_kb(phi))

    def test_agrees_with_bruteforce(self):
        for seed in range(80):
            phi = random_formula(6, seed)
            assert decide(compile_kb(phi)) == bool(brute_models(phi)), f"seed {seed}"


class TestEnumerate:
    def test_neq_two_models(self):
        assert len(list(enumerate_models(formula(2, [(one_in_k(2), (1, 2))])))) == 2

    def test_chain_model_count(self):
        for m in (1, 2, 3, 4, 5):
            inst = gen_xsat_chain(m)
            assert len(list(enumerate_models(inst.kb))) == 2 ** m

    def test_unsat_empty_stream(self):
        phi = formula(2, [(Relation(2, ()), (1, 2))])
        assert list(enumerate_models(phi)) == []

    def test_free_variables_expanded(self):
        phi = formula(4, [(one_in_k(2), (1, 2))])
        assert len(list(enumerate_models(phi))) == 2 * 4

    def test_set_equality_and_uniqueness(self):
        for seed in range(60):
            phi = random_formula(7, 1000 + seed)
            stream = enumerate_models(phi)
            got = list(stream)
            assert len(got) == len(set(got)), f"duplicates at seed {seed}"
            assert sorted(got) == brute_models(phi), f"seed {seed}"
            st = stream.stats
            assert 0 <= st.models_emitted <= st.leaves
            assert st.branch_nodes >= 0 and st.max_depth >= 0

    def test_total_leaves_stream_like_free_variables(self):
        # imp on (x, x) holds for either value but stays open until x is
        # set, so the search branches on x and never fails
        taut = imp()
        for n in range(5):
            free = enumerate_models(formula(n, []))
            half = enumerate_models(formula(n, [(taut, (n, n))] if n else []))
            total = enumerate_models(formula(n, [(taut, (v, v)) for v in range(1, n + 1)]))
            assert list(free) == list(half) == list(range(1 << n))
            assert list(total) == sorted(range(1 << n),
                                         key=lambda s: [s >> i & 1 for i in range(n)])
            for stream in (free, half, total):
                assert (stream.stats.leaves, stream.stats.models_emitted) == (1 << n, 1 << n)
            assert total.stats.branch_nodes == (1 << n) - 1
            assert half.stats.branch_nodes == min(n, 1)

    def test_stats_are_exact_mid_stream(self):
        # five independent X1OF2 pairs: each model is one root-to-leaf path
        # of five branch nodes, and the stats count what was pulled so far
        def stats(stream):
            st = stream.stats
            return st.branch_nodes, st.leaves, st.models_emitted, st.max_depth
        chain = formula(10, [(one_in_k(2), (2 * i - 1, 2 * i)) for i in range(1, 6)])
        stream = enumerate_models(chain)
        next(stream)
        assert stats(stream) == (5, 1, 1, 5)
        next(stream)
        assert stats(stream) == (5, 2, 2, 5)
        assert len(list(stream)) == 30
        assert stats(stream) == (31, 32, 32, 5)
        # an odd cycle of X1OF2 ends in two conflicts and yields nothing
        cycle = formula(3, [(one_in_k(2), (1, 2)), (one_in_k(2), (2, 3)),
                            (one_in_k(2), (1, 3))])
        stream = enumerate_models(cycle)
        assert list(stream) == []
        assert stats(stream) == (1, 2, 0, 1)


class TestDeepSearch:
    def test_long_implication_chain_does_not_overflow(self):
        # one branching level per variable: a recursive search would exceed
        # Python's default recursion limit long before depth 1200
        n = 1200
        kb = formula(n, [(imp(), (i, i + 1)) for i in range(1, n)])
        assert decide(compile_kb(kb))
        assert next(iter(enumerate_models(kb))) == 0

    def test_long_implication_chain_drains(self):
        # the models set a suffix x_i..x_n to 1, the shortest first: each of
        # x_1..x_{n-1} is branched on, x_i = 1 forces the rest of the chain,
        # and x_n is left free under x_{n-1} = 0
        n = 1200
        kb = formula(n, [(imp(), (i, i + 1)) for i in range(1, n)])
        stream = enumerate_models(kb)
        models = list(stream)
        full = (1 << n) - 1
        assert models == [full & ~((1 << i) - 1) for i in range(n, -1, -1)]
        assert stream.stats.as_dict() == {"branch_nodes": n - 1, "leaves": n + 1,
                                          "models_emitted": n + 1, "max_depth": n - 1}


class TestSparseEnumerate:
    def test_single_one_in_three_stats(self):
        phi = formula(3, [(one_in_k(3), (1, 2, 3))])
        stream = sparse_enumerate(phi, XSAT_LANG, r0=2)
        models = list(stream)
        assert len(models) == 3
        assert stream.stats.branch_nodes == 1
        assert stream.stats.leaves == 3
        assert stream.stats.models_emitted == 3

    def test_chain_counts_and_leaf_bound(self):
        for m in range(1, 9):
            inst = gen_xsat_chain(m)
            stream = sparse_enumerate(inst.kb, XSAT_LANG, r0=2)
            n = 2 * m
            assert len(list(stream)) == 2 ** m
            assert stream.stats.leaves <= n * n * math.sqrt(2) ** n

    def test_random_xsat_leaf_bound(self):
        for n in range(6, 25, 3):
            for seed in range(3):
                inst = gen_xsat(n, seed)
                stream = sparse_enumerate(inst.kb, XSAT_LANG, r0=2)
                list(stream)
                assert stream.stats.leaves <= n * n * math.sqrt(2) ** n

    def test_matches_generic_engine(self):
        cases = [(gen_xsat, XSAT_LANG), (gen_aff, branching_closure(aff(3))),
                 (gen_equations, branching_closure(equations_family(3, 4)))]
        for gen, lang in cases:
            for seed in range(12):
                inst = gen(7, seed)
                a = sorted(enumerate_models(inst.kb))
                b = sorted(sparse_enumerate(inst.kb, lang, r0=1))
                assert a == b

    def test_aff_matches_gaussian_count(self):
        for n in range(4, 17, 3):
            for seed in range(4):
                inst = gen_aff(n, seed)
                stream = sparse_enumerate(inst.kb, branching_closure(aff(3)), r0=1)
                assert len(list(stream)) == gauss_count(inst.kb)

    def test_tuple_rule_forces_no_unit(self):
        # after a branch on X1OF2(1,2), X1OF2(2,3) is a unit on x3: the tuple
        # rule branches on its one tuple where propagation would force it
        phi = formula(3, [(one_in_k(2), (1, 2)), (one_in_k(2), (2, 3))])
        sparse = sparse_enumerate(phi, branching_closure(ConstraintLanguage([one_in_k(2)])))
        assert list(sparse) == [0b101, 0b010]
        assert sparse.stats.as_dict() == {"branch_nodes": 3, "leaves": 2,
                                          "models_emitted": 2, "max_depth": 2}
        generic = enumerate_models(phi)
        assert list(generic) == [0b010, 0b101]
        assert generic.stats.as_dict() == {"branch_nodes": 1, "leaves": 2,
                                           "models_emitted": 2, "max_depth": 1}

    def test_a_branch_plan_is_reused_under_other_values(self):
        # X1OF2(3,4) is picked under x1 = 1 and again under x2 = 1, with x3, x4
        # unset both times: the second pick reuses the first's plan, whose
        # value offsets go on top of each parent's values
        phi = formula(4, [(one_in_k(2), (1, 2)), (one_in_k(2), (3, 4))])
        sparse = sparse_enumerate(phi, branching_closure(ConstraintLanguage([one_in_k(2)])))
        assert list(sparse) == [0b0101, 0b1001, 0b0110, 0b1010]
        assert sparse.stats.as_dict() == {"branch_nodes": 3, "leaves": 4,
                                          "models_emitted": 4, "max_depth": 2}

    def test_repeated_scope_collapsed(self):
        phi = formula(2, [(one_in_k(3), (1, 1, 2))])
        got = sorted(sparse_enumerate(phi, XSAT_LANG, r0=2))
        assert got == brute_models(phi) == [2]  # x=0, y=1

    def test_foreign_relation_rejected(self):
        phi = formula(2, [(clause_relation((0, 0)), (1, 2))])
        with pytest.raises(LanguageContractError):
            sparse_enumerate(phi, XSAT_LANG, r0=2)


def gauss_count(phi):
    """Model count of a parity system by elimination over GF(2)."""
    n = phi.num_vars
    rows = []
    for con in phi.constraints:
        mask, rhs = 0, None
        ones = bin(con.relation.codes[0]).count("1") if con.relation.codes else 0
        # recover q from the allowed weights of the symmetric relation
        weights = {bin(c).count("1") for c in con.relation.codes}
        rhs = min(weights) % 2
        for v in con.scope:
            mask ^= 1 << (v - 1)  # repeated variables cancel mod 2
        rows.append((mask, rhs))
    rank = 0
    for bit in range(n):
        pivot = next((i for i in range(rank, len(rows))
                      if rows[i][0] >> bit & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][0] >> bit & 1:
                rows[i] = (rows[i][0] ^ rows[rank][0], rows[i][1] ^ rows[rank][1])
        rank += 1
    if any(mask == 0 and rhs for mask, rhs in rows):
        return 0
    return 2 ** (n - rank)


class TestWeightOrdered:
    def test_weights_never_increase(self):
        for seed in range(20):
            inst = gen_nae3(6, seed)
            hmask = hyp_mask(inst.hypotheses)
            stream = enumerate_weight_ordered(inst.kb, inst.hypotheses)
            assert stream.ordering == WEIGHT_ORDERED
            ws = [(s & hmask).bit_count() for s in stream]
            assert ws == sorted(ws, reverse=True)

    def test_first_model_has_max_weight(self):
        inst = gen_xsat(6, 1)
        hmask = hyp_mask(inst.hypotheses)
        models = list(enumerate_weight_ordered(inst.kb, inst.hypotheses))
        if models:
            assert (models[0] & hmask).bit_count() == max((s & hmask).bit_count() for s in models)

    def test_example1_first_model_maximal(self):
        from test_core import example1_instance
        inst = example1_instance()
        hmask = hyp_mask(inst.hypotheses)
        models = list(enumerate_weight_ordered(inst.kb, inst.hypotheses))
        assert (models[0] & hmask).bit_count() == max((s & hmask).bit_count() for s in models)

    def test_empty_model_set(self):
        phi = formula(2, [(Relation(2, ()), (1, 2))])
        assert list(enumerate_weight_ordered(phi, {1})) == []

    def test_materializes_full_set(self):
        phi = formula(3, [(one_in_k(3), (1, 2, 3))])
        assert sorted(enumerate_weight_ordered(phi, {1, 2})) == brute_models(phi)

    def test_equals_stable_sort_by_weight(self):
        rng = random.Random(13)
        ties = 0
        for seed in range(60):
            phi = random_formula(7, 2000 + seed)
            hyps = set(rng.sample(range(1, 8), rng.randint(0, 7)))
            hmask = hyp_mask(hyps)
            models = list(enumerate_models(phi))
            got = list(enumerate_weight_ordered(phi, hyps))
            assert got == sorted(models, key=lambda s: -(s & hmask).bit_count()), f"seed {seed}"
            ties += len(models) - len({(s & hmask).bit_count() for s in models})
        assert ties  # equal weights occur, so the order among them is checked


def simple_sat_brute(inst: SimpleSatInstance) -> bool:
    for sigma in range(1 << inst.num_vars):
        ok = all(any((sigma >> (v - 1)) & 1 for v in c) for c in inst.positive_clauses)
        if not ok:
            continue
        for d in inst.negative_dnfs:
            if not any(all(not (sigma >> (v - 1)) & 1 for v in t) for t in d):
                ok = False
                break
        if ok:
            return True
    return False


class TestSimpleSat:
    def test_reduce_to_zero_rule(self):
        inst = SimpleSatInstance(2, (), ((frozenset({1, 2}),),), 2)
        model, _ = solve_simple_sat(inst)
        assert model == 0

    def test_clause_with_dnf(self):
        # (a or b) and ((not a) or (not b)) -> satisfiable, e.g. a=1 b=0
        inst = SimpleSatInstance(2, (frozenset({1, 2}),),
                                 ((frozenset({1}), frozenset({2})),), 2)
        model, _ = solve_simple_sat(inst)
        assert model is not None and simple_sat_model_ok(inst, model)

    def test_unit_conflict(self):
        inst = SimpleSatInstance(1, (frozenset({1}),), ((frozenset({1}),),), 1)
        assert solve_simple_sat(inst)[0] is None

    def test_empty_disjunction_unsat(self):
        inst = SimpleSatInstance(1, (), ((),), 1)
        assert solve_simple_sat(inst)[0] is None

    def test_empty_term_trivially_true(self):
        inst = SimpleSatInstance(1, (frozenset({1}),), ((frozenset(),),), 1)
        model, _ = solve_simple_sat(inst)
        assert model == 1

    def test_width_validation(self):
        with pytest.raises(ValueError):
            SimpleSatInstance(3, (frozenset({1, 2, 3}),), (), 2)

    def test_agrees_with_bruteforce(self):
        rng = random.Random(5)
        for case in range(150):
            n = rng.randint(2, 7)
            p = rng.randint(1, 3)
            clauses = tuple(frozenset(rng.sample(range(1, n + 1),
                                                 rng.randint(1, min(p, n))))
                            for _ in range(rng.randint(0, n)))
            dnfs = tuple(tuple(frozenset(rng.sample(range(1, n + 1),
                                                     rng.randint(0, n)))
                               for _ in range(rng.randint(0, 3)))
                         for _ in range(rng.randint(0, 3)))
            inst = SimpleSatInstance(n, clauses, dnfs, p)
            model, _ = solve_simple_sat(inst)
            assert (model is not None) == simple_sat_brute(inst), f"case {case}"
            if model is not None:
                assert simple_sat_model_ok(inst, model)

    def test_deep_chain_does_not_overflow(self):
        # the positive 2-CNF chain {i, i+1} opens one branching level per clause
        n = 10000
        inst = SimpleSatInstance(n, tuple(frozenset({i, i + 1}) for i in range(1, n)), (), 2)
        model, stats = solve_simple_sat(inst)
        assert model is not None and simple_sat_model_ok(inst, model)
        assert stats.max_depth == stats.branch_nodes == n - 1

    def test_hard_family_fitted_base_near_golden(self):
        grid = list(range(10, 29, 2))
        points = []
        for n in grid:
            _, stats = solve_simple_sat(simplesat_hard_instance(n))
            points.append((n, float(stats.branch_nodes)))
        base, _res = fit_base(points)
        assert base <= 1.62
        assert base >= 1.55  # the family genuinely exercises the branching


@st.composite
def simple_sat_instances(draw) -> SimpleSatInstance:
    """n <= 9, p <= 3, repeated clauses, empty terms and empty DNFs."""
    n = draw(st.integers(0, 9))
    p = draw(st.integers(1, 3))
    variables = st.integers(1, max(n, 1))
    clauses = draw(st.lists(st.frozensets(variables, min_size=1, max_size=p),
                            min_size=n // 2, max_size=2 * n))
    if clauses:
        clauses += draw(st.lists(st.sampled_from(clauses), max_size=3))
    terms = st.frozensets(variables, max_size=3) if n else st.just(frozenset())
    dnfs = draw(st.lists(st.lists(terms, min_size=1, max_size=4), max_size=3))
    if draw(st.sampled_from((False,) * 9 + (True,))):
        dnfs.insert(draw(st.integers(0, len(dnfs))), [])
    return SimpleSatInstance(n, tuple(draw(st.permutations(clauses))),
                             tuple(map(tuple, dnfs)), p)


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(simple_sat_instances())
def test_simple_sat_matches_the_copying_reference(inst):
    model, stats = solve_simple_sat(inst)
    want, want_stats = reference_simple_sat(inst)
    assert (model, stats) == (want, want_stats)
    assert (model is not None) == simple_sat_brute(inst)


def test_simple_sat_matches_the_reference_on_deep_searches():
    # the hard family walks the whole (1,2)-branching tree; the random
    # instances mix widths and DNFs of one- and two-variable terms
    for n in range(2, 17):
        inst = simplesat_hard_instance(n)
        assert solve_simple_sat(inst) == reference_simple_sat(inst)
    rng = random.Random(11)
    for case in range(200):
        n = rng.randint(6, 14)
        p = rng.randint(1, 3)
        clauses = tuple(frozenset(rng.sample(range(1, n + 1), rng.randint(1, p)))
                        for _ in range(rng.randint(n, 2 * n)))
        dnfs = tuple(tuple(frozenset(rng.sample(range(1, n + 1), rng.randint(1, 2)))
                           for _ in range(rng.randint(1, n)))
                     for _ in range(rng.randint(0, 3)))
        inst = SimpleSatInstance(n, clauses, dnfs, p)
        assert solve_simple_sat(inst) == reference_simple_sat(inst), f"case {case}"


def simple_sat_model_ok(inst: SimpleSatInstance, sigma: int) -> bool:
    if not all(any((sigma >> (v - 1)) & 1 for v in c) for c in inst.positive_clauses):
        return False
    return all(any(all(not (sigma >> (v - 1)) & 1 for v in t) for t in d)
               for d in inst.negative_dnfs)
