"""Property tests of the one search core against the bit-parallel truth table,
on generated formulas with n <= 8: repeated scope variables, the 0-ary
constants, empty and full relations.  decide is also run differentially:
interleaved decide/entails calls on one compiled KB, whose root and memos
they share, against a fresh compile of the public Formula KB ∧ literals, and
once more with the restriction table bounded so tightly that the search
memos' entries outlive its clears.  After each call of such a sequence whose
literals sit on distinct variables, every completion of the cube the
compiled KB keeps is a model of the KB.  The constraints a set of variables
touches, the search's bitmask walk, are those whose scope meets the set.
Formulas over the parity closure that hold an arity-3 constraint make the
tuple rule reuse its branch plans under other parent values.  Under both
branching rules, the models the search emits and the stats after each are
those of the completion loop over its satisfied nodes (models_reference).
On instances over the same formulas, every solver verify.check_solvers runs
agrees with the brute-force oracle, and every instance reduction
verify.check_reductions runs preserves the oracle answers, there and on KBs
of clauses and implications.  The structure facts a Formula computes on
construction equal their definitions over its constraints, and are the
masks the search reads.  Derandomized, so tier-1 stays deterministic."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abductor import core
from abductor.core import (BOT, FALSE0, TOP, TRUE0, AbductionInstance,
                           Constraint, Formula, Relation, columns, entails,
                           formula, literal_masks, table_models, truth_table)
from abductor.langlib import aff, branching_closure, clause_relation, xsat_family
from abductor.harness import verify
from abductor.reductions import IMP_REL
from abductor.satenum import (_Search, compile_kb, decide, enumerate_models,
                              sparse_enumerate)
from models_reference import reference_stream

XSAT_LANG = branching_closure(xsat_family(3))
XSAT_RELATIONS = list(XSAT_LANG)
# parity relations: the tuple rule picks them under many partial assignments
AFF_LANG = branching_closure(aff(3))
AFF_NONEMPTY = [r for r in AFF_LANG if not r.is_empty]

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def relations(draw, max_arity: int = 3) -> Relation:
    arity = draw(st.integers(0, max_arity))
    size = 1 << arity
    codes = draw(st.one_of(st.just(frozenset()), st.just(frozenset(range(size))),
                           st.frozensets(st.integers(0, size - 1))))
    return Relation(arity, tuple(codes))


@st.composite
def scoped(draw, n: int, rels) -> tuple[Relation, tuple[int, ...]]:
    rel = draw(rels if n else st.sampled_from((TRUE0, FALSE0)))
    # variables may repeat within a scope
    return rel, tuple(draw(st.lists(st.integers(1, max(n, 1)), min_size=rel.arity,
                                    max_size=rel.arity)))


@st.composite
def formulas(draw, rels=relations(), max_constraints: int = 6) -> Formula:
    n = draw(st.integers(0, 8))
    cons = draw(st.lists(scoped(n, rels), max_size=max_constraints))
    return formula(n, cons)


def literal_lists(n: int):
    if n == 0:
        return st.just([])
    return st.lists(st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v))),
                    max_size=4)


def units(lits) -> tuple[Constraint, ...]:
    return tuple(Constraint(TOP if l > 0 else BOT, (abs(l),)) for l in lits)


@st.composite
def partial_relations(draw, max_arity: int = 3) -> Relation:
    """A relation that is neither empty nor full, so a KB is rarely
    unsatisfiable at its root."""
    arity = draw(st.integers(1, max_arity))
    size = 1 << arity
    return Relation(arity, tuple(draw(st.frozensets(st.integers(0, size - 1), min_size=1,
                                                    max_size=size - 1))))


@st.composite
def kbs(draw) -> Formula:
    """A formula plus units, so that the root forces some variables."""
    phi = draw(formulas(rels=partial_relations()))
    forced = draw(literal_lists(phi.num_vars))
    return Formula(phi.num_vars, phi.constraints + units(forced))


@st.composite
def calls(draw, kb: Formula):
    """One call on the KB: ("sat", E) decides KB ∧ E, ("entails", E, M) asks
    KB ∧ E ⊨ M, and ("chain", E, F) decides (KB ∧ E) ∧ F.  E often holds a
    literal and its negation, or sets the whole scope of a constraint."""
    n = kb.num_vars
    lits = draw(literal_lists(n))
    if lits and draw(st.booleans()):
        lits.append(-draw(st.sampled_from(lits)))
    if kb.constraints and draw(st.booleans()):
        scope = draw(st.sampled_from(kb.constraints)).scope
        lits += [v * draw(st.sampled_from((1, -1))) for v in scope]
    kind = draw(st.sampled_from(("sat", "entails", "chain")))
    if kind == "sat":
        return kind, lits
    if kind == "entails":
        return kind, lits, draw(st.lists(st.integers(1, n), max_size=3)) if n else []
    return kind, lits, draw(literal_lists(n))


@st.composite
def assumptions(draw, n: int) -> list[int]:
    """At most four literals on distinct variables, so a conflict comes from
    the KB and decide's clash check lets the query reach the cube check."""
    if n == 0:
        return []
    signs = draw(st.dictionaries(st.integers(1, n), st.booleans(), max_size=4))
    return [v if val else -v for v, val in signs.items()]


@st.composite
def assumption_calls(draw, kb: Formula):
    """One call on the KB as in `calls`, on assumptions."""
    n = kb.num_vars
    lits = draw(assumptions(n))
    kind = draw(st.sampled_from(("sat", "entails", "chain")))
    if kind == "sat":
        return kind, lits
    if kind == "entails":
        return kind, lits, draw(st.lists(st.integers(1, n), max_size=3)) if n else []
    return kind, lits, draw(assumptions(n))


def literals(call) -> list[int]:
    """The literals a call assumes: E, or E then F for a chain."""
    return call[1] + call[2] if call[0] == "chain" else call[1]


@st.composite
def parity_formulas(draw) -> Formula:
    """A formula over the non-empty members of AFF_LANG with n >= 3 and an
    arity-3 parity constraint on three distinct variables.  The tuple rule
    then picks a constraint under one restriction below siblings that set
    other variables differently, so a branch plan is reused under other
    parent values; empty members would make most draws unsatisfiable at
    the root."""
    n = draw(st.integers(3, 8))
    rel = draw(st.sampled_from([r for r in AFF_NONEMPTY if r.arity == 3]))
    scope = tuple(draw(st.permutations(range(1, n + 1)))[:3])
    rest = draw(st.lists(scoped(n, st.sampled_from(AFF_NONEMPTY)), max_size=5))
    return formula(n, [(rel, scope)] + rest)


class TestSearchProperties:
    @PROPERTY
    @given(formulas())
    def test_enumerate_models_is_the_model_set(self, phi):
        stream = enumerate_models(phi)
        got = list(stream)
        assert len(set(got)) == len(got)
        assert sorted(got) == table_models(truth_table(phi))
        assert stream.stats.models_emitted == len(got)
        assert stream.stats.models_emitted <= stream.stats.leaves

    @PROPERTY
    @given(formulas(), st.data())
    def test_decide_is_the_truth_table(self, phi, data):
        kb = compile_kb(phi)
        assert decide(kb) is bool(truth_table(phi))
        lits = data.draw(literal_lists(phi.num_vars))
        assert decide(kb, *literal_masks(lits)) is bool(
            truth_table(Formula(phi.num_vars, phi.constraints + units(lits))))

    @settings(PROPERTY, max_examples=100)
    @given(formulas(rels=st.sampled_from(XSAT_RELATIONS)),
           formulas(rels=st.sampled_from(list(AFF_LANG))))
    def test_sparse_enumerate_is_the_model_set(self, xsat, parity):
        for phi, lang in ((xsat, XSAT_LANG), (parity, AFF_LANG)):
            stream = sparse_enumerate(phi, lang)
            got = list(stream)
            assert len(set(got)) == len(got)
            assert sorted(got) == table_models(truth_table(phi))
            assert stream.stats.models_emitted <= stream.stats.leaves

    @settings(PROPERTY, max_examples=100)
    @given(formulas(), formulas(rels=st.sampled_from(XSAT_RELATIONS)))
    def test_emission_is_the_completion_loop(self, phi, xsat):
        for make in (lambda: enumerate_models(phi), lambda: sparse_enumerate(xsat, XSAT_LANG)):
            stream = make()
            ref, ref_stats = reference_stream(make)
            for got, want in itertools.zip_longest(stream, ref):
                assert got == want
                assert stream.stats == ref_stats
            assert stream.stats == ref_stats

    @settings(PROPERTY, max_examples=100)
    @given(parity_formulas())
    def test_sparse_enumerate_reuses_plans_under_other_values(self, phi):
        stream = sparse_enumerate(phi, AFF_LANG)
        assert sorted(stream) == table_models(truth_table(phi))

    @PROPERTY
    @given(formulas(), st.data())
    def test_touched_is_the_constraints_whose_scope_meets_the_variables(self, phi, data):
        kb = compile_kb(phi)
        bits = data.draw(st.integers(0, (1 << phi.num_vars) - 1))
        want = sum(1 << i for i, con in enumerate(phi.constraints)
                   if any(bits >> (v - 1) & 1 for v in con.scope))
        assert kb.touched(bits) == want
        assert want == sum(1 << i for i, smask in enumerate(kb.smasks) if smask & bits)

    @settings(PROPERTY, max_examples=100)
    @given(kbs(), st.data())
    def test_decide_on_one_base_is_a_fresh_compile(self, kb, data):
        n = kb.num_vars
        cols = columns(n)
        compiled = compile_kb(kb)
        queries = st.one_of(calls(kb), assumption_calls(kb))
        for call in data.draw(st.lists(queries, min_size=1, max_size=8)):
            lits = literals(call)
            pos, neg = literal_masks(lits)
            public = Formula(n, kb.constraints + units(lits))
            table = truth_table(public)
            if call[0] == "entails":
                # KB ∧ E ⊨ M iff no model of KB ∧ E sets some m in M to 0
                want = not any(table & cols[m - 1][0] for m in call[2])
                assert entails(compiled, pos, neg, call[2], decide) is want, call
                assert entails(compile_kb(public), 0, 0, call[2], decide) is want, call
            else:
                assert decide(compiled, pos, neg) is bool(table), call
                assert decide(compile_kb(public)) is bool(table), call

    @settings(PROPERTY, max_examples=100)
    @given(kbs(), st.data())
    def test_every_completion_of_the_cube_is_a_model(self, kb, data):
        """After each call on one compiled KB, the cube decide keeps in it
        covers models of the KB only."""
        n = kb.num_vars
        cols = columns(n)
        base_table = truth_table(kb)
        compiled = compile_kb(kb)
        for call in data.draw(st.lists(assumption_calls(kb), min_size=1, max_size=8)):
            lits = literals(call)
            pos, neg = literal_masks(lits)
            table = truth_table(Formula(n, kb.constraints + units(lits)))
            if call[0] == "entails":
                want = not any(table & cols[m - 1][0] for m in call[2])
                assert entails(compiled, pos, neg, call[2], decide) is want, call
            else:
                assert decide(compiled, pos, neg) is bool(table), call
            cube = compiled.cube
            if cube is None:
                continue
            amask, vmask = cube
            extensions = (1 << (1 << n)) - 1
            for v in range(1, n + 1):
                if amask >> (v - 1) & 1:
                    extensions &= cols[v - 1][vmask >> (v - 1) & 1]
            assert extensions and not extensions & ~base_table, (call, cube)

    @settings(PROPERTY, max_examples=60)
    @given(kbs(), st.data())
    def test_memo_entries_outlive_table_clears(self, kb, data):
        """decide on one compiled KB interleaved with sparse_enumerate, while
        a tiny table bound clears the restriction table over and over."""
        n = kb.num_vars
        cols = columns(n)
        compiled = compile_kb(kb)
        steps = st.one_of(st.one_of(calls(kb), assumption_calls(kb)),
                          formulas(rels=st.sampled_from(XSAT_RELATIONS), max_constraints=12))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_RESTRICT_TABLE_CODES", 8)
            for step in data.draw(st.lists(steps, min_size=1, max_size=8)):
                if isinstance(step, Formula):
                    got = list(sparse_enumerate(step, XSAT_LANG))
                    assert sorted(got) == table_models(truth_table(step))
                    continue
                lits = literals(step)
                pos, neg = literal_masks(lits)
                table = truth_table(Formula(n, kb.constraints + units(lits)))
                if step[0] == "entails":
                    want = not any(table & cols[m - 1][0] for m in step[2])
                    assert entails(compiled, pos, neg, step[2], decide) is want, step
                else:
                    assert decide(compiled, pos, neg) is bool(table), step
        for (_, scope), memo in zip(compiled.cons, compiled.memos):
            assert len(memo) <= 3 ** len(set(scope))


@st.composite
def instances(draw, kbs=formulas()) -> AbductionInstance:
    """H and M drawn independently, so they overlap, and may hold variables
    outside var(KB)."""
    kb = draw(kbs)
    var_sets = st.frozensets(st.integers(1, kb.num_vars)) if kb.num_vars else st.just(frozenset())
    return AbductionInstance(kb, draw(var_sets), draw(var_sets))


@settings(PROPERTY, max_examples=300)
@given(instances())
def test_every_solver_agrees_with_the_oracle(inst):
    assert [(f.kind, f.detail) for f in verify.check_solvers(inst)] == []


# clause relations of arity 1..3 and the implication: KBs on which the CNF
# reductions of verify.check_reductions apply
CNF_RELATIONS = [clause_relation(signs) for k in (1, 2, 3)
                 for signs in itertools.product((0, 1), repeat=k)] + [IMP_REL]


@settings(PROPERTY, max_examples=200)
@given(st.one_of(instances(), instances(formulas(rels=st.sampled_from(CNF_RELATIONS)))))
def test_every_reduction_preserves_the_oracle_answers(inst):
    fails, _logged = verify.check_reductions(inst)
    assert [(f.kind, f.detail) for f in fails] == []


class TestFormulaFacts:
    """The structure facts a Formula computes on construction are their
    definitions over its constraints, and the search reads them as they are."""

    @PROPERTY
    @given(formulas())
    def test_facts_are_their_definitions(self, phi):
        n, cons = phi.num_vars, phi.constraints
        assert phi.used_vars() == frozenset(v for con in cons for v in con.scope)
        assert phi._smasks == tuple(sum(1 << (v - 1) for v in set(con.scope)) for con in cons)
        assert phi._occbits == tuple(sum(1 << i for i, con in enumerate(cons) if v in con.scope)
                                     for v in range(n + 1))
        assert hash(phi) == hash((n, cons))
        # the distinct relations in order of first occurrence, the first object kept
        seen = []
        for con in cons:
            if con.relation not in seen:
                seen.append(con.relation)
        got = phi.relations()
        assert got == seen and all(a is b for a, b in zip(got, seen))
        search = _Search.of(phi)
        assert search.smasks is phi._smasks and search.occbits is phi._occbits
        assert search.vbits == tuple([0] + [1 << v for v in range(n)])

    @PROPERTY
    @given(formulas())
    def test_a_rebuilt_formula_is_equal_and_hashes_equal(self, phi):
        twin = Formula(phi.num_vars, [Constraint(Relation(c.relation.arity, c.relation.codes),
                                                 list(c.scope)) for c in phi.constraints])
        assert twin is not phi and twin == phi and hash(twin) == hash(phi)
        assert (twin.used_vars(), twin._smasks, twin._occbits) == (
            phi.used_vars(), phi._smasks, phi._occbits)
