"""Property tests of the one search core against the bit-parallel truth table,
on generated formulas with n <= 8: repeated scope variables, the 0-ary
constants, empty and full relations.  decide is also run differentially:
interleaved conjoin_literals/entails calls on one KB, whose compiled root they
share, against a freshly built public Formula, and once more with the
restriction table bounded so tightly that the search memos' entries outlive
its clears.  After each call of such a sequence whose literals sit on
distinct variables, every completion of the cube decide keeps for the KB is
a model of it.  On instances over the same formulas, every solver
verify.check_solvers runs agrees with the brute-force oracle.  Derandomized,
so tier-1 stays deterministic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abductor import core
from abductor.core import (BOT, FALSE0, TOP, TRUE0, AbductionInstance,
                           Constraint, Formula, Relation, columns,
                           conjoin_literals, entails, formula, table_models,
                           truth_table)
from abductor.langlib import branching_closure, xsat_family
from abductor.harness import verify
from abductor.satenum import decide, enumerate_models, sparse_enumerate

XSAT_LANG = branching_closure(xsat_family(3))
XSAT_RELATIONS = list(XSAT_LANG)

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
    the KB and decide's unit loop lets the query reach the cube check."""
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
        assert decide(phi) is bool(truth_table(phi))
        lits = data.draw(literal_lists(phi.num_vars))
        extended = conjoin_literals(phi, lits)
        assert decide(extended) is bool(truth_table(Formula(phi.num_vars,
                                                            extended.constraints)))

    @settings(PROPERTY, max_examples=100)
    @given(formulas(rels=st.sampled_from(XSAT_RELATIONS)))
    def test_sparse_enumerate_is_the_model_set(self, phi):
        stream = sparse_enumerate(phi, XSAT_LANG)
        got = list(stream)
        assert len(set(got)) == len(got)
        assert sorted(got) == table_models(truth_table(phi))
        assert stream.stats.models_emitted <= stream.stats.leaves

    @settings(PROPERTY, max_examples=100)
    @given(kbs(), st.data())
    def test_decide_on_one_base_is_a_fresh_compile(self, kb, data):
        n = kb.num_vars
        cols = columns(n)
        for call in data.draw(st.lists(calls(kb), min_size=1, max_size=8)):
            if call[0] == "chain":
                fast = conjoin_literals(conjoin_literals(kb, call[1]), call[2])
            else:
                fast = conjoin_literals(kb, call[1])
            assert fast._base is kb
            public = Formula(n, fast.constraints)
            table = truth_table(public)
            if call[0] == "entails":
                # KB ∧ E ⊨ M iff no model of KB ∧ E sets some m in M to 0
                want = not any(table & cols[m - 1][0] for m in call[2])
                assert entails(fast, call[2], decide) is want, call
                assert entails(public, call[2], decide) is want, call
            else:
                assert decide(fast) is bool(table), call
                assert decide(public) is bool(table), call

    @settings(PROPERTY, max_examples=100)
    @given(kbs(), st.data())
    def test_every_completion_of_the_cube_is_a_model(self, kb, data):
        """After each call on one base, the cube decide keeps in the base's
        search covers models of the base only."""
        n = kb.num_vars
        cols = columns(n)
        base_table = truth_table(kb)
        for call in data.draw(st.lists(assumption_calls(kb), min_size=1, max_size=8)):
            fast = conjoin_literals(kb, call[1])
            if call[0] == "chain":
                fast = conjoin_literals(fast, call[2])
            table = truth_table(Formula(n, fast.constraints))
            if call[0] == "entails":
                want = not any(table & cols[m - 1][0] for m in call[2])
                assert entails(fast, call[2], decide) is want, call
            else:
                assert decide(fast) is bool(table), call
            cube = kb._compiled[0].cube if kb._compiled is not None else None
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
        """decide on one base interleaved with sparse_enumerate, while a tiny
        table bound clears the restriction table over and over."""
        n = kb.num_vars
        cols = columns(n)
        steps = st.one_of(calls(kb), formulas(rels=st.sampled_from(XSAT_RELATIONS),
                                              max_constraints=12))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_RESTRICT_TABLE_CODES", 8)
            for step in data.draw(st.lists(steps, min_size=1, max_size=8)):
                if isinstance(step, Formula):
                    got = list(sparse_enumerate(step, XSAT_LANG))
                    assert sorted(got) == table_models(truth_table(step))
                    continue
                fast = conjoin_literals(kb, step[1])
                if step[0] == "chain":
                    fast = conjoin_literals(fast, step[2])
                table = truth_table(Formula(n, fast.constraints))
                if step[0] == "entails":
                    want = not any(table & cols[m - 1][0] for m in step[2])
                    assert entails(fast, step[2], decide) is want, step
                else:
                    assert decide(fast) is bool(table), step
        if kb._compiled is not None:
            search = kb._compiled[0]
            for (_, scope), memo in zip(search.cons, search.memos):
                assert len(memo) <= 3 ** len(set(scope))


@st.composite
def instances(draw) -> AbductionInstance:
    """H and M drawn independently, so they overlap, and may hold variables
    outside var(KB)."""
    kb = draw(formulas())
    var_sets = st.frozensets(st.integers(1, kb.num_vars)) if kb.num_vars else st.just(frozenset())
    return AbductionInstance(kb, draw(var_sets), draw(var_sets))


@settings(PROPERTY, max_examples=300)
@given(instances())
def test_every_solver_agrees_with_the_oracle(inst):
    assert [(f.kind, f.detail) for f in verify.check_solvers(inst)] == []
