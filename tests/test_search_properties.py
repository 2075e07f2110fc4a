"""Property tests of the one search core against the bit-parallel truth table,
on generated formulas with n <= 8: repeated scope variables, the 0-ary
constants, empty and full relations.  Derandomized, so tier-1 stays
deterministic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from abductor.core import (FALSE0, TRUE0, Formula, Relation, conjoin_literals,
                           formula, table_models, truth_table)
from abductor.langlib import branching_closure, xsat_family
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
