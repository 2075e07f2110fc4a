"""The restriction table behind core.restrict returns what a direct,
uncached tuple-by-tuple restriction gives, on a cold table and after its
bound has forced a clear."""

import itertools

import pytest

from abductor import core
from abductor.core import encode_tuple, restrict, submasks
from abductor.langlib import (aff, branching_closure, clause_relation, imp,
                              language, nae, xsat_family)

MAX_ARITY = 4
SCOPE = (3, 8, 1, 6)  # distinct variables in no particular order


def _signs():
    return [s for k in range(1, MAX_ARITY + 1) for s in itertools.product((0, 1), repeat=k)]


def _relations():
    langs = [xsat_family(MAX_ARITY), aff(MAX_ARITY), language([imp()]),
             language(nae(s) for s in _signs()),
             language(clause_relation(s) for s in _signs())]
    rels = set()
    for lang in langs:
        rels |= lang.relations | branching_closure(lang).relations
    return sorted(rels, key=lambda r: (r.arity, r.codes))


RELATIONS = _relations()


def _direct(rel, scope, values):
    """Keep the tuples that agree with `values` and drop the fixed positions."""
    keep = [i for i, v in enumerate(scope) if v not in values]
    codes = set()
    for t in rel.tuples():
        if all(t[i] == values[v] for i, v in enumerate(scope) if v in values):
            codes.add(encode_tuple(t[i] for i in keep))
    return frozenset(codes), tuple(scope[i] for i in keep)


def _patterns(arity):
    """Every (hit, want) pattern: the fixed positions and their values."""
    for hit in submasks((1 << arity) - 1):
        for want in submasks(hit):
            yield hit, want


def _sweep():
    checked = 0
    for rel in RELATIONS:
        scope = SCOPE[:rel.arity]
        for hit, want in _patterns(rel.arity):
            values = {v: (want >> i) & 1 for i, v in enumerate(scope) if hit >> i & 1}
            want_out = _direct(rel, scope, values)
            # the search passes the relation's code set, substitute its code tuple
            assert restrict(rel._codeset, scope, values) == want_out, (rel, values)
            assert restrict(rel.codes, scope, values) == want_out, (rel, values)
            checked += 1
    return checked


@pytest.fixture
def cold_table(monkeypatch):
    monkeypatch.setattr(core, "_restrict_table", {})
    monkeypatch.setattr(core, "_restrict_table_held", 0)
    return core._restrict_table


def _held():
    return sum(len(codes) + 1 for codes, _ in core._restrict_table.values())


def test_families_cover_every_arity():
    assert {r.arity for r in RELATIONS} == set(range(MAX_ARITY + 1))


def test_table_matches_direct_restriction_on_a_cold_table(cold_table):
    checked = _sweep()
    assert checked > 1000 and cold_table and _held() == core._restrict_table_held
    # a warm table answers the same
    assert _sweep() == checked


def test_table_matches_direct_restriction_after_forced_clears(cold_table, monkeypatch):
    bound = 64
    monkeypatch.setattr(core, "_RESTRICT_TABLE_CODES", bound)
    _sweep()
    # a sweep stores far more than the bound, so the table has been cleared;
    # it holds at most one entry (of up to 2^MAX_ARITY codes) past the bound
    assert 0 < _held() == core._restrict_table_held <= bound + (1 << MAX_ARITY) + 1
    _sweep()


def test_kept_scope_follows_the_caller_scope(cold_table):
    codes = clause_relation((0, 1, 0))._codeset  # forbids x1=0, x2=1, x3=0
    assert restrict(codes, (2, 9, 4), {9: 1}) == (frozenset({1, 2, 3}), (2, 4))
    assert restrict(codes, (5, 6, 7), {6: 1}) == (frozenset({1, 2, 3}), (5, 7))
    assert restrict(codes, (5, 6, 7), {6: 0, 7: 1}) == (frozenset({0, 1}), (5,))
