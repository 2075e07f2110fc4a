"""The restriction table behind core.restrict returns what a direct,
uncached tuple-by-tuple restriction gives, on a cold table and after its
bound has forced a clear.  The search reads the same table with the fixed
positions gathered from a node's (amask, vmask); those lookups, and the
classification each entry stores, must agree with restrict on the same
assignment, repeated scope variables included.  So must the entries the
search's per-constraint memo returns, cold or warm, when the variables
outside the scope change and when the table has been cleared in between."""

import itertools

import pytest

from abductor import core
from abductor.core import (EMPTY, FULL, OPEN, UNIT, Constraint, Formula, Relation,
                           encode_tuple, restrict, submasks)
from abductor.langlib import (aff, branching_closure, clause_relation, imp,
                              language, nae, xsat_family)
from abductor.satenum import _Search

MAX_ARITY = 4
SCOPE = (3, 8, 1, 6)  # distinct variables in no particular order
# per arity, scopes that repeat a variable
REPEATED = {2: [(5, 5)], 3: [(5, 5, 2), (5, 2, 5), (2, 5, 5)],
            4: [(5, 2, 5, 7), (7, 7, 7, 7)]}


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


def _kind(codes, keep):
    """The classification the table must store with a restriction."""
    if not codes:
        return EMPTY
    if len(codes) == 1 << len(keep):
        return FULL
    return UNIT if len(keep) == 1 else OPEN


def _single(rel, scope):
    """The search of the one-constraint formula rel(scope) over max(SCOPE)
    variables."""
    return _Search.of(Formula(max(SCOPE), (Constraint(rel, scope),)))


def _mask_sweep():
    """Look every relation up, under every partial assignment of its scope's
    variables, through the search's (amask, vmask) gather."""
    checked = 0
    for rel in RELATIONS:
        for scope in [SCOPE[:rel.arity]] + REPEATED.get(rel.arity, []):
            search = _single(rel, scope)
            vs = sorted(set(scope))
            for signs in itertools.product((None, 0, 1), repeat=len(vs)):
                values = {v: b for v, b in zip(vs, signs) if b is not None}
                amask = sum(1 << (v - 1) for v in values)
                vmask = sum(1 << (v - 1) for v, b in values.items() if b)
                codes, keep, kind = search.entry(0, amask, vmask)
                kept = tuple(scope[i] for i in keep)
                assert (codes, kept) == restrict(rel._codeset, scope, values), (rel, scope, values)
                assert (codes, kept) == _direct(rel, scope, values), (rel, scope, values)
                assert kind == _kind(codes, keep), (rel, scope, values)
                checked += 1
    return checked


@pytest.fixture
def cold_table(monkeypatch):
    monkeypatch.setattr(core, "_restrict_table", {})
    monkeypatch.setattr(core, "_restrict_table_held", 0)
    return core._restrict_table


def _held():
    return sum(len(entry[0]) + 1 for entry in core._restrict_table.values())


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


def test_mask_lookups_match_restrict_on_a_cold_table(cold_table):
    checked = _mask_sweep()
    assert checked > 2000 and cold_table and _held() == core._restrict_table_held
    assert {entry[2] for entry in cold_table.values()} == {EMPTY, FULL, UNIT, OPEN}
    assert _mask_sweep() == checked


def test_mask_lookups_match_restrict_after_forced_clears(cold_table, monkeypatch):
    bound = 64
    monkeypatch.setattr(core, "_RESTRICT_TABLE_CODES", bound)
    _mask_sweep()
    # the classified entries count against the same bound and go with a clear
    assert 0 < _held() == core._restrict_table_held <= bound + (1 << MAX_ARITY) + 1
    _mask_sweep()


def test_repeated_variable_fixes_both_positions(cold_table):
    rel = Relation(3, (0b011, 0b100))  # x1 = x2 = not x3
    search = _Search.of(Formula(5, (Constraint(rel, (5, 5, 2)),)))
    # v5 = 1 fixes positions 0 and 1 and forces v2 = 0
    assert search.entry(0, 1 << 4, 1 << 4) == (frozenset({0}), (2,), UNIT)
    assert search.entry(0, 1 << 4, 0) == (frozenset({1}), (2,), UNIT)
    assert search.entry(0, 1 << 1, 1 << 1) == (frozenset({0}), (0, 1), OPEN)
    assert search.entry(0, 0b10010, 0b10010) == (frozenset(), (), EMPTY)
    assert search.entry(0, 0b10010, 0b10000) == (frozenset({0}), (), FULL)


def _searches():
    """One single-constraint search per relation and scope, repeated scope
    variables included."""
    return [(rel, scope, _single(rel, scope))
            for rel in RELATIONS for scope in [SCOPE[:rel.arity]] + REPEATED.get(rel.arity, [])]


def _memo_pass(searches, outside=0):
    """Look every partial assignment of each search's scope variables up
    through the search's memo, with the variables of the mask `outside` that
    are not in the scope also set to 1; check each entry against restrict and
    the direct restriction, and return the entries in lookup order."""
    entries = []
    for rel, scope, search in searches:
        vs = sorted(set(scope))
        others = outside & ~sum(1 << (v - 1) for v in vs)
        for signs in itertools.product((None, 0, 1), repeat=len(vs)):
            values = {v: b for v, b in zip(vs, signs) if b is not None}
            amask = sum(1 << (v - 1) for v in values)
            vmask = sum(1 << (v - 1) for v, b in values.items() if b)
            entry = search.entry(0, amask | others, vmask | others)
            codes, keep, kind = entry
            kept = tuple(scope[i] for i in keep)
            assert (codes, kept) == restrict(rel._codeset, scope, values), (rel, scope, values)
            assert (codes, kept) == _direct(rel, scope, values), (rel, scope, values)
            assert kind == _kind(codes, keep), (rel, scope, values)
            entries.append(entry)
        # one key per partial assignment of the k' distinct scope variables
        assert len(search.memos[0]) == 3 ** len(vs), (rel, scope)
    return entries


def test_memo_lookups_match_restrict_cold_and_warm(cold_table):
    searches = _searches()
    cold = _memo_pass(searches)
    assert len(cold) > 2000
    # the second pass reads every entry from the memo the first filled: the
    # key ignores the variables outside the scope
    warm = _memo_pass(searches, outside=(1 << max(SCOPE)) - 1)
    assert all(w is c for w, c in zip(warm, cold)) and len(warm) == len(cold)


def test_memo_entries_outlive_forced_table_clears(cold_table, monkeypatch):
    monkeypatch.setattr(core, "_RESTRICT_TABLE_CODES", 64)
    searches = _searches()
    cold = _memo_pass(searches)
    # the bound has cleared the table, so it no longer holds most of the
    # entries the memos hold
    held = {id(entry) for entry in core._restrict_table.values()}
    assert sum(id(entry) not in held for entry in cold) > len(cold) // 2
    warm = _memo_pass(searches, outside=(1 << max(SCOPE)) - 1)
    assert all(w is c for w, c in zip(warm, cold)) and len(warm) == len(cold)
