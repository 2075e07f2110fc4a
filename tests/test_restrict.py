"""core.restriction, the restriction table's one entry point, returns what a
direct, uncached tuple-by-tuple restriction gives, with the classification
each entry stores, on a cold table and after its bound has forced a clear;
so does langlib.substitute, which reads the same table.  The search's
lookups from a node's (amask, vmask) must agree with the direct restriction
on the same assignment, repeated scope variables included, and so must the
entries the search's per-constraint memo returns, cold or warm, when the
variables outside the scope change and when the table has been cleared in
between.  One restriction is one table entry, whichever caller asks first."""

import itertools

import pytest

from abductor import core
from abductor.core import (EMPTY, FULL, OPEN, UNIT, Constraint, Formula, Relation,
                           encode_tuple, restriction, submasks)
from abductor.langlib import (aff, branching_closure, clause_relation, imp,
                              language, nae, one_in_k, substitute, xsat_family)
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


def _masks(values):
    """The variable-bit masks of the variables set in `values` and of those
    set to 1."""
    amask = sum(1 << (v - 1) for v in values)
    vmask = sum(1 << (v - 1) for v, b in values.items() if b)
    return amask, vmask


def _sweep():
    """Restrict every relation under every pattern, through restriction on
    SCOPE and through substitute on the positions 1..arity."""
    checked = 0
    for rel in RELATIONS:
        scope = SCOPE[:rel.arity]
        for hit, want in _patterns(rel.arity):
            values = {v: (want >> i) & 1 for i, v in enumerate(scope) if hit >> i & 1}
            want_codes, want_kept = _direct(rel, scope, values)
            codes, keep, kind = restriction(rel._codeset, scope, *_masks(values))
            assert (codes, tuple(scope[i] for i in keep)) == (want_codes, want_kept), (rel, values)
            assert kind == _kind(codes, keep), (rel, values)
            f = {i + 1: (want >> i) & 1 for i in range(rel.arity) if hit >> i & 1}
            assert substitute(rel, f) == Relation(len(keep), tuple(sorted(want_codes))), (rel, f)
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
    variables, through the search's (amask, vmask) entry."""
    checked = 0
    for rel in RELATIONS:
        for scope in [SCOPE[:rel.arity]] + REPEATED.get(rel.arity, []):
            search = _single(rel, scope)
            vs = sorted(set(scope))
            for signs in itertools.product((None, 0, 1), repeat=len(vs)):
                values = {v: b for v, b in zip(vs, signs) if b is not None}
                codes, keep, kind = search.entry(0, *_masks(values))
                kept = tuple(scope[i] for i in keep)
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


def test_substitute_and_search_share_one_entry(cold_table):
    """substitute and a search that fix the same positions to the same
    values read one table entry, whichever asks first."""
    rel = one_in_k(3)
    assert substitute(rel, {1: 1}) == Relation(2, (0,))
    search = _Search.of(Formula(7, (Constraint(rel, (4, 2, 7)),)))
    entry = search.entry(0, 1 << 3, 1 << 3)  # v4 = 1: the scope's position 1
    assert list(cold_table.values()) == [entry] and entry[:2] == (frozenset({0}), (1, 2))
    # the other order, on a pattern neither has read yet
    search.entry(0, 1 << 3, 0)  # v4 = 0
    assert len(cold_table) == 2
    assert substitute(rel, {1: 0}) == Relation(2, (0b01, 0b10))
    assert len(cold_table) == 2


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
    are not in the scope also set to 1; check each entry against the direct
    restriction, and return the entries in lookup order."""
    entries = []
    for rel, scope, search in searches:
        vs = sorted(set(scope))
        others = outside & ~sum(1 << (v - 1) for v in vs)
        for signs in itertools.product((None, 0, 1), repeat=len(vs)):
            values = {v: b for v, b in zip(vs, signs) if b is not None}
            amask, vmask = _masks(values)
            entry = search.entry(0, amask | others, vmask | others)
            codes, keep, kind = entry
            kept = tuple(scope[i] for i in keep)
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
