import itertools

import pytest

from abductor import core
from abductor.core import (FALSE0, Relation, StructureError, TRUE0, decode_tuple,
                           restriction)
from abductor.langlib import (NEGATION, ONE, LanguageError, NEQ,
                              SparsityCertificate, aff, branching_closure,
                              check_sparsity, clause_relation,
                              derive_inequality, dual_horn, equations,
                              equations_family, horn, imp, invariant,
                              is_branching_closed, k_cnf, k_cnf_neg,
                              k_cnf_pos, k_nae, language, minor, nae,
                              one_in_k, parity, substitute, xsat_family)

OR3 = clause_relation((0, 0, 0))
ZERO = (0, lambda full: 0)  # the constant 0 as a 0-ary operation
CONJ = (2, lambda full, a, b: a & b)
DISJ = (2, lambda full, a, b: a | b)


class TestSubstitute:
    def test_or3_fix_last_zero(self):
        assert substitute(OR3, {3: 0}) == clause_relation((0, 0))

    def test_or3_fix_last_one_is_trivial(self):
        got = substitute(OR3, {3: 1})
        assert got.arity == 2 and got.is_trivial

    def test_empty_substitution_is_identity(self):
        assert substitute(OR3, {}) == OR3

    def test_empty_result_is_legal(self):
        assert substitute(one_in_k(2), {1: 1, 2: 1}).is_empty

    def test_composition(self):
        # substitute(R, f ∪ g) == substitute(substitute(R, f), g') for disjoint domains
        for rel in (OR3, one_in_k(3), parity(3, 1), nae((0, 1, 0))):
            k = rel.arity
            for d1 in range(1, k + 1):
                for v1 in (0, 1):
                    rest = [i for i in range(1, k + 1) if i != d1]
                    for d2pos, d2 in enumerate(rest):
                        for v2 in (0, 1):
                            combined = substitute(rel, {d1: v1, d2: v2})
                            step1 = substitute(rel, {d1: v1})
                            # position of d2 after removing coordinate d1
                            shifted = d2 - (1 if d2 > d1 else 0)
                            step2 = substitute(step1, {shifted: v2})
                            assert combined == step2


class TestMinor:
    def test_identify_all_of_or3(self):
        assert minor(OR3, (1, 1, 1), 1) == Relation(1, (1,))

    def test_identity(self):
        assert minor(OR3, (1, 2, 3)) == OR3

    def test_one_in_two_diagonal_empty(self):
        got = minor(one_in_k(2), (1, 1), 1)
        assert got.arity == 1 and got.is_empty

    def test_composition(self):
        # minor(minor(R, g), h) == minor(R, h ∘ g)
        rels = [OR3, one_in_k(3), parity(3, 0), nae((0, 0, 1))]
        for rel in rels:
            n = rel.arity
            for m1 in range(1, n + 1):
                for g in itertools.product(range(1, m1 + 1), repeat=n):
                    if len(set(g)) != m1:
                        continue
                    mid = minor(rel, g, m1)
                    for m2 in range(1, m1 + 1):
                        for h in itertools.product(range(1, m2 + 1), repeat=m1):
                            if len(set(h)) != m2:
                                continue
                            lhs = minor(mid, h, m2)
                            comp = tuple(h[t - 1] for t in g)
                            assert lhs == minor(rel, comp, m2)


class TestBranchingClosure:
    def test_neq_closure(self):
        got = branching_closure(language([NEQ]))
        want = {
            NEQ,
            Relation(1, ()),      # identified NEQ is empty
            Relation(1, (0,)),    # BOT
            Relation(1, (1,)),    # TOP
            FALSE0, TRUE0,
        }
        assert set(got.relations) == want

    def test_already_closed_is_fixed_point(self):
        closed = branching_closure(language([NEQ]))
        again = branching_closure(closed)
        assert set(again.relations) == set(closed.relations)

    def test_or3_closure_introduces_trivial_relation(self):
        got = branching_closure(language([OR3]))
        assert any(r.arity == 2 and r.is_trivial for r in got.relations)

    def test_closure_is_verified_closed(self):
        for lang in (language([NEQ]), language([OR3]), xsat_family(3)):
            assert is_branching_closed(branching_closure(lang))

    def test_equations_family_nontrivial_and_substitution_closed(self):
        # the modular-counting family itself: every member excludes a weight,
        # and fixing a coordinate lands back in the family (empty or 0-ary
        # results aside: a fully excluded weight set has no equation form)
        for cap in (3, 4):
            base = equations_family(cap)
            members = set(base.relations)
            assert all(not r.is_trivial and not r.is_empty for r in members)
            for rel in members:
                for pos in range(1, rel.arity + 1):
                    for val in (0, 1):
                        got = substitute(rel, {pos: val})
                        assert got.arity == 0 or got.is_empty or got in members

    def test_equations_closure_trivial_members_come_from_parity_pairs(self):
        # identifying both coordinates of x1+x2=0 (mod 2) cancels them, so the
        # branching closure legitimately holds trivial relations; they impose
        # nothing and the sparse enumerator drops them
        closed = branching_closure(equations_family(3))
        trivial = [r for r in closed.relations if r.arity >= 1 and r.is_trivial]
        assert trivial  # present by construction
        assert minor(parity(2, 0), (1, 1), 1).is_trivial


class TestPredicates:
    def test_non_trivial(self):
        assert Relation(2, (0, 1, 2, 3)).is_trivial
        assert not NEQ.is_trivial
        assert not one_in_k(3).is_trivial  # 3 of 8 tuples

    def test_one_valid(self):
        assert invariant(k_cnf_pos(3), ONE)
        mixed = language([clause_relation((0, 1, 1)), clause_relation((0, 0))])
        assert invariant(mixed, ONE)  # each clause has a positive literal
        assert not invariant(language([Relation(1, (0,))]), ONE)

    def test_complement_invariant(self):
        assert invariant(k_nae(3), NEGATION)
        assert invariant(language([NEQ, parity(2, 0)]), NEGATION)
        assert not invariant(language([imp()]), NEGATION)

    def test_constant_polymorphism(self):
        assert invariant(language([imp()]), ZERO)
        assert invariant(language([imp()]), ONE)
        assert not invariant(language([NEQ]), ONE)

    def test_invariant_is_the_definition_on_every_small_relation(self):
        # every relation of arity <= 3, against the definitions on tuples:
        # the constant c holds iff the all-c tuple is a member, so an empty
        # relation fails both constants; negation holds iff the complement
        # of every member is a member; conjunction holds iff the AND of
        # every two members is a member
        rels = [Relation(k, tuple(c for c in range(1 << k) if s >> c & 1))
                for k in range(4) for s in range(1 << (1 << k))]
        assert len(rels) == 278
        for rel in rels:
            tuples = {tuple(decode_tuple(c, rel.arity)) for c in rel.codes}
            lang = language([rel])
            assert invariant(lang, ZERO) is ((0,) * rel.arity in tuples), rel
            assert invariant(lang, ONE) is ((1,) * rel.arity in tuples), rel
            assert invariant(lang, NEGATION) is all(
                tuple(1 - x for x in t) in tuples for t in tuples), rel
            assert invariant(lang, CONJ) is all(
                tuple(x & y for x, y in zip(t, u)) in tuples
                for t in tuples for u in tuples), rel
        empty = [r for r in rels if r.is_empty]
        assert len(empty) == 4
        assert not any(invariant(language([r]), op) for r in empty for op in (ZERO, ONE))

    def test_operations_of_equal_arity_keep_separate_answers(self):
        zero_only = Relation(1, (0,))
        or2 = clause_relation((0, 0))
        for _ in range(2):
            assert invariant(language([zero_only]), ZERO)
            assert not invariant(language([zero_only]), ONE)
            assert not invariant(language([or2]), CONJ)
            assert invariant(language([or2]), DISJ)

    def test_invariant_under_operations_of_more_arguments(self):
        # Horn clauses are closed under conjunction, a positive 2-clause is not
        conj = (2, lambda full, a, b: a & b)
        assert invariant(horn(3), conj)
        assert not invariant(language([clause_relation((0, 0))]), conj)
        minority = (3, lambda full, a, b, c: a ^ b ^ c)
        assert invariant(aff(3), minority)
        assert not invariant(language([one_in_k(3)]), minority)


class TestSparsity:
    def test_xsat_counterexample_then_certificate(self):
        lang = xsat_family(8)
        got = check_sparsity(lang, 1.415, 2)
        assert isinstance(got, Relation) and got.arity == 3  # 3 > 1.415^3
        got = check_sparsity(lang, 1.5, 4)
        assert isinstance(got, SparsityCertificate)
        assert got.verified_up_to == 8

    def test_bot_certificate(self):
        got = check_sparsity(language([Relation(1, (0,))]), 1.01, 1)
        assert isinstance(got, SparsityCertificate)

    def test_aff_certificate(self):
        got = check_sparsity(aff(4), 1.9, 1)
        assert isinstance(got, SparsityCertificate)

    def test_trivial_members_never_violate(self):
        # the closures hold the full unary relation, which sparse_enumerate
        # never branches on
        aff_closure = branching_closure(aff(3))
        assert isinstance(check_sparsity(aff_closure, 1.5875, 1), SparsityCertificate)
        for c in (1.45, 1.5874):
            got = check_sparsity(aff_closure, c, 1)
            assert isinstance(got, Relation)
            assert (got.arity, got.codes) == (3, (0, 3, 5, 6))
        got = check_sparsity(branching_closure(xsat_family(3)), 1.4423, 1)
        assert isinstance(got, SparsityCertificate)

    def test_bad_parameters(self):
        with pytest.raises(LanguageError):
            check_sparsity(aff(3), 2.5, 1)
        with pytest.raises(LanguageError):
            check_sparsity(aff(3), 1.5, 0)


class TestDeriveInequality:
    def test_from_nae3(self):
        got = derive_inequality(language([nae((0, 0, 0))]))
        assert got.relation == NEQ
        assert sorted(got.pattern) in ([1, 1, 2], [1, 2, 2])

    def test_an_equal_relation_under_another_name_keeps_its_name(self):
        """The gadget's base is the language's own member: an equal relation
        under another name gets an equal gadget whose base keeps that name."""
        base = nae((0, 0, 0))
        got = derive_inequality(language([base]))
        assert got.base is base
        other = base.renamed("TWIN")
        twin = derive_inequality(language([other]))
        assert twin.base is other and twin.base.name == "TWIN"
        assert twin == got

    def test_from_neq_directly(self):
        got = derive_inequality(language([NEQ]))
        assert got.relation == NEQ and got.base == NEQ

    def test_even_parity_fails_precondition(self):
        with pytest.raises(LanguageError):
            derive_inequality(language([parity(2, 0)]))  # holds both constants

    def test_generated_pool(self):
        # every complement-invariant relation pool without constant tuples
        # yields exactly NEQ
        import random
        rng = random.Random(7)
        found = 0
        for _ in range(200):
            k = rng.choice((2, 3, 4))
            full = (1 << k) - 1
            half = [c for c in range(1 << k) if c not in (0, full)]
            rng.shuffle(half)
            codes = set()
            for c in half[:rng.randint(1, len(half))]:
                codes.add(c)
                codes.add(full ^ c)
            rel = Relation(k, tuple(sorted(codes)))
            lang = language([rel])
            assert invariant(lang, NEGATION)
            got = derive_inequality(lang)
            assert got.relation == NEQ
            found += 1
        assert found == 200

    def test_scope_for(self):
        got = derive_inequality(language([nae((0, 0, 0))]))
        scope = got.scope_for(7, 9)
        assert sorted(set(scope)) == [7, 9] and len(scope) == 3


class TestConstructors:
    def test_equations_one_in_three(self):
        assert equations(3, 4, 1) == one_in_k(3)

    def test_equations_parameter_validation(self):
        with pytest.raises(LanguageError):
            equations(3, 5, 1)

    def test_aff_even_parity(self):
        assert parity(2, 0).tuples() == [(0, 0), (1, 1)]

    def test_nae_excludes_pattern_and_complement(self):
        rel = nae((0, 0, 0))
        assert len(rel) == 6
        assert 0 not in rel and 7 not in rel

    def test_clause_families(self):
        assert len(k_cnf(2)) == 2 + 4
        assert len(k_cnf_pos(3)) == 3
        assert len(k_cnf_neg(2)) == 2
        assert all(s.count(0) <= 1
                   for r in horn(3) for s in [tuple(clause_sign(r))])

    def test_horn_dualhorn_shapes(self):
        for rel in horn(3):
            missing = set(range(1 << rel.arity)) - set(rel.codes)
            bad = missing.pop()
            assert bin(((1 << rel.arity) - 1) ^ bad).count("1") <= 1  # <=1 positive
        for rel in dual_horn(3):
            missing = set(range(1 << rel.arity)) - set(rel.codes)
            assert bin(missing.pop()).count("1") <= 1  # <=1 negative

    def test_imp(self):
        assert imp().tuples() == [(0, 0), (0, 1), (1, 1)]

    def test_xsat_family_contents(self):
        fam = xsat_family(3)
        assert one_in_k(3) in fam and Relation(2, (0,)) in fam
        assert FALSE0 in fam and TRUE0 in fam


SIGNS = [s for k in range(1, 4) for s in itertools.product((0, 1), repeat=k)]


def fresh_clause(signs, name=None):
    """The clause relation built from scratch, outside the shared table."""
    bad = sum(b << i for i, b in enumerate(signs))
    codes = tuple(c for c in range(1 << len(signs)) if c != bad)
    return Relation(len(signs), codes, name or "CL" + "".join(map(str, signs)))


def fresh_nae(signs):
    zero = sum(b << i for i, b in enumerate(signs))
    one = ((1 << len(signs)) - 1) ^ zero
    codes = tuple(c for c in range(1 << len(signs)) if c not in (zero, one))
    return Relation(len(signs), codes, "NAE" + "".join(map(str, signs)))


@pytest.fixture
def cold_relations(monkeypatch):
    """An empty table in core, restored after the test."""
    monkeypatch.setattr(core, "_restrict_table", {})
    monkeypatch.setattr(core, "_restrict_table_held", 0)
    return core._restrict_table


def _held():
    """The codes core's table holds: each shared relation's codes and each
    restriction entry's restricted codes, plus one per value."""
    return sum((len(v.codes) if isinstance(v, Relation) else len(v[0])) + 1
               for v in core._restrict_table.values())


class TestSharedRelations:
    """clause_relation and nae return one shared Relation per key from core's
    table, equal (name included) to one built afresh."""

    def test_a_repeated_call_returns_the_same_object(self, cold_relations):
        for signs in SIGNS:
            for name in (None, "C"):
                rel = clause_relation(signs, name)
                assert clause_relation(list(signs), name) is rel
                assert rel == fresh_clause(signs, name)
                assert rel.name == fresh_clause(signs, name).name
            rel = nae(signs)
            assert nae(list(signs)) is rel
            assert rel == fresh_nae(signs) and rel.name == fresh_nae(signs).name
        assert len(cold_relations) == 3 * len(SIGNS)
        assert _held() == core._restrict_table_held

    def test_the_name_is_part_of_the_key(self, cold_relations):
        named, plain = clause_relation((0, 0), "OR2"), clause_relation((0, 0))
        assert named is not plain and named == plain
        assert (named.name, plain.name) == ("OR2", "CL00")

    def test_bad_patterns_are_rejected_every_time(self, cold_relations):
        for _ in range(2):
            with pytest.raises(StructureError):
                clause_relation((0, 2))
            with pytest.raises(LanguageError):
                nae(())
        assert not cold_relations

    def test_the_table_clears_past_its_budget(self, cold_relations, monkeypatch):
        bound = 20  # an entry adds at most 8: an arity-3 clause's 7 codes, plus 1
        monkeypatch.setattr(core, "_RESTRICT_TABLE_CODES", bound)
        first = {signs: clause_relation(signs) for signs in SIGNS}
        assert 0 < _held() == core._restrict_table_held <= bound + 8
        assert len(cold_relations) < len(SIGNS)  # it was cleared on the way
        for _ in range(2):
            for signs in SIGNS:
                again = clause_relation(signs)
                assert again == first[signs] == fresh_clause(signs)
                assert again.name == first[signs].name
                assert again.clause_signs == signs
                assert nae(signs) == fresh_nae(signs)
                assert _held() == core._restrict_table_held <= bound + 8
        assert any(clause_relation(signs) is not first[signs] for signs in SIGNS)

    def test_restrictions_and_relations_count_against_one_budget(self, cold_relations,
                                                                  monkeypatch):
        """Shared relations and restriction entries count against the one
        budget of core's table, so entering either kind can clear both."""
        monkeypatch.setattr(core, "_RESTRICT_TABLE_CODES", 20)
        rels = [clause_relation(signs) for signs in SIGNS[-3:]]  # 3 x (7 codes + 1)
        assert _held() == core._restrict_table_held == 24
        entry = restriction(rels[0]._codeset, (1, 2, 3), 0b001, 0)  # 4 codes + 1
        assert list(cold_relations.values()) == [entry]
        assert _held() == core._restrict_table_held == 5
        assert clause_relation(SIGNS[-3]) is not rels[0]  # held 13
        restriction(rels[0]._codeset, (1, 2, 3), 0, 0)  # 7 codes + 1: held 21
        rel = clause_relation(SIGNS[-2])
        assert list(cold_relations.values()) == [rel] and rel is not rels[1]
        assert _held() == core._restrict_table_held == 8


def clause_sign(rel):
    missing = set(range(1 << rel.arity)) - set(rel.codes)
    bad = missing.pop()
    return tuple((bad >> i) & 1 for i in range(rel.arity))
