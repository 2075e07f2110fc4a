"""satenum.decide on a formula built by core._extend starts from its base's
compiled root and applies the appended units as assumptions.  Its answers
must equal decide on the same constraints built with the public constructor
(no _base, compiled per call) and the brute-force truth table."""

import itertools
import random

import pytest

from abductor import satenum
from abductor.core import (BOT, FALSE0, TOP, TRUE0, Constraint, Formula,
                           Relation, columns, conjoin_literals, entails,
                           formula, truth_table)
from abductor.harness import verify
from abductor.langlib import clause_relation, imp, nae, one_in_k, parity
from abductor.satenum import decide


def units(lits) -> tuple[Constraint, ...]:
    return tuple(Constraint(TOP if l > 0 else BOT, (abs(l),)) for l in lits)


def literal_sets(n: int, max_size: int):
    """Every set of at most max_size literals over 1..n, x and -x together
    included."""
    lits = [l for v in range(1, n + 1) for l in (v, -v)]
    for size in range(min(max_size, len(lits)) + 1):
        yield from itertools.combinations(lits, size)


def check_kb(kb: Formula, max_size: int) -> int:
    """Compare the three answers for KB ∧ E and for the entailment KB ∧ E ⊨ m
    on every literal set E; return the number of sets checked."""
    n = kb.num_vars
    cols = columns(n)
    count = 0
    for lits in literal_sets(n, max_size):
        fast = conjoin_literals(kb, lits)
        public = Formula(n, kb.constraints + units(lits))
        assert fast._base is kb and public._base is None
        table = truth_table(public)
        want = bool(table)
        assert decide(fast) is want, (kb, lits)
        assert decide(public) is want, (kb, lits)
        for m in range(1, n + 1):
            # KB ∧ E ⊨ m iff no model of KB ∧ E sets m to 0
            entailed = not table & cols[m - 1][0]
            assert entails(fast, [m], decide) is entailed, (kb, lits, m)
            assert entails(public, [m], decide) is entailed, (kb, lits, m)
        count += 1
    return count


def random_kb(rng: random.Random, n: int) -> Formula:
    pool = [one_in_k(2), one_in_k(3), parity(3, rng.randrange(2)), imp(),
            clause_relation((0, 1, 1)), clause_relation((0, 0)), nae((0, 1, 0)),
            Relation(2, ()), Relation(2, (0, 1, 2, 3))]
    cons = []
    for _ in range(rng.randrange(n + 2)):
        roll = rng.random()
        if roll < 0.05:
            cons.append((rng.choice((TRUE0, FALSE0)), ()))
        elif roll < 0.15:
            cons.append((rng.choice((TOP, BOT)), (rng.randrange(1, n + 1),)))
        else:
            rel = rng.choice(pool)
            # repeated scope variables allowed
            cons.append((rel, tuple(rng.choices(range(1, n + 1), k=rel.arity))))
    return formula(n, cons)


def positive_chain() -> Formula:
    """The positive 2-clauses (x1 ∨ x2), (x2 ∨ x3), (x3 ∨ x4)."""
    return formula(4, [(clause_relation((0, 0)), (v, v + 1)) for v in range(1, 4)])


def completions(cube: tuple[int, int], n: int) -> int:
    """The assignments over 1..n that extend the cube, as a truth-table bit
    set."""
    amask, vmask = cube
    out = (1 << (1 << n)) - 1
    for v, col in enumerate(columns(n), 1):
        if amask >> (v - 1) & 1:
            out &= col[vmask >> (v - 1) & 1]
    return out


@pytest.fixture
def searches(monkeypatch):
    """The compiled searches satenum._search is entered with, in call order."""
    seen = []
    search = satenum._search

    def spy(s, *args):
        seen.append(s)
        return search(s, *args)

    monkeypatch.setattr(satenum, "_search", spy)
    return seen


class TestCompiledDecide:
    def test_exhaustive_kbs(self):
        kbs = list(dict.fromkeys(inst.kb for inst in verify.exhaustive_instances()))
        assert len(kbs) > 500
        # every literal set over the KB's three variables
        assert sum(check_kb(kb, 6) for kb in kbs) == len(kbs) * 64

    def test_random_kbs_with_repeated_scope_variables(self):
        rng = random.Random(20261018)
        for n in range(1, 7):
            for _ in range(12):
                check_kb(random_kb(rng, n), 3)

    def test_kb_conflicting_at_the_root(self):
        for kb in (formula(3, [(FALSE0, ())]),
                   formula(3, [(one_in_k(2), (1, 2)), (Relation(2, ()), (2, 3))]),
                   formula(2, [(TOP, (1,)), (imp(), (1, 2)), (BOT, (2,))])):
            assert check_kb(kb, 2) == 1 + 2 * kb.num_vars + kb.num_vars * (2 * kb.num_vars - 1)
            assert not decide(conjoin_literals(kb, []))

    def test_literals_on_variables_the_root_forces(self):
        kb = formula(4, [(TOP, (1,)), (imp(), (1, 2)), (one_in_k(2), (2, 3))])
        assert decide(conjoin_literals(kb, [1, 2, -3]))
        assert not decide(conjoin_literals(kb, [-2]))
        assert not decide(conjoin_literals(kb, [3]))
        assert not decide(conjoin_literals(kb, [2, -2]))
        assert entails(conjoin_literals(kb, [4]), [1, 2], decide)
        assert not entails(conjoin_literals(kb, []), [3], decide)
        check_kb(kb, 8)

    def test_no_variables(self):
        for kb, want in ((Formula(0, ()), True), (formula(0, [(TRUE0, ())]), True),
                         (formula(0, [(FALSE0, ())]), False)):
            assert decide(kb) is want
            assert decide(conjoin_literals(kb, [])) is want
            assert check_kb(kb, 2) == 1

    def test_the_base_is_compiled_once(self):
        kb = formula(3, [(one_in_k(2), (1, 2)), (imp(), (2, 3))])
        assert kb._compiled is None
        assert decide(conjoin_literals(kb, [1]))
        compiled = kb._compiled
        assert compiled is not None
        assert not entails(conjoin_literals(kb, [1]), [2], decide)
        assert decide(conjoin_literals(kb, [-1, 3]))
        assert kb._compiled is compiled
        # extending an extended formula keeps the root as the base
        assert conjoin_literals(conjoin_literals(kb, [1]), [3])._base is kb

    def test_public_formula_stores_nothing(self):
        kb = formula(3, [(one_in_k(2), (1, 2))])
        public = Formula(3, kb.constraints + units([1, -2, 3]))
        assert decide(public)
        assert public._base is None and public._compiled is None
        assert kb._compiled is None

    def test_a_cube_hit_does_not_search(self, monkeypatch):
        kb = positive_chain()
        assert decide(conjoin_literals(kb, [1]))
        search = kb._compiled[0]
        # x1 assumed; x2 = 0 is the first branch and forces x3 = 1; x4 is free
        cube = search.cube
        assert cube == (0b0111, 0b0101)
        assert not completions(cube, 4) & ~truth_table(kb)

        def no_search(*args):
            raise AssertionError("searched on a cube hit")

        monkeypatch.setattr(satenum, "_search", no_search)
        for lits in ([], [1, -2, 3], [3, 4], [-4]):
            assert decide(conjoin_literals(kb, lits)), lits
        assert decide(conjoin_literals(conjoin_literals(kb, [-2]), [3]))
        # KB ∧ x1 ∧ -x2 is the cube's own query
        assert not entails(conjoin_literals(kb, [1]), [2], decide)
        assert search.cube is cube

    def test_cube_misses_search(self, searches):
        kb = positive_chain()
        assert decide(conjoin_literals(kb, [1]))
        search = kb._compiled[0]
        assert search.cube == (0b0111, 0b0101)
        table = truth_table(kb)
        # x2 = 1 is against the cube and satisfiable: the search replaces it
        searches.clear()
        assert decide(conjoin_literals(kb, [2])) is True
        assert searches == [search]
        cube = search.cube
        assert cube[0] & 0b0010 and cube[1] & 0b0010
        assert not completions(cube, 4) & ~table
        # x2 = 0 is against the new cube and, with x3 = 0, unsatisfiable: the
        # search answers False and keeps the cube
        lits = [-2, -3]
        assert not truth_table(Formula(4, kb.constraints + units(lits)))
        searches.clear()
        assert decide(conjoin_literals(kb, lits)) is False
        assert searches == [search]
        assert search.cube is cube

    def test_public_formula_leaves_no_cube(self, searches):
        kb = positive_chain()
        assert decide(conjoin_literals(kb, [1]))
        cube = kb._compiled[0].cube
        # the same constraints against the cube, through the public constructor
        public = Formula(kb.num_vars, kb.constraints + units([-1, 2, -3, 4]))
        searches.clear()
        assert decide(public)
        assert len(searches) == 1 and searches[0] is not kb._compiled[0]
        assert searches[0].cube is None
        assert kb._compiled[0].cube is cube
        assert public._base is None and public._compiled is None
