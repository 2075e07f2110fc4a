"""satenum.decide on a KB compiled by compile_kb starts from the KB's
propagated root and applies the literals, given as the masks of
core.literal_masks, as assumptions.  Its answers must equal decide on a fresh
compile of KB ∧ literals, built with the public constructor as the KB's
constraints plus one TOP/BOT unit per literal, and the brute-force truth
table.  A compiled KB, its memos and its cube belong to one solver call."""

import dataclasses
import itertools
import random

import pytest

from abductor import satenum, solvers
from abductor.core import (BOT, FALSE0, TOP, TRUE0, AbductionInstance,
                           Constraint, Formula, Relation, StructureError, columns,
                           entails, formula, literal_masks, truth_table)
from abductor.harness import verify
from abductor.langlib import clause_relation, imp, nae, one_in_k, parity
from abductor.satenum import compile_kb, decide


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
    on every literal set E, all on one compiled KB; return the number of sets
    checked."""
    n = kb.num_vars
    cols = columns(n)
    compiled = compile_kb(kb)
    count = 0
    for lits in literal_sets(n, max_size):
        public = Formula(n, kb.constraints + units(lits))
        table = truth_table(public)
        want = bool(table)
        pos, neg = literal_masks(lits)
        assert decide(compiled, pos, neg) is want, (kb, lits)
        assert decide(compile_kb(public)) is want, (kb, lits)
        for m in range(1, n + 1):
            # KB ∧ E ⊨ m iff no model of KB ∧ E sets m to 0
            entailed = not table & cols[m - 1][0]
            assert entails(compiled, pos, neg, [m], decide) is entailed, (kb, lits, m)
            assert entails(compile_kb(public), 0, 0, [m], decide) is entailed, (kb, lits, m)
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
    """The compiled searches satenum._search is entered with, in call order;
    compile_kb's check of the root is not a search and is not recorded."""
    seen = []
    search = satenum._search

    def spy(s, *args, root_only=False):
        if not root_only:
            seen.append(s)
        return search(s, *args, root_only=root_only)

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
            compiled = compile_kb(kb)
            assert compiled.start is None
            assert not decide(compiled)

    def test_literals_on_variables_the_root_forces(self):
        kb = formula(4, [(TOP, (1,)), (imp(), (1, 2)), (one_in_k(2), (2, 3))])
        compiled = compile_kb(kb)
        assert decide(compiled, *literal_masks([1, 2, -3]))
        assert not decide(compiled, *literal_masks([-2]))
        assert not decide(compiled, *literal_masks([3]))
        assert not decide(compiled, *literal_masks([2, -2]))
        assert entails(compiled, *literal_masks([4]), [1, 2], decide)
        assert not entails(compiled, 0, 0, [3], decide)
        check_kb(kb, 8)

    def test_assumption_masks_that_clash(self):
        """x and ¬x assumed together, and an assumption against a value the
        root forced, answer False before the cube is looked at."""
        kb = formula(4, [(TOP, (1,)), (imp(), (1, 2)), (one_in_k(2), (2, 3))])
        compiled = compile_kb(kb)
        assert compiled.start[:2] == (0b0111, 0b0011)
        assert decide(compiled, 0b1000, 0)
        assert compiled.cube is not None
        assert not decide(compiled, 0b1000, 0b1000)
        assert not decide(compiled, 0b1001, 0b1100)
        # ¬x2 against the forced x2 = 1, x3 against the forced x3 = 0
        assert not decide(compiled, 0, 0b0010)
        assert not decide(compiled, 0b0100, 0)
        # agreeing with the forced values is no clash
        assert decide(compiled, 0b0011, 0b0100)
        # ¬m on an assumed m: KB ∧ E ⊨ m; on an assumed ¬m: not, when KB ∧ E has a model
        assert entails(compiled, 0b1000, 0, [4], decide)
        assert not entails(compiled, 0, 0b1000, [4], decide)
        assert entails(compiled, 0, 0, [1, 2], decide)
        check_kb(kb, 8)

    @pytest.mark.parametrize("pos, neg", [(0b10000, 0), (0, 0b10000), (0b10001, 0b00001),
                                          (-1, 0), (0, -2)])
    def test_a_mask_bit_past_the_variables(self, pos, neg):
        """A bit past n raises, also together with x and ¬x, after a clash
        with the root and on a KB that conflicts at its root."""
        compiled = compile_kb(formula(4, [(TOP, (1,))]))
        with pytest.raises(StructureError):
            decide(compiled, pos, neg)
        with pytest.raises(StructureError):
            decide(compiled, pos | 0b0010, neg | 0b0011)
        with pytest.raises(StructureError):
            decide(compile_kb(formula(4, [(FALSE0, ())])), pos, neg)
        with pytest.raises(StructureError):
            entails(compiled, 0, 0, [5], decide)

    def test_literal_masks(self):
        assert literal_masks([]) == (0, 0)
        assert literal_masks([1, -2, 3, -3, 3]) == (0b101, 0b110)
        assert literal_masks(iter([-5])) == (0, 0b10000)
        for lits in ([0], [1, 0, -2]):
            with pytest.raises(StructureError):
                literal_masks(lits)

    def test_no_variables(self):
        for kb, want in ((Formula(0, ()), True), (formula(0, [(TRUE0, ())]), True),
                         (formula(0, [(FALSE0, ())]), False)):
            assert decide(compile_kb(kb)) is want
            assert decide(compile_kb(kb), 0, 0) is want
            assert check_kb(kb, 2) == 1

    def test_the_base_is_compiled_once(self, searches):
        """decide and entails calls on one compiled KB all search on it."""
        compiled = compile_kb(formula(3, [(one_in_k(2), (1, 2)), (imp(), (2, 3))]))
        assert decide(compiled, *literal_masks([1]))
        assert not entails(compiled, *literal_masks([1]), [2], decide)
        assert decide(compiled, *literal_masks([-1, 3]))
        assert searches and all(s is compiled for s in searches)

    def test_no_engine_stores_anything_on_a_formula(self):
        """A formula holds its two fields and the structure facts it built on
        construction, and no engine adds, replaces or drops any of them."""
        kb = formula(3, [(one_in_k(2), (1, 2))])
        public = Formula(3, kb.constraints + units([1, -2, 3]))
        snapshots = {id(phi): dict(vars(phi)) for phi in (kb, public)}
        assert [f.name for f in dataclasses.fields(Formula)] == ["num_vars", "constraints"]
        assert decide(compile_kb(public))
        assert decide(compile_kb(kb), *literal_masks([1, -2, 3]))
        inst = AbductionInstance(kb, frozenset({1, 2}), frozenset({3}))
        for engine in solvers.ENGINES:
            if engine.applies is None or engine.applies(inst):
                engine.run(inst)
        for phi in (kb, public):
            before = snapshots[id(phi)]
            assert set(before) == {"num_vars", "constraints", "_used", "_smasks",
                                   "_occbits", "_hash"}
            assert vars(phi).keys() == before.keys()
            assert all(vars(phi)[key] is value for key, value in before.items())

    def test_a_cube_hit_does_not_search(self, monkeypatch):
        kb = positive_chain()
        compiled = compile_kb(kb)
        assert decide(compiled, *literal_masks([1]))
        # x1 assumed; x2 = 0 is the first branch and forces x3 = 1; x4 is free
        cube = compiled.cube
        assert cube == (0b0111, 0b0101)
        assert not completions(cube, 4) & ~truth_table(kb)

        def no_search(*args):
            raise AssertionError("searched on a cube hit")

        monkeypatch.setattr(satenum, "_search", no_search)
        for lits in ([], [1, -2, 3], [3, 4], [-4], [-2, 3]):
            assert decide(compiled, *literal_masks(lits)), lits
        # KB ∧ x1 ∧ -x2 is the cube's own query
        assert not entails(compiled, *literal_masks([1]), [2], decide)
        assert compiled.cube is cube

    def test_cube_misses_search(self, searches):
        kb = positive_chain()
        compiled = compile_kb(kb)
        assert decide(compiled, *literal_masks([1]))
        assert compiled.cube == (0b0111, 0b0101)
        table = truth_table(kb)
        # x2 = 1 is against the cube and satisfiable: the search replaces it
        searches.clear()
        assert decide(compiled, *literal_masks([2])) is True
        assert searches == [compiled]
        cube = compiled.cube
        assert cube[0] & 0b0010 and cube[1] & 0b0010
        assert not completions(cube, 4) & ~table
        # x2 = 0 is against the new cube and, with x3 = 0, unsatisfiable: the
        # search answers False and keeps the cube
        lits = [-2, -3]
        assert not truth_table(Formula(4, kb.constraints + units(lits)))
        searches.clear()
        assert decide(compiled, *literal_masks(lits)) is False
        assert searches == [compiled]
        assert compiled.cube is cube

    def test_the_last_conflict_refutes_unsearched(self, monkeypatch):
        kb = positive_chain()
        compiled = compile_kb(kb)
        # ¬x1 ∧ ¬x2 empties (x1 ∨ x2), constraint 0
        assert not decide(compiled, *literal_masks([-1, -2]))
        assert compiled.conflict == 0

        def no_search(*args):
            raise AssertionError("searched where the last conflict refutes")

        monkeypatch.setattr(satenum, "_search", no_search)
        assert not decide(compiled, *literal_masks([-2, -1, 4]))
        monkeypatch.undo()
        # (x1 ∨ x2) is not empty under ¬x1 alone, so the slot answers nothing
        assert decide(compiled, *literal_masks([-1]))

    def test_the_nor2_descent_searches_twice(self, searches):
        """pabd_recursive on the NOR2 chain, H = every variable and M empty,
        calls decide with x_i..x_n set to 1 and x_1..x_{i-1} to 0, for
        i = 1..n.  The check walks the highest constraint first, so the first
        call's conflict is NOR2(x_{n-1}, x_n), and the last-conflict slot
        answers every later call but the last unsearched."""
        n = 128
        nor2 = Relation(2, (0, 1, 2))  # not both
        kb = formula(n, [(nor2, (i, i + 1)) for i in range(1, n)])
        res = solvers.pabd_recursive(AbductionInstance(kb, frozenset(range(1, n + 1)),
                                                       frozenset()))
        assert res.answer and res.witness.literals == {n}
        assert len(searches) <= 2

    def test_the_search_branches_toward_the_cube(self):
        kb = formula(4, [(clause_relation((0, 0)), (1, 2)), (clause_relation((0, 0)), (3, 4))])
        compiled = compile_kb(kb)
        # x3 assumed; x1 = 0 is the first branch and forces x2 = 1
        assert decide(compiled, *literal_masks([3]))
        assert compiled.cube == (0b0111, 0b0110)
        # ¬x2 forces x1 = 1; x3 is entered at the cube's 1, which satisfies
        # (x3 ∨ x4), where 0 first would have forced x4 = 1
        assert decide(compiled, *literal_masks([-2]))
        assert compiled.cube == (0b0111, 0b0101)
        assert not completions(compiled.cube, 4) & ~truth_table(kb)

    def test_public_formula_leaves_no_cube(self, searches):
        kb = positive_chain()
        compiled = compile_kb(kb)
        assert decide(compiled, *literal_masks([1]))
        cube = compiled.cube
        # the same constraints against the cube, through the public constructor
        public = compile_kb(Formula(kb.num_vars, kb.constraints + units([-1, 2, -3, 4])))
        assert public.cube is None
        searches.clear()
        assert decide(public)
        assert searches == [public]
        assert compiled.cube is cube
        # a second compile of the same KB starts without the first one's cube
        again = compile_kb(kb)
        assert again.cube is None
        searches.clear()
        assert decide(again, *literal_masks([1]))
        assert searches == [again]

    def test_each_solver_call_compiles_its_own_kb(self, searches):
        """A solver call compiles its KB once, and two solver calls in a row
        on one KB search on different compiled KBs, so a cube set during the
        first call is not seen by the second."""
        kb = positive_chain()
        inst = AbductionInstance(kb, frozenset({1, 2}), frozenset({3}))
        for solve in (solvers.baseline_abd, solvers.baseline_pabd, solvers.pabd_recursive):
            searches.clear()
            first = solve(inst)
            calls = len(searches)
            second = solve(inst)
            assert first == second, solve
            assert searches[:calls] and searches[calls:], solve
            one, two = searches[0], searches[calls]
            assert one is not two and all(s is one for s in searches[:calls])
            # the first call left a cube, and the second call searched anew
            assert one.cube is not None and two.cube is not None, solve
            assert all(s is two for s in searches[calls:])
            assert len(searches) == 2 * calls, solve
