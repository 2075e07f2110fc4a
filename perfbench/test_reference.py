"""Tests of the benchmark's independent reference (no program imports).

    python3 -m pytest perfbench -q
"""

import itertools
import random

from perfbench import reference as ref


def random_problem(rng: random.Random, n: int) -> ref.Problem:
    cons = []
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(1, min(3, n))
        scope = tuple(rng.sample(range(1, n + 1), k))
        every = list(itertools.product((0, 1), repeat=k))
        cons.append((scope, frozenset(rng.sample(every, rng.randint(1, len(every))))))
    vs = list(range(1, n + 1))
    rng.shuffle(vs)
    man = frozenset(vs[:1])
    hyp = frozenset(vs[1:1 + rng.randint(0, n - 1)])
    return ref.Problem(n, tuple(cons), hyp, man)


def naive_models(p: ref.Problem) -> list[int]:
    return [s for s in range(1 << p.n)
            if all(tuple((s >> (v - 1)) & 1 for v in scope) in allowed
                   for scope, allowed in p.constraints)]


def naive_explains(p: ref.Problem, lits) -> bool:
    mods = [s for s in naive_models(p)
            if all(((s >> (abs(l) - 1)) & 1) == (l > 0) for l in lits)]
    return bool(mods) and all(all((s >> (m - 1)) & 1 for m in p.man) for s in mods)


def test_parse_reads_the_documented_format():
    text = ("abd 1\nvars 5\nrel OR2 2 01;10;11\nrel IMP 2 00;01;11\n"
            "rel F 0 .\nrel T 0 e\ncon OR2 5 3\ncon IMP 4 2\ncon T\n"
            "hyp 1 4 5\nman 3\n# comment\n")
    p = ref.parse(text)
    assert p.n == 5 and p.hyp == {1, 4, 5} and p.man == {3}
    assert p.constraints[0] == ((5, 3), frozenset({(0, 1), (1, 0), (1, 1)}))
    assert p.constraints[2] == ((), frozenset({()}))


def test_truth_table_matches_assignment_by_assignment_evaluation():
    rng = random.Random(7)
    tables: dict = {}
    for _ in range(200):
        p = random_problem(rng, rng.randint(1, 8))
        assert ref.models(p, tables) == naive_models(p)


def test_explanation_sets_match_the_definitions():
    """Full and subset-maximal positive explanations against a scan of every
    consistent literal set over H (3^|H| of them)."""
    rng = random.Random(11)
    for _ in range(150):
        p = random_problem(rng, rng.randint(2, 6))
        mods = ref.models(p)
        hyp = sorted(p.hyp)
        full, positive = set(), set()
        for signs in itertools.product((0, 1, 2), repeat=len(hyp)):
            lits = frozenset(h if s == 1 else -h for h, s in zip(hyp, signs) if s)
            if not naive_explains(p, lits):
                continue
            if all(signs):
                full.add(lits)
            if all(l > 0 for l in lits):
                positive.add(lits)
        maximal = {e for e in positive if not any(e < f for f in positive)}
        assert ref.full_explanations(p, mods) == full
        assert ref.positive_maximal(p, mods) == maximal
        for e in full | positive:
            assert ref.explains(p, mods, e)


def test_first_candidates_follow_binary_counting_order():
    rng = random.Random(5)
    for _ in range(100):
        p = random_problem(rng, rng.randint(2, 6))
        mods = ref.models(p)
        hyp = sorted(p.hyp)
        want_full = want_pos = None
        for pattern in range(1 << len(hyp)):
            on = [h for i, h in enumerate(hyp) if (pattern >> i) & 1]
            if want_full is None and naive_explains(p, on + [-h for h in hyp if h not in on]):
                want_full = pattern
            if want_pos is None and naive_explains(p, on):
                want_pos = pattern
        assert ref.first_full_candidate(p, ref.full_explanations(p, mods)) == want_full
        assert ref.first_positive_candidate(p, mods) == want_pos


IMP = frozenset({(0, 0), (0, 1), (1, 1)})
XOR = frozenset({(0, 1), (1, 0)})


def chain(n: int) -> ref.Problem:
    return ref.Problem(n, tuple(((i, i + 1), IMP) for i in range(1, n)),
                       frozenset(range(1, n, 2)), frozenset({n}))


def xsat_chain(m: int) -> ref.Problem:
    return ref.Problem(2 * m, tuple(((2 * i - 1, 2 * i), XOR) for i in range(1, m + 1)),
                       frozenset(range(1, 2 * m, 2)), frozenset({2}))


def branch_nodes(p: ref.Problem) -> int:
    """Branching nodes of propagation + lowest-index variable branching:
    full constraints are dropped, a unary constraint with one value forces
    it, an empty one fails, and a node with no constraint left is a leaf."""

    def assign(cons, var, val):
        out = []
        for scope, allowed in cons:
            if var in scope:
                keep = [i for i, v in enumerate(scope) if v != var]
                allowed = frozenset(tuple(t[i] for i in keep) for t in allowed
                                    if all(t[i] == val for i, v in enumerate(scope) if v == var))
                scope = tuple(scope[i] for i in keep)
            out.append((scope, allowed))
        return out

    def rec(cons) -> int:
        while True:
            if any(not allowed for _, allowed in cons):
                return 0
            cons = [c for c in cons if len(c[1]) < 2 ** len(c[0])]
            units = [(s[0], next(iter(a))[0]) for s, a in cons if len(s) == 1]
            if not units:
                break
            for var, val in units:
                cons = assign(cons, var, val)
        if not cons:
            return 0
        var = min(min(scope) for scope, _ in cons)
        return 1 + rec(assign(cons, var, 0)) + rec(assign(cons, var, 1))

    return rec(list(p.constraints))


def test_chain_closed_forms():
    for n in range(2, 15, 2):
        p = chain(n)
        mods = ref.models(p)
        assert len(mods) == ref.chain_models(n)
        assert ref.full_explanations(p, mods) == ref.chain_full_explanations(n)
        assert len(ref.chain_full_explanations(n)) == n // 2
        assert ref.positive_maximal(p, mods) == {frozenset(range(1, n, 2))}
        assert branch_nodes(p) == ref.chain_branch_nodes(n)


def test_xsat_chain_closed_forms():
    for m in range(1, 7):
        p = xsat_chain(m)
        mods = ref.models(p)
        assert len(mods) == ref.xsat_chain_models(m)
        assert ref.full_explanations(p, mods) == ref.xsat_chain_full_explanations(m)
        assert ref.positive_maximal(p, mods) == frozenset()
        assert branch_nodes(p) == ref.xsat_chain_branch_nodes(m)


def test_disjoint_blocks_closed_forms():
    rng = random.Random(3)
    for _ in range(30):
        sizes = [rng.choice((1, 2, 2, 3)) for _ in range(rng.randint(1, 5))]
        order = list(range(1, sum(sizes) + 1))
        rng.shuffle(order)
        cons, i = [], 0
        for s in sizes:
            scope = tuple(order[i:i + s])
            cons.append((scope, frozenset(tuple(int(a == b) for a in range(s))
                                          for b in range(s))))
            i += s
        p = ref.Problem(sum(sizes), tuple(cons), frozenset(), frozenset())
        assert len(ref.models(p)) == ref.blocks_models(sizes)
        # one branching node per partial assignment of the blocks taken so
        # far, blocks in increasing size
        nodes, frontier = 0, [()]
        for s in sorted(sizes):
            nodes += len(frontier)
            frontier = [f + (c,) for f in frontier for c in range(s)]
        assert ref.blocks_branch_nodes(sizes) == nodes


def simplesat_nodes(n: int) -> int:
    """(1,...,q) clause branching on the width-2 adversarial family: clauses
    {i, i+1} and one disjunction of the terms {i, i+1}."""

    def rec(clauses, terms) -> int:
        if not clauses:
            return 0
        first = sorted(clauses[0])
        nodes = 1
        for i, one in enumerate(first):
            zeros = set(first[:i])
            rest = [c - zeros for c in clauses[1:] if one not in c]
            alive = [t for t in terms if one not in t]
            if all(rest) and alive:
                nodes += rec(rest, alive)
        return nodes

    pairs = [frozenset((i, i + 1)) for i in range(1, n)]
    return rec(pairs, pairs)


def test_simplesat_closed_form():
    for n in range(2, 16):
        assert simplesat_nodes(n) == ref.simplesat_branch_nodes(n)
