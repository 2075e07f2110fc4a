"""Seed-deterministic instance generators for the built-in families.

Every generator keeps H and M disjoint, and every one but qbf4cnf covers all
n variables with constraints, so H and M live inside var(KB).  qbf4cnf can
leave some of H or M outside var(KB): `--num-x 3 --num-y 1 --terms 1 --seed
0` writes `hyp 1 2 3`, but its constraints use only variables 2, 4 and 5.
The clique / QBF / CNF-SAT families build their combinatorial object first
and route it through the matching reduction construction.  Each generator
checks its sizes before its first draw and raises ValueError naming the
parameter and its bound.
"""

from __future__ import annotations

import random
from typing import Callable

from ..core import AbductionInstance, Constraint, Formula
from ..langlib import (all_zero, clause_relation, equations, nae, one_in_k,
                       parity)
from ..reductions import (CnfFormula, ColoredGraph, IMP_REL, QbfInstance,
                          clique_to_abd, cnfsat_to_abd_lb, qbf_to_abd4cnf)


# widest constraint of the equations/aff families, largest equations modulus
MAX_K = 3
MAX_P = 4


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def _blocks(rng: random.Random, n: int, sizes: tuple[int, ...]) -> list[list[int]]:
    """Shuffle 1..n and cut into blocks with sizes drawn from `sizes`."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    out: list[list[int]] = []
    i = 0
    while i < n:
        size = min(rng.choice(sizes), n - i)
        out.append(order[i:i + size])
        i += size
    return out


def _at_least(what: str, name: str, value: int, bound: int) -> None:
    """Raise ValueError naming the parameter and its bound if value < bound."""
    if value < bound:
        raise ValueError(f"{what} need {name} >= {bound}, got {value}")


def _pick_hm(rng: random.Random, n: int,
             m_size: int | None = None) -> tuple[frozenset[int], frozenset[int]]:
    """M of m_size (random if None) and H of half the rest: at least one
    variable when any is left outside M, none otherwise."""
    vs = list(range(1, n + 1))
    rng.shuffle(vs)
    m_size = m_size if m_size is not None else rng.choice((1, 1, 2))
    man = frozenset(vs[:m_size])
    rest = vs[m_size:]
    h_size = max(1, len(rest) // 2)
    hyp = frozenset(rest[:h_size])
    return hyp, man


def gen_xsat_chain(m: int) -> AbductionInstance:
    """m disjoint exactly-one pairs: the model count is exactly 2^m (n = 2m)."""
    _at_least("xsat-chain instances", "m", m, 0)
    n = 2 * m
    r12 = one_in_k(2)
    cons = [Constraint(r12, (2 * i - 1, 2 * i)) for i in range(1, m + 1)]
    hyp = frozenset(range(1, n + 1, 2))
    man = frozenset({2}) if m >= 1 else frozenset()
    return AbductionInstance(Formula(n, tuple(cons)), hyp, man)


def gen_xsat(n: int, seed: int) -> AbductionInstance:
    """Exactly-one blocks plus one exactly-one constraint across them."""
    _at_least("xsat instances", "n", n, 1)
    rng = _rng("xsat", n, seed)
    cons = []
    for block in _blocks(rng, n, (2, 2, 3)):
        k = len(block)
        rel = one_in_k(k) if (k > 1 or rng.random() < 0.5) else all_zero(1)
        cons.append(Constraint(rel, tuple(block)))
    k = rng.choice((2, 3))
    scope = tuple(rng.sample(range(1, n + 1), min(k, n)))
    cons.append(Constraint(one_in_k(len(scope)), scope))
    hyp, man = _pick_hm(rng, n)
    return AbductionInstance(Formula(n, tuple(cons)), hyp, man)


def gen_xsat_disjoint(n: int, seed: int) -> AbductionInstance:
    """Disjoint-scope exactly-one blocks only (the scaling benchmark family)."""
    rng = _rng("xsatd", n, seed)
    cons = [Constraint(one_in_k(len(b)), tuple(b)) for b in _blocks(rng, n, (2, 2, 3))]
    hyp, man = _pick_hm(rng, n)
    return AbductionInstance(Formula(n, tuple(cons)), hyp, man)


def gen_equations(n: int, seed: int) -> AbductionInstance:
    _at_least("equations instances", "n", n, 1)
    rng = _rng("equations", n, seed)
    cons = []
    for block in _blocks(rng, n, tuple(range(2, MAX_K + 1))):
        k = len(block)
        p = rng.randint(2, min(k + 1, MAX_P))
        q = rng.randrange(p)
        cons.append(Constraint(equations(k, p, q), tuple(block)))
    k = min(2, n)
    scope = tuple(rng.sample(range(1, n + 1), k))
    cons.append(Constraint(equations(k, 2, rng.randrange(2)), scope))
    hyp, man = _pick_hm(rng, n)
    return AbductionInstance(Formula(n, tuple(cons)), hyp, man)


def gen_aff(n: int, seed: int) -> AbductionInstance:
    _at_least("aff instances", "n", n, 2)
    rng = _rng("aff", n, seed)
    cons = []
    for block in _blocks(rng, n, tuple(range(1, MAX_K + 1))):
        cons.append(Constraint(parity(len(block), rng.randrange(2)), tuple(block)))
    for _ in range(2):
        k = rng.randint(2, min(MAX_K, n))
        scope = tuple(rng.sample(range(1, n + 1), k))
        cons.append(Constraint(parity(k, rng.randrange(2)), scope))
    hyp, man = _pick_hm(rng, n)
    return AbductionInstance(Formula(n, tuple(cons)), hyp, man)


def gen_kcnf_pos(n: int, seed: int, k: int = 3) -> AbductionInstance:
    _at_least("kcnf-pos instances", "n", n, 2)
    _at_least("kcnf-pos instances", "k", k, 2)
    rng = _rng("kcnf+", n, seed, k)
    cons = []
    covered: set[int] = set()
    for _ in range(max(2, n)):
        j = rng.randint(2, min(k, n))
        scope = tuple(sorted(rng.sample(range(1, n + 1), j)))
        cons.append(Constraint(clause_relation((0,) * j, f"OR{j}"), scope))
        covered.update(scope)
    for v in sorted(set(range(1, n + 1)) - covered):
        cons.append(Constraint(clause_relation((0,), "OR1"), (v,)))
    rng2 = _rng("kcnf+hm", n, seed)
    _, man = _pick_hm(rng2, n, m_size=rng2.choice((1, 2)))
    hyp = frozenset(range(1, n + 1)) - man
    return AbductionInstance(Formula(n, tuple(cons)), hyp, man)


def gen_kcnf_neg_imp(n: int, seed: int, k: int = 2) -> AbductionInstance:
    _at_least("kcnf-neg-imp instances", "n", n, 2)
    _at_least("kcnf-neg-imp instances", "k", k, 2)
    rng = _rng("negimp", n, seed, k)
    cons = []
    covered: set[int] = set()
    for _ in range(max(2, n // 2)):
        j = rng.randint(2, min(k, n))
        scope = tuple(sorted(rng.sample(range(1, n + 1), j)))
        cons.append(Constraint(clause_relation((1,) * j, f"NOR{j}"), scope))
        covered.update(scope)
    for _ in range(max(2, n)):
        u, v = rng.sample(range(1, n + 1), 2)
        cons.append(Constraint(IMP_REL, (u, v)))
        covered.update((u, v))
    for v in sorted(set(range(1, n + 1)) - covered):
        cons.append(Constraint(clause_relation((1,), "NOR1"), (v,)))
    hyp, man = _pick_hm(rng, n)
    return AbductionInstance(Formula(n, tuple(cons)), hyp, man)


def gen_nae3(n: int, seed: int) -> AbductionInstance:
    """Random ternary not-all-equal constraints.

    Always includes one even-sign constraint, so the instance language
    qualifies for inequality derivation / constant elimination (mixed sign
    patterns contain both constant tuples).
    """
    _at_least("NAE-3 instances", "n", n, 3)
    rng = _rng("nae3", n, seed)
    cons = [Constraint(nae((0, 0, 0)), tuple(rng.sample(range(1, n + 1), 3)))]
    covered: set[int] = set(cons[0].scope)
    for _ in range(max(1, n - 2)):
        scope = tuple(rng.sample(range(1, n + 1), 3))
        signs = tuple(rng.randrange(2) for _ in range(3))
        cons.append(Constraint(nae(signs), scope))
        covered.update(scope)
    leftovers = sorted(set(range(1, n + 1)) - covered)
    for v in leftovers:
        others = rng.sample([u for u in range(1, n + 1) if u != v], 2)
        cons.append(Constraint(nae((0, 0, 0)), (v, *others)))
    hyp, man = _pick_hm(rng, n)
    return AbductionInstance(Formula(n, tuple(cons)), hyp, man)


def gen_2cnf(n: int, seed: int) -> AbductionInstance:
    """General-polarity 2-CNF (the clause-merging reduction's domain)."""
    _at_least("2cnf instances", "n", n, 2)
    rng = _rng("2cnf", n, seed)
    cons = []
    covered: set[int] = set()
    for _ in range(max(3, 2 * n)):
        u, v = rng.sample(range(1, n + 1), 2)
        signs = (rng.randrange(2), rng.randrange(2))
        cons.append(Constraint(clause_relation(signs), (u, v)))
        covered.update((u, v))
    for v in sorted(set(range(1, n + 1)) - covered):
        cons.append(Constraint(clause_relation((rng.randrange(2),)), (v,)))
    hyp, man = _pick_hm(rng, n)
    return AbductionInstance(Formula(n, tuple(cons)), hyp, man)


def gen_colored_graph(num_colors: int, per_color: int, seed: int,
                      edge_prob: float = 0.5) -> ColoredGraph:
    """A random graph on num_colors * per_color vertices, each colour class
    an independent set (the clique family reads num_colors as --colors)."""
    _at_least("clique instances", "colors", num_colors, 1)
    _at_least("clique instances", "per-color", per_color, 1)
    rng = _rng("clique", num_colors, per_color, seed)
    nv = num_colors * per_color
    colors = tuple(1 + (v - 1) // per_color for v in range(1, nv + 1))
    edges = set()
    for u in range(1, nv + 1):
        for v in range(u + 1, nv + 1):
            if colors[u - 1] != colors[v - 1] and rng.random() < edge_prob:
                edges.add((u, v))
    return ColoredGraph(nv, num_colors, colors, frozenset(edges))


def gen_qbf_instance(num_x: int, num_y: int, num_terms: int, seed: int) -> QbfInstance:
    """A random DNF of num_terms terms of 1..3 literals over the num_x
    existential and num_y universal variables (the qbf4cnf family reads
    num_terms as --terms)."""
    _at_least("QBF instances", "num-x", num_x, 0)
    _at_least("QBF instances", "num-y", num_y, 0)
    _at_least("QBF instances", "terms", num_terms, 0)
    if num_terms > 0:
        _at_least("QBF terms", "num_x + num_y", num_x + num_y, 1)
    rng = _rng("qbf", num_x, num_y, num_terms, seed)
    n = num_x + num_y
    terms = []
    for _ in range(num_terms):
        size = rng.randint(1, min(3, n))
        vs = rng.sample(range(1, n + 1), size)
        terms.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return QbfInstance(num_x, num_y, tuple(terms))


def gen_cnf_formula(n: int, num_clauses: int, width: int, seed: int) -> CnfFormula:
    """A random CNF of num_clauses clauses of 1..width literals over n
    variables (the cnfsat-lb family reads num_clauses as --clauses)."""
    _at_least("CNF formulas", "n", n, 0)
    _at_least("CNF formulas", "clauses", num_clauses, 0)
    if num_clauses > 0:
        _at_least("CNF clauses", "n", n, 1)
        _at_least("CNF clauses", "width", width, 1)
    rng = _rng("cnf", n, num_clauses, width, seed)
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, min(width, n))
        vs = rng.sample(range(1, n + 1), size)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfFormula(n, tuple(clauses))


# each family takes exactly the keyword parameters it reads
FAMILIES: dict[str, Callable[..., AbductionInstance]] = {
    "xsat-chain": lambda m=3: gen_xsat_chain(m),
    "xsat": lambda seed=0, n=10: gen_xsat(n, seed),
    "equations": lambda seed=0, n=10: gen_equations(n, seed),
    "aff": lambda seed=0, n=10: gen_aff(n, seed),
    "kcnf-pos": lambda seed=0, n=10, k=3: gen_kcnf_pos(n, seed, k),
    "kcnf-neg-imp": lambda seed=0, n=10, k=2: gen_kcnf_neg_imp(n, seed, k),
    "nae": lambda seed=0, n=9: gen_nae3(n, seed),
    "2cnf": lambda seed=0, n=8: gen_2cnf(n, seed),
    "clique": lambda seed=0, colors=3, per_color=3, edge_prob=0.5:
        clique_to_abd(gen_colored_graph(colors, per_color, seed, edge_prob))[0],
    "qbf4cnf": lambda seed=0, num_x=3, num_y=2, terms=3:
        qbf_to_abd4cnf(gen_qbf_instance(num_x, num_y, terms, seed))[0],
    "cnfsat-lb": lambda seed=0, n=4, clauses=6, width=3:
        cnfsat_to_abd_lb(gen_cnf_formula(n, clauses, width, seed))[0],
}
