"""Independent reference answers for the benchmark's checks.

Nothing here imports the program.  Instances reach this module as text in
the documented `abd 1` format, read by a parser of its own, and answers come
from two sources:

* a truth table over all 2^n assignments, bit-parallel over Python ints
  (bit s of a table is the value at assignment s, where bit v-1 of s is the
  value of variable v), from which the model list, the full explanations,
  the subset-maximal positive explanations and witness validity follow by
  the definitions;
* closed forms for the structured families, which hold at sizes no truth
  table reaches.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Problem:
    """An abduction instance: constraints are (scope, allowed value tuples)."""

    n: int
    constraints: tuple[tuple[tuple[int, ...], frozenset[tuple[int, ...]]], ...]
    hyp: frozenset[int]
    man: frozenset[int]


def parse(text: str) -> Problem:
    """Read the `abd 1` text format (coordinate 1 first in every tuple)."""
    n = None
    rels: dict[str, frozenset[tuple[int, ...]]] = {}
    cons = []
    hyp: set[int] = set()
    man: set[int] = set()
    lines = [l.strip() for l in text.splitlines()]
    lines = [l for l in lines if l and not l.startswith("#")]
    if not lines or lines[0] != "abd 1":
        raise ValueError("missing 'abd 1' header")
    for line in lines[1:]:
        kind, *rest = line.split()
        if kind == "vars":
            n = int(rest[0])
        elif kind == "rel":
            name, arity, field = rest[0], int(rest[1]), rest[2] if len(rest) > 2 else "."
            tuples = set()
            for part in field.split(";"):
                if part in (".", ""):
                    continue
                if part == "e":
                    tuples.add(())
                elif len(part) != arity or set(part) - {"0", "1"}:
                    raise ValueError(f"bad tuple {part!r} for arity {arity}")
                else:
                    tuples.add(tuple(int(c) for c in part))
            rels[name] = frozenset(tuples)
        elif kind == "con":
            cons.append((tuple(int(v) for v in rest[1:]), rels[rest[0]]))
        elif kind == "hyp":
            hyp.update(int(v) for v in rest)
        elif kind == "man":
            man.update(int(v) for v in rest)
        else:
            raise ValueError(f"unknown line {line!r}")
    if n is None:
        raise ValueError("missing 'vars' line")
    return Problem(n, tuple(cons), frozenset(hyp), frozenset(man))


class TruthTable:
    """Bit-parallel evaluation over every assignment of n variables."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.size = 1 << n
        self.full = (1 << self.size) - 1
        self._vars: dict[tuple[int, int], int] = {}

    def var(self, v: int, value: int) -> int:
        """Table of the literal x_v = value.  x_v has period 2^v: low half 0,
        high half 1."""
        if (v, value) not in self._vars:
            half = 1 << (v - 1)
            table = ((1 << half) - 1) << half
            width = 2 * half
            while width < self.size:
                table |= table << width
                width *= 2
            self._vars[v, 1] = table
            self._vars[v, 0] = self.full ^ table
        return self._vars[v, value]

    def constraint(self, scope: tuple[int, ...], allowed) -> int:
        """OR over the allowed tuples, or the complement of the OR over the
        forbidden ones when those are fewer."""
        forbidden = 2 ** len(scope) - len(allowed)
        if forbidden < len(allowed):
            every = [tuple((code >> i) & 1 for i in range(len(scope)))
                     for code in range(2 ** len(scope))]
            return self.full ^ self._any([t for t in every if t not in allowed], scope)
        return self._any(allowed, scope)

    def _any(self, tuples, scope: tuple[int, ...]) -> int:
        out = 0
        for values in tuples:
            term = self.full
            for v, b in zip(scope, values):
                term &= self.var(v, b)
            out |= term
        return out

    def formula(self, p: Problem) -> int:
        table = self.full
        for scope, allowed in p.constraints:
            table &= self.constraint(scope, allowed)
        return table


def set_bits(table: int, size: int) -> list[int]:
    """Positions of the 1 bits, ascending."""
    raw = table.to_bytes((size + 7) // 8, "little")
    out = []
    for m in re.finditer(rb"[^\x00]", raw):
        byte, base = raw[m.start()], 8 * m.start()
        out.extend(base + i for i in range(8) if (byte >> i) & 1)
    return out


def models(p: Problem, tables: dict[int, TruthTable] | None = None) -> list[int]:
    """Every model of the knowledge base, as assignment ints.  Pass a dict to
    share the per-n variable tables between instances."""
    tables = {} if tables is None else tables
    tt = tables.setdefault(p.n, TruthTable(p.n))
    return set_bits(tt.formula(p), tt.size)


def _bit(sigma: int, v: int) -> int:
    return (sigma >> (v - 1)) & 1


def _satisfies_man(p: Problem, sigma: int) -> bool:
    return all(_bit(sigma, m) for m in p.man)


def full_explanations(p: Problem, mods: list[int]) -> frozenset[frozenset[int]]:
    """Every E assigning all of H with KB∧E satisfiable and KB∧E ⊨ M."""
    hyp = sorted(p.hyp)
    good: set[tuple[int, ...]] = set()
    bad: set[tuple[int, ...]] = set()
    for sigma in mods:
        proj = tuple(_bit(sigma, h) for h in hyp)
        (good if _satisfies_man(p, sigma) else bad).add(proj)
    return frozenset(frozenset(h if b else -h for h, b in zip(hyp, proj))
                     for proj in good - bad)


def positive_table(p: Problem, mods: list[int]) -> tuple[list[int], bytearray]:
    """(sorted H, table) where table[e] is 1 iff the subset e ⊆ H (bit i ↔
    i-th hypothesis) is a positive explanation.

    E is an explanation iff some model's positive pattern over H contains E
    (KB∧E is satisfiable) and no pattern of a model violating M contains it
    (KB∧E ⊨ M).  Both are superset closures over the subset lattice.
    """
    hyp = sorted(p.hyp)
    h = len(hyp)
    sat = bytearray(1 << h)
    covered = bytearray(1 << h)
    for sigma in mods:
        pat = sum(1 << i for i, v in enumerate(hyp) if _bit(sigma, v))
        sat[pat] = 1
        if not _satisfies_man(p, sigma):
            covered[pat] = 1
    for i in range(h):
        bit = 1 << i
        for e in range(1 << h):
            if not e & bit:
                sat[e] |= sat[e | bit]
                covered[e] |= covered[e | bit]
    return hyp, bytearray(s & (1 - c) for s, c in zip(sat, covered))


def positive_maximal(p: Problem, mods: list[int]) -> frozenset[frozenset[int]]:
    """The subset-maximal positive explanations."""
    hyp, table = positive_table(p, mods)
    ok = sorted((e for e in range(len(table)) if table[e]),
                key=lambda e: -bin(e).count("1"))
    maximal: list[int] = []
    for e in ok:
        if not any(q & e == e for q in maximal):
            maximal.append(e)
    return frozenset(frozenset(v for i, v in enumerate(hyp) if (e >> i) & 1)
                     for e in maximal)


def explains(p: Problem, mods: list[int], lits) -> bool:
    """Witness validity: lits is a consistent set of literals over H, some
    model agrees with it, and every model agreeing with it satisfies M."""
    lits = frozenset(lits)
    if any(abs(l) not in p.hyp for l in lits) or any(-l in lits for l in lits):
        return False
    agree = [s for s in mods if all(_bit(s, abs(l)) == (l > 0) for l in lits)]
    return bool(agree) and all(_satisfies_man(p, s) for s in agree)


def first_full_candidate(p: Problem, full: frozenset[frozenset[int]]) -> int | None:
    """Index of the first full explanation in binary counting order over
    sorted H (bit i set ↔ i-th hypothesis positive)."""
    hyp = sorted(p.hyp)
    for pattern in range(1 << len(hyp)):
        if frozenset(h if (pattern >> i) & 1 else -h for i, h in enumerate(hyp)) in full:
            return pattern
    return None


def first_positive_candidate(p: Problem, mods: list[int]) -> int | None:
    """Index of the first positive explanation in the same order."""
    _, table = positive_table(p, mods)
    return next((e for e in range(len(table)) if table[e]), None)


# ---------------------------------------------------------------------------
# closed forms of the structured families
# ---------------------------------------------------------------------------

def chain_models(n: int) -> int:
    """x1→x2→…→xn: the models are 0^k 1^(n-k) for k = 0..n."""
    return n + 1


def chain_full_explanations(n: int) -> frozenset[frozenset[int]]:
    """H = the odd variables, M = {xn}, n even: fixing the odd variables
    from a threshold t on to 1 (t odd, t ≤ n-1) forces xn; the all-zero
    pattern admits xn = 0.  That gives n/2 explanations."""
    hyp = range(1, n, 2)
    return frozenset(frozenset(h if h >= t else -h for h in hyp)
                     for t in range(1, n, 2))


def chain_branch_nodes(n: int) -> int:
    """Lowest-index variable branching: x1 = 1 propagates to the end, x1 = 0
    leaves the chain on x2..xn; the last implication goes trivial once
    x(n-1) = 0.  So one branching node per variable but the last."""
    return n - 1


def xsat_chain_models(m: int) -> int:
    """m disjoint exactly-one pairs."""
    return 2 ** m


def xsat_chain_branch_nodes(m: int) -> int:
    """Each pair branches once below every model prefix: 1 + 2 + … + 2^(m-1)."""
    return 2 ** m - 1


def xsat_chain_full_explanations(m: int) -> frozenset[frozenset[int]]:
    """H = {1, 3, …, 2m-1}, M = {2}: x2 holds exactly when x1 = 0, so the
    full explanations are the 2^(m-1) assignments of H with ¬x1."""
    rest = range(3, 2 * m, 2)
    out = []
    for pattern in range(1 << (m - 1)):
        out.append(frozenset([-1] + [h if (pattern >> i) & 1 else -h
                                     for i, h in enumerate(rest)]))
    return frozenset(out)


def blocks_models(sizes) -> int:
    """Disjoint exactly-one blocks: one true variable per block."""
    out = 1
    for s in sizes:
        out *= s
    return out


def blocks_branch_nodes(sizes) -> int:
    """Per-tuple branching takes blocks in increasing s^(1/s), which is
    increasing size; every node at depth j branches on block j."""
    total, width = 0, 1
    for s in sorted(sizes):
        total += width
        width *= s
    return total


def simplesat_branch_nodes(n: int) -> int:
    """The adversarial width-2 family: T(n) = 1 + T(n-1) + T(n-2) with
    T(1) = T(0) = 0, so T(n) = F(n+1) - 1 (F(1) = F(2) = 1)."""
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return b - 1
