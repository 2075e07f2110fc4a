"""Constraint-language algebra: minors, substitutions, branching closure,
sparsity, invariance under Boolean operations, and constructors for the
built-in families (clauses, Horn, implications, parity, modular-counting
equations, exact-SAT, not-all-equal).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .core import (Relation, StructureError, decode_tuple, encode_tuple, gather,
                   restrict, shared)


class LanguageError(ValueError):
    """Precondition failure on a language-level operation."""


@dataclass(frozen=True)
class ConstraintLanguage:
    relations: frozenset[Relation]

    def __post_init__(self) -> None:
        object.__setattr__(self, "relations", frozenset(self.relations))

    def __contains__(self, rel: Relation) -> bool:
        return rel in self.relations

    def __iter__(self):
        return iter(sorted(self.relations, key=lambda r: (r.arity, r.codes)))

    def __len__(self) -> int:
        return len(self.relations)

    def max_arity(self) -> int:
        return max((r.arity for r in self.relations), default=0)


def language(rels: Iterable[Relation]) -> ConstraintLanguage:
    return ConstraintLanguage(frozenset(rels))


# ---------------------------------------------------------------------------
# minors and substitutions
# ---------------------------------------------------------------------------

def substitute(rel: Relation, f: Mapping[int, int]) -> Relation:
    """Fix coordinates per f (1-based position -> 0/1) and project them away."""
    for pos, val in f.items():
        if not (1 <= pos <= rel.arity):
            raise StructureError(f"substitution position {pos} outside 1..{rel.arity}")
        if val not in (0, 1):
            raise StructureError("substitution values must be 0/1")
    # the positions 1..arity act as the relation's scope
    codes, _ = restrict(rel.codes, tuple(range(1, rel.arity + 1)), f)
    return Relation(rel.arity - len(f), tuple(sorted(codes)))


def minor(rel: Relation, g: Sequence[int], m: int | None = None) -> Relation:
    """Minor R_g with R_g(x_1..x_m) <-> R(x_{g(1)}, ..., x_{g(n)}).

    g has one entry per coordinate of R, naming which of the m fresh variables
    fills that slot.  Coordinates sharing a target are identified; targets not
    mentioned by g are unconstrained in the result.
    """
    n = rel.arity
    if len(g) != n:
        raise StructureError("g must assign a target to every coordinate")
    if m is None:
        m = max(g, default=0)
    if n and not (1 <= m <= n):
        raise StructureError("need 1 <= m <= arity")
    if any(not (1 <= t <= m) for t in g):
        raise StructureError("g targets outside 1..m")
    return Relation(m, tuple(b for b in range(1 << m) if gather(b, g) in rel))


def _identification_minors(rel: Relation) -> Iterable[Relation]:
    """All surjective minors of rel (coordinate permutations/identifications).

    Constraints only ever induce surjective coordinate maps (their result
    coordinates are the distinct scope variables), and non-surjective maps
    would manufacture free coordinates whose substitutions are the trivial
    full relations, so the closure sticks to surjective maps.
    """
    n = rel.arity
    for m in range(1, n + 1):
        for g in itertools.product(range(1, m + 1), repeat=n):
            if len(set(g)) == m:
                yield minor(rel, g, m)


def _substitutions(rel: Relation) -> Iterable[Relation]:
    n = rel.arity
    for size in range(1, n + 1):
        for pos in itertools.combinations(range(1, n + 1), size):
            for vals in itertools.product((0, 1), repeat=size):
                yield substitute(rel, dict(zip(pos, vals)))


def branching_closure(lang: ConstraintLanguage) -> ConstraintLanguage:
    """Least superset of lang closed under minors and substitutions.

    Arities never increase, so the fixed point is finite for finite input.
    0-ary results (the constants t/f) are kept as members.
    """
    if lang.max_arity() > 12:
        raise LanguageError("closure over arity > 12 would be astronomically large")
    closed: set[Relation] = set(r.renamed(None) for r in lang.relations)
    work = list(closed)
    while work:
        rel = work.pop()
        if rel.arity == 0:
            continue
        for derived in itertools.chain(_identification_minors(rel), _substitutions(rel)):
            if derived not in closed:
                closed.add(derived)
                work.append(derived)
    return ConstraintLanguage(frozenset(closed))


def is_branching_closed(lang: ConstraintLanguage) -> bool:
    return branching_closure(lang) == lang


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparsityCertificate:
    c: float
    r0: int
    verified_up_to: int


def check_sparsity(lang: ConstraintLanguage, c: float, r0: int) -> SparsityCertificate | Relation:
    """Certify |R| <= c^ar(R) for all non-trivial members with r0 <= ar(R),
    or return a violator.  Trivial (full) members impose nothing and
    sparse_enumerate never branches on them, so they cannot violate."""
    if not (1.0 < c < 2.0):
        raise LanguageError("sparsity base must lie in (1, 2)")
    if r0 < 1:
        raise LanguageError("r0 must be >= 1")
    top = lang.max_arity()
    for rel in sorted(lang.relations, key=lambda r: (r.arity, r.codes)):
        if rel.arity >= r0 and not rel.is_trivial and len(rel) > c ** rel.arity:
            return rel
    return SparsityCertificate(c, r0, top)


ONE = (0, lambda full: full)  # the constant 1
NEGATION = (1, lambda full, a: full ^ a)


def invariant(lang: ConstraintLanguage, op: tuple[int, Callable[..., int]]) -> bool:
    """Every relation of lang is closed under op applied coordinate-wise.

    op is a k-ary Boolean operation (k, f): f(full, *codes) is the code of
    the tuple op gives on k tuple codes of one relation, full = 2^arity - 1.
    A constant is 0-ary, so it asks every relation to hold its constant
    tuple, and an empty relation is not invariant under it.
    """
    k, f = op
    for r in lang.relations:
        full = (1 << r.arity) - 1
        if any(f(full, *t) not in r for t in itertools.product(r.codes, repeat=k)):
            return False
    return True


@dataclass(frozen=True)
class InequalityGadget:
    """A two-variable identification minor of `base` equal to {(0,1),(1,0)}.

    `pattern[i]` is 1 where the first argument goes and 2 where the second
    goes, so NEQ(a, b) is realized as base(scope) with scope[i] = a or b.
    """
    relation: Relation
    base: Relation
    pattern: tuple[int, ...]

    def scope_for(self, a: int, b: int) -> tuple[int, ...]:
        return tuple(a if t == 1 else b for t in self.pattern)


NEQ = Relation(2, (1, 2), "NEQ")  # {(1,0),(0,1)} bit-encoded


def derive_inequality(lang: ConstraintLanguage) -> InequalityGadget:
    """Extract the binary inequality relation by identifying coordinates.

    Requires a complement-invariant language with some nonempty member that
    avoids both constant tuples; identifying its coordinates along any
    non-constant tuple yields exactly {(0,1),(1,0)}.  The gadget comes from
    the first such member in (arity, codes) order.
    """
    if not invariant(lang, NEGATION):
        raise LanguageError("language is not complement-invariant")
    for rel in sorted(lang.relations, key=lambda r: (r.arity, r.codes)):
        full = (1 << rel.arity) - 1
        if rel.is_empty or rel.arity == 0 or 0 in rel or full in rel:
            continue
        t = rel.codes[0]  # any member tuple; cannot be constant here
        pattern = tuple(b + 1 for b in decode_tuple(t, rel.arity))
        got = minor(rel, pattern, 2)
        if got != NEQ:  # complement-invariance makes this unreachable: a bug, not a language
            raise RuntimeError(f"identification of {rel} did not give inequality")
        return InequalityGadget(got, rel, pattern)
    raise LanguageError("no relation avoiding both constant tuples")


# ---------------------------------------------------------------------------
# built-in language constructors
# ---------------------------------------------------------------------------

def clause_relation(signs: Sequence[int], name: str | None = None) -> Relation:
    """Relation of the clause whose i-th literal is positive iff signs[i]==0.

    The single falsifying point is the tuple equal to the sign pattern.  One
    shared Relation per (signs, name), from core's table.
    """
    signs = tuple(signs)
    return shared(("CL", signs, name), _clause, signs, name)


def _clause(signs: tuple[int, ...], name: str | None) -> Relation:
    bad = encode_tuple(signs)
    codes = tuple(c for c in range(1 << len(signs)) if c != bad)
    return Relation(len(signs), codes, name or f"CL{''.join(map(str, signs))}")


def _clauses(k: int, keep: Callable[[tuple[int, ...]], bool],
             name: str | None = None) -> ConstraintLanguage:
    """The clause relations of arity 1..k whose sign pattern passes `keep`,
    named `name` plus the arity when a name is given."""
    rels = {clause_relation(signs, name and f"{name}{j}") for j in range(1, k + 1)
            for signs in itertools.product((0, 1), repeat=j) if keep(signs)}
    return ConstraintLanguage(frozenset(rels))


def k_cnf(k: int) -> ConstraintLanguage:
    """All clause relations of arity 1..k."""
    return _clauses(k, lambda signs: True)


def k_cnf_pos(k: int) -> ConstraintLanguage:
    return _clauses(k, lambda signs: 1 not in signs, "OR")


def k_cnf_neg(k: int) -> ConstraintLanguage:
    return _clauses(k, lambda signs: 0 not in signs, "NOR")


def imp() -> Relation:
    """x -> y as the relation {00,01,11} over scope (x, y)."""
    return Relation(2, (0, 2, 3), "IMP")


def horn(k: int) -> ConstraintLanguage:
    """Clauses of arity <= k with at most one positive literal."""
    return _clauses(k, lambda signs: signs.count(0) <= 1)


def dual_horn(k: int) -> ConstraintLanguage:
    return _clauses(k, lambda signs: signs.count(1) <= 1)


def symmetric_relation(k: int, allowed_sums: Iterable[int], name: str | None = None) -> Relation:
    allowed = set(allowed_sums)
    codes = tuple(c for c in range(1 << k) if c.bit_count() in allowed)
    return Relation(k, codes, name)


def equations(k: int, p: int, q: int) -> Relation:
    """The symmetric relation of x_1 + ... + x_k = q (mod p).

    The modulus must be at least 2: with p = 1 every weight is allowed and
    the relation degenerates to the trivial one, breaking the family's
    every-member-excludes-a-weight invariant.
    """
    if k < 1:
        raise LanguageError("equations need arity >= 1")
    if not (2 <= p <= k + 1) or not (0 <= q <= k + 1):
        raise LanguageError("need 2 <= p <= k + 1 and q <= k + 1")
    allowed = {i for i in range(k + 1) if i % p == q % p}
    return symmetric_relation(k, allowed, f"EQ{k}m{p}r{q % p}")


def equations_family(max_k: int, max_p: int | None = None) -> ConstraintLanguage:
    rels = set()
    for k in range(1, max_k + 1):
        p_top = min(k + 1, max_p) if max_p else k + 1
        for p in range(2, p_top + 1):
            for q in range(p):
                rels.add(equations(k, p, q))
    return ConstraintLanguage(frozenset(rels))


def parity(k: int, q: int) -> Relation:
    """x_1 + ... + x_k = q (mod 2)."""
    if k < 1 or q not in (0, 1):
        raise LanguageError("parity needs arity >= 1 and q in {0,1}")
    return symmetric_relation(k, range(q, k + 1, 2), f"AFF{k}q{q}")


def aff(max_k: int) -> ConstraintLanguage:
    rels = {parity(k, q) for k in range(1, max_k + 1) for q in (0, 1)}
    return ConstraintLanguage(frozenset(rels))


def one_in_k(k: int) -> Relation:
    """Exactly-one-of-k (the 1-in-k-SAT relation)."""
    return symmetric_relation(k, {1}, f"X1OF{k}")


def all_zero(k: int) -> Relation:
    return Relation(k, (0,), f"ZERO{k}")


def xsat_family(max_k: int) -> ConstraintLanguage:
    """Exactly-one relations plus the all-zero constants, per arity up to max_k.

    The 0-ary constants t and f are included for completeness.
    """
    from .core import FALSE0, TRUE0

    rels: set[Relation] = {FALSE0, TRUE0}
    for k in range(1, max_k + 1):
        rels.add(one_in_k(k))
        rels.add(all_zero(k))
    return ConstraintLanguage(frozenset(rels))


def nae(signs: Sequence[int]) -> Relation:
    """Not-all-equal under a sign pattern: forbids the pattern and its
    complement.  One shared Relation per pattern, from core's table."""
    signs = tuple(signs)
    return shared(("NAE", signs), _nae, signs)


def _nae(signs: tuple[int, ...]) -> Relation:
    k = len(signs)
    if k < 1:
        raise LanguageError("sign pattern must be non-empty")
    zero_s = encode_tuple(signs)
    one_s = ((1 << k) - 1) ^ zero_s
    codes = tuple(c for c in range(1 << k) if c not in (zero_s, one_s))
    return Relation(k, codes, f"NAE{''.join(map(str, signs))}")


def k_nae(k: int) -> ConstraintLanguage:
    rels = {nae(signs) for signs in itertools.product((0, 1), repeat=k)}
    return ConstraintLanguage(frozenset(rels))
