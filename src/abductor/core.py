"""Core data model: relations, constraint formulas, assignments, abduction instances.

Variables are dense 1-based integers; an assignment is an int whose bit v-1
holds the value of variable v.  Literals are signed ints (+v / -v), and a
relation stores its tuples as sorted bit-encoded codes (coordinate i of a
tuple maps to bit i-1), so relation equality and set algebra are exact.
encode_tuple, decode_tuple, gather, restrict and submasks are the one place
that packs, unpacks, restricts and walks these codes; evaluate inlines
gather's loop for speed.

The restriction table is a module-level memo from (codes, arity, fixed
positions, their values) to the restricted codes, the kept positions and the
classification of the result: EMPTY, FULL, UNIT (one kept position, forced to
the value of the one code left) or OPEN.  A search meets the same few hundred
patterns again and again, so each is filtered tuple by tuple once.
restriction reads an entry by its key, as satenum's search does with the
fixed positions gathered from a node's masks on a miss of its per-constraint
memo; restrict is the same lookup keyed by a scope and a {variable: value}
map.  The table is emptied whenever the code sets it holds pass
_RESTRICT_TABLE_CODES codes in all, which bounds the table's own memory
whatever the arity of the relations.  A search's memos keep the entries they
read past a clear: at most 3^k' per constraint with k' distinct scope
variables, for as long as the search lives (a KB's compiled search lives as
long as the KB).

conjoin_literals and entails build KB ∧ literals through _extend, which skips
re-validation and records the KB in the result's _base field; satenum.decide
finds the KB's compiled search there and keeps it in the KB's _compiled field,
with the search's memos and its cube (the masks of the last satisfied node a
decide call on the KB reached).  All three live as long as the KB, so they
outlive a benchmark round.  Neither field takes part in ==, hash or repr.

truth_table is the bit-parallel form of evaluate, which stays the definition:
one Python int per variable column (bit s holds the variable's value in
assignment s), so each big-int AND or OR works on all 2^n assignments at once
(Knuth, TAOCP 4A, 7.1.3).  The brute-force oracles and CnfFormula.satisfiable
build their tables from these columns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

Assignment = int
Literal = int

SatDecider = Callable[["Formula"], bool]


class StructureError(ValueError):
    """Malformed relation, scope, or instance."""


class FragmentError(ValueError):
    """Instance is outside the fragment an algorithm or reduction expects."""


def encode_tuple(bits: Iterable[int]) -> int:
    code = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise StructureError(f"tuple entries must be 0/1, got {b!r}")
        code |= b << i
    return code


def decode_tuple(code: int, arity: int) -> tuple[int, ...]:
    return tuple([(code >> i) & 1 for i in range(arity)])


def gather(sigma: Assignment, scope: Iterable[int]) -> int:
    """The tuple code sigma gives the scope: bit i holds the value of scope[i]."""
    code = 0
    for i, v in enumerate(scope):
        code |= ((sigma >> (v - 1)) & 1) << i
    return code


# The restriction table (see the module docstring): (codes, arity, hit, want)
# -> (restricted codes, kept positions, classification), and the codes its
# entries hold.
_RESTRICT_TABLE_CODES = 1 << 16
_restrict_table: dict[tuple, tuple[frozenset[int], tuple[int, ...], int]] = {}
_restrict_table_held = 0

# the classification of a restricted constraint
EMPTY, FULL, UNIT, OPEN = range(4)


def _restrict_codes(codes: Iterable[int], arity: int, hit: int,
                    want: int) -> tuple[frozenset[int], tuple[int, ...], int]:
    """The codes that agree with `want` on the positions in `hit`, with those
    positions projected away, the positions kept, and the classification."""
    keep = tuple(i for i in range(arity) if not hit >> i & 1)
    out = set()
    for code in codes:
        if code & hit != want:
            continue
        nc = 0
        for j, i in enumerate(keep):
            nc |= ((code >> i) & 1) << j
        out.add(nc)
    if not out:
        kind = EMPTY
    elif len(out) == 1 << len(keep):
        kind = FULL
    elif len(keep) == 1:
        kind = UNIT
    else:
        kind = OPEN
    return frozenset(out), keep, kind


def restriction(codes: frozenset[int] | tuple[int, ...], arity: int, hit: int,
                want: int) -> tuple[frozenset[int], tuple[int, ...], int]:
    """The table entry of a constraint over `codes` whose positions in the
    mask `hit` are fixed to the bits of `want`: (restricted codes, kept
    positions, EMPTY/FULL/UNIT/OPEN)."""
    global _restrict_table_held
    key = (codes, arity, hit, want)
    entry = _restrict_table.get(key)
    if entry is None:
        entry = _restrict_codes(codes, arity, hit, want)
        if _restrict_table_held > _RESTRICT_TABLE_CODES:
            _restrict_table.clear()
            _restrict_table_held = 0
        _restrict_table[key] = entry
        _restrict_table_held += len(entry[0]) + 1
    return entry


def restrict(codes: frozenset[int] | tuple[int, ...], scope: tuple[int, ...],
             values: Mapping[int, int]) -> tuple[frozenset[int], tuple[int, ...]]:
    """Restrict a constraint to the values of its variables set in `values`
    and project those variables away, through the restriction table."""
    hit = want = 0
    bit = 1
    for v in scope:
        if v in values:
            hit |= bit
            if values[v]:
                want |= bit
        bit <<= 1
    out, keep, _ = restriction(codes, len(scope), hit, want)
    return out, tuple([scope[i] for i in keep])


def submasks(mask: int) -> Iterator[int]:
    """Every submask of mask, in increasing order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


@dataclass(frozen=True)
class Relation:
    """A Boolean relation of fixed arity, given by an explicit tuple list."""

    arity: int
    codes: tuple[int, ...]
    name: str | None = field(default=None, compare=False)
    # the codes as a frozenset, for membership tests and the search engines
    _codeset: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise StructureError("arity must be non-negative")
        canon = tuple(sorted(set(self.codes)))
        if canon != self.codes:
            object.__setattr__(self, "codes", canon)
        if self.codes and not (0 <= self.codes[0] and self.codes[-1] < (1 << self.arity)):
            raise StructureError("tuple code out of range for arity")
        object.__setattr__(self, "_codeset", frozenset(self.codes))

    @classmethod
    def from_tuples(cls, arity: int, tuples: Iterable[Iterable[int]], name: str | None = None) -> "Relation":
        codes = []
        for t in tuples:
            t = tuple(t)
            if len(t) != arity:
                raise StructureError(f"tuple {t} has length {len(t)}, expected {arity}")
            codes.append(encode_tuple(t))
        return cls(arity, tuple(sorted(set(codes))), name)

    def tuples(self) -> list[tuple[int, ...]]:
        return [decode_tuple(c, self.arity) for c in self.codes]

    def __contains__(self, code: int) -> bool:
        return code in self._codeset

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def is_empty(self) -> bool:
        return not self.codes

    @property
    def is_trivial(self) -> bool:
        """Full relation {0,1}^k (imposes nothing)."""
        return len(self.codes) == (1 << self.arity)

    def renamed(self, name: str | None) -> "Relation":
        return Relation(self.arity, self.codes, name)


# The unary constants and their 0-ary cousins (the four constant relations).
BOT = Relation(1, (0,), "BOT")
TOP = Relation(1, (1,), "TOP")
FALSE0 = Relation(0, (), "F")
TRUE0 = Relation(0, (0,), "T")


@dataclass(frozen=True)
class Constraint:
    relation: Relation
    scope: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scope", tuple(self.scope))
        if len(self.scope) != self.relation.arity:
            raise StructureError(
                f"scope length {len(self.scope)} != arity {self.relation.arity}")
        if any(v < 1 for v in self.scope):
            raise StructureError("scope variables must be >= 1")


@dataclass(frozen=True)
class Formula:
    """A conjunction of constraints over variables 1..num_vars."""

    num_vars: int
    constraints: tuple[Constraint, ...]
    # set by _extend: the formula whose constraints this one extends by TOP/BOT
    # units, so satenum.decide can start from that formula's compiled search
    _base: "Formula | None" = field(default=None, init=False, repr=False, compare=False)
    # satenum's compiled search and root of this formula as a base, built
    # lazily; the search keeps its memos and its cube
    _compiled: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.num_vars < 0:
            raise StructureError("num_vars must be non-negative")
        for con in self.constraints:
            if any(v > self.num_vars for v in con.scope):
                raise StructureError(
                    f"scope {con.scope} exceeds num_vars={self.num_vars}")

    def used_vars(self) -> frozenset[int]:
        out: set[int] = set()
        for con in self.constraints:
            out.update(con.scope)
        return frozenset(out)

    def relations(self) -> list[Relation]:
        seen: list[Relation] = []
        for con in self.constraints:
            if con.relation not in seen:
                seen.append(con.relation)
        return seen


def formula(num_vars: int, cons: Iterable[tuple[Relation, Iterable[int]]]) -> Formula:
    return Formula(num_vars, tuple(Constraint(r, tuple(s)) for r, s in cons))


def evaluate(phi: Formula, sigma: Assignment) -> bool:
    """True iff sigma (total over 1..num_vars) satisfies every constraint."""
    for con in phi.constraints:
        # gather() inlined: calling it made a 12-variable oracle scan 11-14 % slower.
        code = 0
        for i, v in enumerate(con.scope):
            code |= ((sigma >> (v - 1)) & 1) << i
        if code not in con.relation:
            return False
    return True


# The variable columns and the truth table (see the module docstring).
ORACLE_MAX_VARS = 20


class OracleCapError(ValueError):
    """Instance exceeds the brute-force size cap."""


@functools.lru_cache(maxsize=None)  # at most ORACLE_MAX_VARS + 1 entries
def columns(n: int) -> tuple[tuple[int, int], ...]:
    """The (complement, column) pair of every variable over the 2^n
    assignments: bit s of columns(n)[v-1][1] holds bit v-1 of assignment s,
    and [0] is its complement.  The one place that allocates 2^n-bit tables,
    so it enforces the oracle cap on n."""
    if n > ORACLE_MAX_VARS:
        raise OracleCapError(f"n={n} exceeds oracle cap {ORACLE_MAX_VARS}")
    full = (1 << (1 << n)) - 1
    out = []
    for v in range(n):
        h = 1 << v  # runs of h zeros then h ones, repeated
        col = (((1 << h) - 1) << h) * (full // ((1 << 2 * h) - 1))
        out.append((full ^ col, col))
    return tuple(out)


def truth_table(phi: Formula) -> int:
    """Bit s is set iff assignment s satisfies phi: the AND over the
    constraints of the OR over their tuples of the AND of the matching
    columns.  A relation holding more than half of {0,1}^k is built from its
    missing tuples and complemented, so wide clauses stay cheap."""
    cols = columns(phi.num_vars)
    full = (1 << (1 << phi.num_vars)) - 1
    table = full
    for con in phi.constraints:
        rel = con.relation
        flip = 2 * len(rel) > 1 << rel.arity
        codes = [c for c in range(1 << rel.arity) if c not in rel] if flip else rel.codes
        pairs = [cols[v - 1] for v in con.scope]
        col = 0
        for code in codes:
            term = full
            for i, pair in enumerate(pairs):
                term &= pair[(code >> i) & 1]
            col |= term
        table &= full ^ col if flip else col
        if not table:
            break
    return table


# bit positions set in each byte value, for reading models off a table
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def table_models(table: int) -> list[int]:
    """The set bits of a truth table, i.e. its models, in increasing order."""
    out: list[int] = []
    for i, byte in enumerate(table.to_bytes((table.bit_length() + 7) // 8, "little")):
        if byte:
            base = i << 3
            out.extend([base + p for p in _BYTE_BITS[byte]])
    return out


def assignment_from_values(values: Iterable[int]) -> Assignment:
    """Build an assignment from the values of variables 1,2,3,... in order."""
    return encode_tuple(values)


def satisfies_vars(sigma: Assignment, vs: Iterable[int]) -> bool:
    return all((sigma >> (v - 1)) & 1 for v in vs)


def literals_consistent(lits: Iterable[Literal]) -> bool:
    s = set(lits)
    return all(-l not in s for l in s)


@dataclass(frozen=True)
class AbductionInstance:
    kb: Formula
    hypotheses: frozenset[int]
    manifestations: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "hypotheses", frozenset(self.hypotheses))
        object.__setattr__(self, "manifestations", frozenset(self.manifestations))
        for v in self.hypotheses | self.manifestations:
            if not (1 <= v <= self.kb.num_vars):
                raise StructureError(f"H/M variable {v} outside 1..{self.kb.num_vars}")

    @property
    def num_vars(self) -> int:
        return self.kb.num_vars

    def is_normalized(self) -> bool:
        """H, M inside var(KB) and disjoint (the shape the reductions expect)."""
        used = self.kb.used_vars()
        return (self.hypotheses <= used and self.manifestations <= used
                and not (self.hypotheses & self.manifestations))


@dataclass(frozen=True)
class Explanation:
    literals: frozenset[Literal]

    def __post_init__(self) -> None:
        object.__setattr__(self, "literals", frozenset(self.literals))
        if not literals_consistent(self.literals):
            raise StructureError("explanation literals are inconsistent")


def _extend(phi: Formula, units: tuple[Constraint, ...]) -> Formula:
    """phi ∧ units as a Formula, without re-checking phi's constraints: phi is
    valid already, and the callers range-check the TOP/BOT units.  The result
    records as its _base the formula phi itself extends, or else phi, so every
    constraint past its base's is a unit."""
    out = object.__new__(Formula)
    object.__setattr__(out, "num_vars", phi.num_vars)
    object.__setattr__(out, "constraints", phi.constraints + units)
    object.__setattr__(out, "_base", phi if phi._base is None else phi._base)
    return out


# literal -> the unit constraint forcing it (two per variable at most), built
# once by the public constructor
_units: dict[Literal, Constraint] = {}


def _unit(lit: Literal, num_vars: int) -> Constraint:
    """The TOP (lit > 0) or BOT (lit < 0) constraint on |lit|, which must lie
    in 1..num_vars."""
    if not 1 <= abs(lit) <= num_vars:
        raise StructureError(f"literal {lit} outside variable range")
    con = _units.get(lit)
    if con is None:
        con = _units[lit] = Constraint(TOP if lit > 0 else BOT, (abs(lit),))
    return con


def conjoin_literals(phi: Formula, lits: Iterable[Literal]) -> Formula:
    """KB ∧ E realized by forcing each literal with a TOP/BOT unary constraint."""
    n = phi.num_vars
    return _extend(phi, tuple([_unit(l, n) for l in lits]))


def entails(phi: Formula, manifestations: Iterable[int], sat: SatDecider) -> bool:
    """phi ⊨ M, decided as one unsatisfiability check of phi ∧ ¬m per
    manifestation m, in the given order and stopping at the first failure."""
    n = phi.num_vars
    for m in manifestations:
        if m < 1:
            raise StructureError(f"manifestation {m} outside variable range")
        if sat(_extend(phi, (_unit(-m, n),))):
            return False
    return True


def is_explanation(inst: AbductionInstance, lits: Iterable[Literal]) -> bool:
    """Check the two defining conditions: KB∧E satisfiable and KB∧E entails M."""
    from .satenum import decide  # local import to avoid a cycle
    lits = frozenset(lits)
    for l in lits:
        if abs(l) not in inst.hypotheses:
            raise StructureError(f"literal {l} not over the hypothesis set")
    if not literals_consistent(lits):
        return False
    base = conjoin_literals(inst.kb, lits)
    return decide(base) and entails(base, inst.manifestations, decide)


TRIVIALLY_NO = "trivially-no"
TRIVIALLY_REDUCED = "trivially-reduced"
UNCHANGED = "unchanged"


@dataclass(frozen=True)
class PreprocessResult:
    instance: AbductionInstance
    verdict: str
    self_explained: frozenset[int] = frozenset()  # dropped from both H and M


def preprocess(inst: AbductionInstance) -> PreprocessResult:
    """Normalize H and M against var(KB) without changing the answer.

    Rules (variables never increase):
      - m in M outside var(KB), m not in H: nothing can entail m -> trivially-no;
      - m in M ∩ H outside var(KB): self-explained, drop from both M and H;
      - h in H outside var(KB) (and not in M): irrelevant, drop from H.

    An explanation E of the reduced instance gives the explanation
    E ∪ self_explained of inst: each dropped m is free in KB and implies itself.

    Overlaps H ∩ M *inside* var(KB) are kept: dropping such an m can flip the
    answer (m may be inconsistent with KB), so no sound local rule exists.
    Consumers that require disjointness resolve it themselves (see
    reductions.negimp_to_pos) or reject the instance.
    """
    used = inst.kb.used_vars()
    hyp = set(inst.hypotheses)
    man = set(inst.manifestations)
    self_explained: set[int] = set()
    for m in sorted(man - used):
        if m not in hyp:
            reduced = AbductionInstance(inst.kb, frozenset(hyp), frozenset(man))
            return PreprocessResult(reduced, TRIVIALLY_NO)
        man.discard(m)
        hyp.discard(m)
        self_explained.add(m)
    hyp &= used
    out = AbductionInstance(inst.kb, frozenset(hyp), frozenset(man))
    verdict = TRIVIALLY_REDUCED if hyp != inst.hypotheses else UNCHANGED
    return PreprocessResult(out, verdict, frozenset(self_explained))
