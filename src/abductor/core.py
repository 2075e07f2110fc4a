"""Core data model: relations, constraint formulas, assignments, abduction instances.

Variables are dense 1-based integers; an assignment is an int whose bit v-1
holds the value of variable v.  Literals are signed ints (+v / -v), and a
relation stores its tuples as sorted bit-encoded codes (coordinate i of a
tuple maps to bit i-1), so relation equality and set algebra are exact.
encode_tuple, decode_tuple, gather, restriction and submasks are the one
place that packs, unpacks, gathers, restricts and walks these codes.

The restriction table is core's one bounded memo table.  It maps (codes,
arity, fixed positions, their values) to the restricted codes, the kept
positions and the classification of the result: EMPTY, FULL, UNIT (one kept
position, forced to the value of the one code left) or OPEN.  A search meets
the same few hundred patterns again and again, so each is filtered tuple by
tuple once.  restriction, the table's one entry point, takes a code
frozenset, a scope and the masks of the assigned variables and of their
values, and gathers the fixed positions itself.  satenum's search calls it
on a miss of its per-constraint memo and langlib.substitute over the scope
1..arity, so one restriction is one entry.  The same table holds langlib's shared relations
under ("CL", signs, name) and ("NAE", signs): shared(key, build, *args)
returns the Relation held under key, or builds and enters it, so
clause_relation and nae build one Relation per key.  The keys of the two
kinds differ in length and cannot meet.  The table is emptied whenever the
code sets it holds, restricted and shared alike, pass
_RESTRICT_TABLE_CODES codes in all, which bounds the table's own memory
whatever the arity of the relations.  A value read before a clear stays
valid and equal to the one built after it.  A search's memos keep the
entries they read past a clear: at most 3^k' per constraint with k'
distinct scope variables, for as long as the search lives (a compiled KB
lives for one solver call).

A SAT call asks KB ∧ E or KB ∧ E ∧ ¬m as sat(KB, pos, neg) on a KB compiled
once by satenum.compile_kb, with E as the variable-bit masks of its positive
and negated literals (literal_masks converts a literal list); entails asks
sat(kb, pos, neg | bit(m)) per manifestation m.

A Formula is a frozen dataclass that computes four structure facts on
construction, in its scope-validation loop, and keeps them outside eq, hash
and fields: its hash, hash((num_vars, constraints)) as a frozen dataclass
computes it; used_vars(), a frozenset; per constraint i its scope mask
_smasks[i], the OR of its scope's variable bits; and per variable v the
bitmask _occbits[v] of the constraints whose scope holds v (_occbits[0] is
0).  Every engine on the same formula reads these instead of rebuilding
them, and a brute_models cache lookup hashes no constraint.  They are facts
of the formula, not engine state: no engine stores anything on a formula,
and every search's memos, cube and conflict live in its own compiled KB.

A Relation carries the facts derived from its codes, each computed at most
once and kept outside eq, hash and fields: clause_signs, its sign pattern
when it is a clause relation, which the reductions' fragment tests read,
and table_terms, the tuples truth_table ORs, each on first use (a
functools.cached_property); and its hash, hash((arity, codes)) as a frozen
dataclass computes it, on construction.  Since clause_relation and nae
share one Relation per key, these facts are computed once per relation,
not once per clause per call.  Constraint and Formula check their scopes
with one min or max per scope and keep a tuple they are given as it is.

truth_table is the bit-parallel form of evaluate, which stays the definition:
one Python int per variable column (bit s holds the variable's value in
assignment s), so each big-int AND or OR works on all 2^n assignments at once
(Knuth, TAOCP 4A, 7.1.3).  The brute-force oracles build their tables from
these columns, and CnfFormula.satisfiable ANDs the OR of each clause's
literal columns.

preprocess returns an instance that is already normalised (H ∪ M ⊆ var(KB))
as it is, the same object, after two subset tests against used_vars().
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

Assignment = int
Literal = int

# (compiled KB, pos, neg) -> KB ∧ the assumptions has a model (module docstring)
SatDecider = Callable[[Any, int, int], bool]


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


# The restriction table (see the module docstring): restriction entries under
# (codes, arity, hit, want), langlib's shared relations under their own keys,
# and the codes its values hold.
_RESTRICT_TABLE_CODES = 1 << 16
_restrict_table: dict[tuple, Any] = {}
_restrict_table_held = 0


def _enter(key: tuple, value: Any, size: int) -> None:
    """Enter value, which holds `size` codes, into the table under key, after
    emptying the table if it holds more than _RESTRICT_TABLE_CODES codes."""
    global _restrict_table_held
    if _restrict_table_held > _RESTRICT_TABLE_CODES:
        _restrict_table.clear()
        _restrict_table_held = 0
    _restrict_table[key] = value
    _restrict_table_held += size + 1


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


def restriction(codes: frozenset[int], scope: tuple[int, ...], amask: int,
                vmask: int) -> tuple[frozenset[int], tuple[int, ...], int]:
    """The table entry of a constraint over `codes` and `scope` under the
    masks of the assigned variables and of their values: (restricted codes,
    kept positions, EMPTY/FULL/UNIT/OPEN), keyed by the positions the masks
    set (hit) and their values (want)."""
    hit = want = 0
    p = 1
    for v in scope:
        b = 1 << (v - 1)
        if amask & b:
            hit |= p
            if vmask & b:
                want |= p
        p <<= 1
    key = (codes, len(scope), hit, want)
    entry = _restrict_table.get(key)
    if entry is None:
        entry = _restrict_codes(codes, len(scope), hit, want)
        _enter(key, entry, len(entry[0]))
    return entry


def shared(key: tuple, build: Callable[..., Relation], *args: Any) -> Relation:
    """The Relation the table holds under key, or build(*args), entered under
    key: one shared Relation per key until the table is emptied."""
    rel = _restrict_table.get(key)
    if rel is None:
        rel = build(*args)
        _enter(key, rel, len(rel.codes))
    return rel


def hyp_mask(variables: Iterable[int]) -> int:
    """The variable-bit mask of a set of variables: bit v-1 for variable v."""
    m = 0
    for v in variables:
        m |= 1 << (v - 1)
    return m


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
        # the hash a frozen dataclass computes (see the module docstring)
        object.__setattr__(self, "_hash", hash((self.arity, self.codes)))

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

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def clause_signs(self) -> tuple[int, ...] | None:
        """The sign pattern of the clause this relation is (its one missing
        tuple, as langlib.clause_relation builds it), or None if it is not a
        clause relation."""
        k = self.arity
        if k < 1 or len(self.codes) != (1 << k) - 1:
            return None
        # the codes are distinct in 0..2^k-1: the missing one is 2^k(2^k-1)/2 less their sum
        return decode_tuple((1 << k) * ((1 << k) - 1) // 2 - sum(self.codes), k)

    @functools.cached_property
    def table_terms(self) -> tuple[bool, tuple[tuple[int, ...], ...]]:
        """(flip, terms): the tuples truth_table ORs, as 0/1 tuples.  A
        relation holding more than half of {0,1}^k gives its missing tuples
        and flip = True, so truth_table complements their OR."""
        flip = 2 * len(self.codes) > 1 << self.arity
        codes = ([c for c in range(1 << self.arity) if c not in self._codeset]
                 if flip else self.codes)
        return flip, tuple(decode_tuple(c, self.arity) for c in codes)


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
        scope = self.scope
        if type(scope) is not tuple:
            scope = tuple(scope)
            object.__setattr__(self, "scope", scope)
        if len(scope) != self.relation.arity:
            raise StructureError(
                f"scope length {len(scope)} != arity {self.relation.arity}")
        if scope and min(scope) < 1:
            raise StructureError("scope variables must be >= 1")


@dataclass(frozen=True)
class Formula:
    """A conjunction of constraints over variables 1..num_vars."""

    num_vars: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        if type(self.constraints) is not tuple:
            object.__setattr__(self, "constraints", tuple(self.constraints))
        n = self.num_vars
        if n < 0:
            raise StructureError("num_vars must be non-negative")
        # the structure facts (see the module docstring), with the scope checks
        used: set[int] = set()
        smasks = []
        occbits = [0] * (n + 1)
        cbit = 1
        for con in self.constraints:
            scope = con.scope
            if scope and max(scope) > n:
                raise StructureError(f"scope {scope} exceeds num_vars={n}")
            used.update(scope)
            smask = 0
            for v in scope:
                smask |= 1 << (v - 1)
                occbits[v] |= cbit
            smasks.append(smask)
            cbit <<= 1
        object.__setattr__(self, "_used", frozenset(used))
        object.__setattr__(self, "_smasks", tuple(smasks))
        object.__setattr__(self, "_occbits", tuple(occbits))
        object.__setattr__(self, "_hash", hash((n, self.constraints)))

    def __hash__(self) -> int:
        return self._hash

    def used_vars(self) -> frozenset[int]:
        return self._used

    def relations(self) -> list[Relation]:
        """The distinct relations, in order of first occurrence."""
        return list(dict.fromkeys(con.relation for con in self.constraints))


def formula(num_vars: int, cons: Iterable[tuple[Relation, Iterable[int]]]) -> Formula:
    return Formula(num_vars, tuple(Constraint(r, tuple(s)) for r, s in cons))


def evaluate(phi: Formula, sigma: Assignment) -> bool:
    """True iff sigma (total over 1..num_vars) satisfies every constraint."""
    return all(gather(sigma, con.scope) in con.relation for con in phi.constraints)


# The variable columns and the truth table (see the module docstring).
ORACLE_MAX_VARS = 20


class OracleCapError(ValueError):
    """Instance exceeds the brute-force size cap."""


@functools.lru_cache(maxsize=None)  # at most ORACLE_MAX_VARS + 1 entries
def columns(n: int) -> tuple[tuple[int, int], ...]:
    """The (complement, column) pair of every variable over the 2^n
    assignments: bit s of columns(n)[v-1][1] holds bit v-1 of assignment s,
    and [0] is its complement.  A column is one period, 2^(v-1) zeros then
    as many ones, doubled until it spans the 2^n assignments, so a column
    costs at most n shifts and ORs.  The one place that allocates 2^n-bit
    tables, so it enforces the oracle cap on n."""
    if n > ORACLE_MAX_VARS:
        raise OracleCapError(f"n={n} exceeds oracle cap {ORACLE_MAX_VARS}")
    size = 1 << n
    full = (1 << size) - 1
    out = []
    for v in range(n):
        h = 1 << v  # runs of h zeros then h ones, repeated
        col, width = ((1 << h) - 1) << h, 2 * h  # one period
        while width < size:
            col |= col << width
            width *= 2
        out.append((full ^ col, col))
    return tuple(out)


def truth_table(phi: Formula) -> int:
    """Bit s is set iff assignment s satisfies phi: the AND over the
    constraints of the OR over their tuples of the AND of the matching
    columns.  A relation holding more than half of {0,1}^k is built from its
    missing tuples and complemented (Relation.table_terms), so wide clauses
    stay cheap."""
    cols = columns(phi.num_vars)
    full = (1 << (1 << phi.num_vars)) - 1
    table = full
    for con in phi.constraints:
        flip, terms = con.relation.table_terms
        pairs = [cols[v - 1] for v in con.scope]
        col = 0
        for bits in terms:
            term = full
            for pair, b in zip(pairs, bits):
                term &= pair[b]
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
        pos, neg = literal_masks(self.literals)
        if pos & neg:
            raise StructureError("explanation literals are inconsistent")


def literal_masks(lits: Iterable[Literal]) -> tuple[int, int]:
    """(pos, neg): the variable-bit masks of the positive and negated literals."""
    lits = list(lits)
    if 0 in lits:
        raise StructureError("literal 0 names no variable")
    return hyp_mask([l for l in lits if l > 0]), hyp_mask([-l for l in lits if l < 0])


def entails(kb, pos: int, neg: int, manifestations: Iterable[int],
            sat: SatDecider) -> bool:
    """KB ∧ E ⊨ M for a compiled KB and E given as the masks (pos, neg),
    decided as one unsatisfiability check of KB ∧ E ∧ ¬m per manifestation
    m, in the given order and stopping at the first failure."""
    for m in manifestations:
        if m < 1:
            raise StructureError(f"manifestation {m} outside variable range")
        if sat(kb, pos, neg | 1 << (m - 1)):
            return False
    return True


def hyp_literal_masks(inst: AbductionInstance, lits: Iterable[Literal]) -> tuple[int, int]:
    """literal_masks(lits), which must all be literals over the hypotheses."""
    pos, neg = literal_masks(lits)
    if (pos | neg) & ~hyp_mask(inst.hypotheses):
        raise StructureError("a literal is not over the hypothesis set")
    return pos, neg


def is_explanation(inst: AbductionInstance, lits: Iterable[Literal]) -> bool:
    """Check the two defining conditions: KB∧E satisfiable and KB∧E entails M."""
    from .satenum import compile_kb, decide  # local import to avoid a cycle
    pos, neg = hyp_literal_masks(inst, lits)
    kb = compile_kb(inst.kb)
    return decide(kb, pos, neg) and entails(kb, pos, neg, inst.manifestations, decide)


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
    reductions.negimp_to_pos) or reject the instance.  An instance with
    H ∪ M ⊆ var(KB) comes back as it is (the same object), UNCHANGED.
    """
    used = inst.kb.used_vars()
    if inst.hypotheses <= used and inst.manifestations <= used:
        return PreprocessResult(inst, UNCHANGED)
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
