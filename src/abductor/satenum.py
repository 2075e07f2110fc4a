"""SAT decision and model enumeration engines.

decide, enumerate_models and sparse_enumerate share one internal constraint
form (tuple-code set + scope) and one iterative depth-first search loop,
whose depth is not bounded by Python's recursion limit, with a pluggable
branching policy:

  decide                  -- propagation + lowest-index variable branching,
                             stopping at the first model
  enumerate_models        -- same search, streaming every total model
  sparse_enumerate        -- per-tuple constraint branching for languages
                             closed under branching (eliminates a whole scope
                             per branch)

A node restricts the constraints its branch touches through core.restrict,
whose restriction table (bounded by core._RESTRICT_TABLE_CODES) filters each
(relation, fixed positions, values) pattern once; formulas are read through
each relation's cached code set, so a call copies no relation.

solve_simple_sat keeps its own iterative branch-and-reduce procedure for
positive-clause/negative-DNF instances with the (1,...,p) clause branching.

Stats accounting: branch_nodes counts nodes that opened branches; leaves
counts terminal paths, where a satisfied node with f unconstrained variables
contributes one leaf per emitted completion (so models_emitted <= leaves,
while leaves may exceed branch_nodes).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

from .core import Formula, decode_tuple, restrict, submasks
from .langlib import ConstraintLanguage, minor


class LanguageContractError(ValueError):
    """Formula uses a relation outside the declared branching-closed language."""


@dataclass
class EnumStats:
    branch_nodes: int = 0
    leaves: int = 0
    models_emitted: int = 0
    max_depth: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


UNORDERED = "unordered"
WEIGHT_ORDERED = "non-increasing-w_H"


class ModelStream(Iterator[int]):
    """Pull-based stream of assignments with attached stats and ordering tag."""

    def __init__(self, it: Iterable[int], stats: EnumStats, ordering: str = UNORDERED):
        self._it = iter(it)
        self.stats = stats
        self.ordering = ordering

    def __iter__(self) -> "ModelStream":
        return self

    def __next__(self) -> int:
        return next(self._it)


# internal constraint form: (codes frozenset, scope tuple)
_Con = tuple[frozenset[int], tuple[int, ...]]


def _cons_of(phi: Formula) -> list[_Con]:
    return [(c.relation._codeset, c.scope) for c in phi.constraints]


def _fix(cons: list[_Con], amask: int, vmask: int, values: dict[int, int]):
    """Set the variables in `values`, in the constraints and the masks."""
    untouched = values.keys().isdisjoint
    for v, val in values.items():
        bit = 1 << (v - 1)
        amask |= bit
        if val:
            vmask |= bit
    return [c if untouched(c[1]) else restrict(*c, values) for c in cons], amask, vmask


def _expand_free(vmask: int, free: int, stats: EnumStats) -> Iterator[int]:
    """vmask completed in every way on the variables of the mask `free`, in
    increasing order."""
    for sub in submasks(free):
        stats.models_emitted += 1
        stats.leaves += 1
        yield vmask | sub


# A branching policy maps a node's constraints and masks to None on a
# conflict, or to (live constraints, amask, vmask, branches): each branch is
# the {var: value} assignment it makes, and no branches means a satisfied node.

def _variable_branching(cons: list[_Con], amask: int, vmask: int):
    """Drop trivial constraints, force unit values and fail on empty
    relations until nothing changes; then branch on the lowest-index
    variable."""
    while True:
        forced: dict[int, int] = {}
        out: list[_Con] = []
        for con in cons:
            codes, scope = con
            if not codes:
                return None
            k = len(scope)
            if len(codes) == (1 << k):
                continue
            if k == 1:
                val = 0 if 0 in codes else 1
                if forced.get(scope[0], val) != val:
                    return None
                forced[scope[0]] = val
                continue
            out.append(con)
        if not forced:
            break
        cons, amask, vmask = _fix(out, amask, vmask, forced)
    if not out:
        return out, amask, vmask, ()
    var = min(min(scope) for _, scope in out)
    return out, amask, vmask, ({var: 0}, {var: 1})


def _tuple_branching(cons: list[_Con], amask: int, vmask: int):
    """Branch on the tuples of the constraint with the best local base."""
    live: list[_Con] = []
    for codes, scope in cons:
        if not codes:
            return None
        if len(codes) != (1 << len(scope)):
            live.append((codes, scope))
    if not live:
        return live, amask, vmask, ()
    # best local branching base: fewest tuples per eliminated variable
    pick = min(range(len(live)),
               key=lambda i: len(live[i][0]) ** (1.0 / len(live[i][1])))
    codes, scope = live.pop(pick)
    return live, amask, vmask, [dict(zip(scope, decode_tuple(code, len(scope))))
                                for code in sorted(codes)]


def _search(cons: list[_Con], n: int, policy, stats: EnumStats) -> Iterator[int]:
    """Depth-first search with an explicit stack, streaming total models.

    A stack entry holds the parent's constraints and masks plus one pending
    branch; the child's constraints are built only when the entry is popped.
    Children are pushed in reverse, so branches are explored in policy order.
    """
    stack = [(cons, 0, 0, 0, {})]
    while stack:
        cons, amask, vmask, depth, branch = stack.pop()
        cons, amask, vmask = _fix(cons, amask, vmask, branch)
        if depth > stats.max_depth:
            stats.max_depth = depth
        node = policy(cons, amask, vmask)
        if node is None:
            stats.leaves += 1
            continue
        cons, amask, vmask, branches = node
        if not branches:
            yield from _expand_free(vmask, ((1 << n) - 1) & ~amask, stats)
            continue
        stats.branch_nodes += 1
        for branch in reversed(branches):
            stack.append((cons, amask, vmask, depth + 1, branch))


def decide(phi: Formula) -> bool:
    """True iff the formula has a model (free variables are irrelevant)."""
    for _ in _search(_cons_of(phi), phi.num_vars, _variable_branching, EnumStats()):
        return True
    return False


def enumerate_models(phi: Formula) -> ModelStream:
    """Stream exactly the set of total models over 1..num_vars, each once."""
    stats = EnumStats()
    return ModelStream(_search(_cons_of(phi), phi.num_vars, _variable_branching, stats),
                       stats, UNORDERED)


def sparse_enumerate(phi: Formula, lang: ConstraintLanguage, r0: int = 1) -> ModelStream:
    """Enumerate models by branching over the tuples of whole constraints.

    Every relation of the formula must belong to `lang` (expected to be
    branching-closed), so each branch fixes an entire scope and the open
    branch count stays at |R|.  Trivial relations that closure may introduce
    (e.g. identified parity pairs) are never branched on: such constraints
    are dropped and their variables enumerated as free at the leaves, which
    charges them to emitted models rather than branch nodes.  Below arity r0
    the same per-tuple branching applies; r0 only explains the certified
    bound.
    """
    if r0 < 1:
        raise ValueError("r0 must be >= 1")
    for con in phi.constraints:
        if con.relation not in lang:
            raise LanguageContractError(
                f"relation {con.relation} not in the declared language")

    start: list[_Con] = []
    for con in phi.constraints:
        # the identification minor merges repeated variables of the scope
        first: dict[int, int] = {}
        rel = minor(con.relation, [first.setdefault(v, len(first) + 1) for v in con.scope])
        if first and not rel.is_trivial and rel not in lang:
            raise LanguageContractError(
                "identification minor escapes the language; it is not branching-closed")
        start.append((rel._codeset, tuple(first)))
    stats = EnumStats()
    return ModelStream(_search(start, phi.num_vars, _tuple_branching, stats),
                       stats, UNORDERED)


def weight(sigma: int, hmask: int) -> int:
    return bin(sigma & hmask).count("1")


def hyp_mask(hypotheses: Iterable[int]) -> int:
    m = 0
    for v in hypotheses:
        m |= 1 << (v - 1)
    return m


def enumerate_weight_ordered(phi: Formula, hypotheses: Iterable[int],
                             base: ModelStream | None = None) -> ModelStream:
    """All models sorted by non-increasing hypothesis weight w_H.

    Materializes the base stream and sorts (stable, so equal weights keep the
    base emission order).
    """
    if base is None:
        base = enumerate_models(phi)
    hmask = hyp_mask(hypotheses)
    models = sorted(base, key=lambda s: -weight(s, hmask))
    return ModelStream(iter(models), base.stats, WEIGHT_ORDERED)


# ---------------------------------------------------------------------------
# SimpleSAT: positive clauses of width <= p plus disjunctions of negative terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimpleSatInstance:
    num_vars: int
    positive_clauses: tuple[frozenset[int], ...]
    negative_dnfs: tuple[tuple[frozenset[int], ...], ...]
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "positive_clauses",
                           tuple(frozenset(c) for c in self.positive_clauses))
        object.__setattr__(self, "negative_dnfs",
                           tuple(tuple(frozenset(t) for t in d) for d in self.negative_dnfs))
        for c in self.positive_clauses:
            if not c:
                raise ValueError("positive clauses must be non-empty")
            if len(c) > self.p:
                raise ValueError(f"clause {sorted(c)} wider than p={self.p}")
            if any(not 1 <= v <= self.num_vars for v in c):
                raise ValueError("clause variable out of range")
        for d in self.negative_dnfs:
            for t in d:
                if any(not 1 <= v <= self.num_vars for v in t):
                    raise ValueError("term variable out of range")


def solve_simple_sat(inst: SimpleSatInstance) -> tuple[int | None, EnumStats]:
    """Branch-and-reduce satisfiability for SimpleSAT instances.

    Variables outside every remaining positive clause stay 0, so a negative
    term survives until some of its variables is set to 1; a DNF whose terms
    have all been hit that way can never be satisfied and fails the branch.
    Positive clauses are consumed with the (1,...,q) branching: branch i sets
    the first i-1 clause variables to 0 and the i-th to 1.

    The search is depth-first over an explicit stack, with clauses and terms
    held as variable bitmasks.  Returns (model bitmask | None, stats); in a
    model, only branched-to-1 variables are set.
    """
    stats = EnumStats()
    dnfs = [[hyp_mask(t) for t in d] for d in inst.negative_dnfs]
    if any(not d for d in dnfs):
        stats.leaves += 1
        return None, stats
    clauses = [hyp_mask(c) for c in inst.positive_clauses]
    ones = depth = 0
    # an entry is a node, the depth of its children, the variables of its
    # first clause not yet branched to 1 and those already branched to 0
    stack: list = []
    while True:
        if depth > stats.max_depth:
            stats.max_depth = depth
        if not clauses:
            stats.leaves += 1
            stats.models_emitted += 1
            return ones, stats
        stats.branch_nodes += 1
        stack.append((clauses, dnfs, ones, depth + 1, clauses[0], 0))
        while True:  # build the next branch that is not dead on arrival
            if not stack:
                return None, stats
            clauses, dnfs, ones, depth, rest, zeros = stack.pop()
            one = rest & -rest
            rest ^= one
            if rest:
                stack.append((clauses, dnfs, ones, depth, rest, zeros | one))
            child = _simple_branch(clauses, dnfs, one, zeros)
            if child is not None:
                clauses, dnfs = child
                ones |= one
                break
            stats.leaves += 1


def _simple_branch(clauses: list[int], dnfs: list[list[int]], one: int, zeros: int):
    """The clauses and DNFs left once the first clause's variables in `zeros`
    are 0 and `one` is 1, or None if a clause or a DNF is left empty."""
    nclauses = []
    for c in clauses[1:]:
        if c & one:
            continue
        if c & zeros:
            c &= ~zeros
            if not c:
                return None
        nclauses.append(c)
    ndnfs = []
    for d in dnfs:
        d2 = [t for t in d if not t & one]
        if not d2:
            return None
        ndnfs.append(d2)
    return nclauses, ndnfs
