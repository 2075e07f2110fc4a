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

A search node is one list indexed by constraint number: a slot holds the
constraint restricted to the node's assignment as (codes, scope), or None once
it is dropped (satisfied or trivial) or consumed (as a unit or as a branched
tuple).  The occurrence lists (variable -> constraint numbers) are built once
per search, so a child copies its parent's list and restricts, through
core.restrict, only the constraints in the occurrence lists of the variables
it sets; propagation then checks only the constraints touched since the last
check (Chaff, Moskewicz et al., DAC 2001).  core.restrict's restriction table
(bounded by core._RESTRICT_TABLE_CODES) filters each (relation, fixed
positions, values) pattern once; formulas are read through each relation's
cached code set, so a call copies no relation.

decide answers a formula built by core.conjoin_literals or core.entails (one
with a _base) from its base's compiled root, the occurrence lists and the
propagated root node, built at the first such call and kept in the base's
_compiled field; the appended TOP/BOT units are assumptions applied to a copy
of that node (MiniSat, Een & Sorensson, SAT 2003).  Any other formula is
compiled per call.

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


def _occurrences(cons: list[_Con], n: int) -> list[list[int]]:
    """occ[v]: the numbers of the constraints whose scope holds v, in order."""
    occ: list[list[int]] = [[] for _ in range(n + 1)]
    for i, (_, scope) in enumerate(cons):
        for v in set(scope):
            occ[v].append(i)
    return occ


def _fix(state: list, occ: list[list[int]], values: dict[int, int],
         amask: int, vmask: int):
    """Set the variables in `values`: restrict, in place, the live constraints
    they occur in, and return those constraints' numbers and the new masks."""
    touched: list[int] | set[int] = []
    for v, val in values.items():
        bit = 1 << (v - 1)
        amask |= bit
        if val:
            vmask |= bit
        touched += occ[v]
    if len(values) > 1:
        touched = set(touched)
    for i in touched:
        con = state[i]
        if con is not None:
            state[i] = restrict(con[0], con[1], values)
    return touched, amask, vmask


def _propagate(state: list, occ: list[list[int]], touched, amask: int, vmask: int,
               live: int):
    """Check the touched constraints: an empty one is a conflict (None), a
    full one is dropped and one of arity 1 is consumed and forces its
    variable; then check the constraints the forced values touch, until none
    is forced.  Returns the new masks and live count.  The fixpoint, and
    whether it conflicts, do not depend on the order of the checks."""
    while True:
        forced: dict[int, int] = {}
        for i in touched:
            con = state[i]
            if con is None:
                continue
            codes, scope = con
            if not codes:
                return None
            k = len(scope)
            if len(codes) == (1 << k):
                state[i] = None
                live -= 1
            elif k == 1:
                val = 0 if 0 in codes else 1
                if forced.setdefault(scope[0], val) != val:
                    return None
                state[i] = None
                live -= 1
        if not forced:
            return amask, vmask, live
        touched, amask, vmask = _fix(state, occ, forced, amask, vmask)


def _expand_free(vmask: int, free: int, stats: EnumStats) -> Iterator[int]:
    """vmask completed in every way on the variables of the mask `free`, in
    increasing order."""
    for sub in submasks(free):
        stats.models_emitted += 1
        stats.leaves += 1
        yield vmask | sub


# A branching policy takes a node (its state, in which the touched constraints
# are unchecked, its masks and live count) and the parent's branch variable; it
# returns None on a conflict, or (amask, vmask, live, branch variable,
# branches): each branch is the {var: value} assignment it makes, and no
# branches means a satisfied node.  It may update the node's state in place.

def _variable_branching(state: list, occ: list[list[int]], touched, amask: int,
                        vmask: int, live: int, var: int):
    """Propagate; then branch on the lowest-index variable of a live
    constraint.  A child's live variables are among its parent's, so the scan
    for it starts at the parent's branch variable."""
    node = _propagate(state, occ, touched, amask, vmask, live)
    if node is None:
        return None
    amask, vmask, live = node
    if not live:
        return amask, vmask, live, var, ()
    while amask >> (var - 1) & 1 or not any(map(state.__getitem__, occ[var])):
        var += 1
    return amask, vmask, live, var, ({var: 0}, {var: 1})


def _tuple_branching(state: list, occ: list[list[int]], touched, amask: int,
                     vmask: int, live: int, var: int):
    """Branch on the tuples of the constraint with the best local base."""
    for i in touched:
        con = state[i]
        if con is None:
            continue
        codes, scope = con
        if not codes:
            return None
        if len(codes) == (1 << len(scope)):
            state[i] = None
            live -= 1
    if not live:
        return amask, vmask, live, var, ()
    # best local branching base: fewest tuples per eliminated variable, the
    # first such constraint in constraint order
    pick = min((i for i, con in enumerate(state) if con is not None),
               key=lambda i: len(state[i][0]) ** (1.0 / len(state[i][1])))
    codes, scope = state[pick]
    state[pick] = None  # consumed by the branches
    return amask, vmask, live - 1, var, [dict(zip(scope, decode_tuple(code, len(scope))))
                                         for code in sorted(codes)]


def _search(root, occ: list[list[int]], n: int, policy, stats: EnumStats) -> Iterator[int]:
    """Depth-first search with an explicit stack, streaming total models.

    A node is its state list (see the module docstring), the masks of the
    assigned variables and of their values, and the number of live slots;
    `root` is (state, touched, amask, vmask, live), its touched constraints
    not yet checked.  A stack entry holds the parent's node plus one pending
    branch; the child copies the parent's list and restricts the constraints
    its branch touches only when the entry is popped.  Children are pushed in
    reverse, so branches are explored in policy order.
    """
    state, touched, amask, vmask, live = root
    var = 1
    depth = 0
    stack = []
    while True:
        if depth > stats.max_depth:
            stats.max_depth = depth
        node = policy(state, occ, touched, amask, vmask, live, var)
        if node is None:
            stats.leaves += 1
        else:
            amask, vmask, live, var, branches = node
            if not branches:
                yield from _expand_free(vmask, ((1 << n) - 1) & ~amask, stats)
            else:
                stats.branch_nodes += 1
                for branch in reversed(branches):
                    stack.append((state, amask, vmask, live, var, depth + 1, branch))
        if not stack:
            return
        state, amask, vmask, live, var, depth, branch = stack.pop()
        state = list(state)
        touched, amask, vmask = _fix(state, occ, branch, amask, vmask)


def _root(cons: list[_Con], n: int):
    """The unchecked root node over `cons` and its occurrence lists."""
    return (cons, range(len(cons)), 0, 0, len(cons)), _occurrences(cons, n)


def _compile(phi: Formula):
    """phi's propagated root (state, amask, vmask, live), or None on a
    conflict, and its occurrence lists."""
    (state, touched, amask, vmask, live), occ = _root(_cons_of(phi), phi.num_vars)
    node = _propagate(state, occ, touched, amask, vmask, live)
    return None if node is None else (state, *node), occ


def decide(phi: Formula) -> bool:
    """True iff the formula has a model (free variables are irrelevant).

    A formula built by core._extend is its _base plus TOP/BOT units: the
    search starts from the base's compiled root, built once and kept in
    base._compiled, with the units applied as assumptions."""
    base = phi._base
    if base is None:
        root, occ = _compile(phi)
        units = ()
    else:
        if base._compiled is None:
            object.__setattr__(base, "_compiled", _compile(base))
        root, occ = base._compiled
        units = phi.constraints[len(base.constraints):]
    if root is None:
        return False
    state, amask, vmask, live = root
    values: dict[int, int] = {}
    for con in units:
        v = con.scope[0]
        val = con.relation.codes[0]  # TOP holds the one tuple 1, BOT holds 0
        if amask >> (v - 1) & 1:
            if vmask >> (v - 1) & 1 != val:
                return False
        elif values.setdefault(v, val) != val:
            return False
    state = list(state)
    touched, amask, vmask = _fix(state, occ, values, amask, vmask)
    for _ in _search((state, touched, amask, vmask, live), occ, phi.num_vars,
                     _variable_branching, EnumStats()):
        return True
    return False


def enumerate_models(phi: Formula) -> ModelStream:
    """Stream exactly the set of total models over 1..num_vars, each once."""
    stats = EnumStats()
    root, occ = _root(_cons_of(phi), phi.num_vars)
    return ModelStream(_search(root, occ, phi.num_vars, _variable_branching, stats),
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
    root, occ = _root(start, phi.num_vars)
    return ModelStream(_search(root, occ, phi.num_vars, _tuple_branching, stats),
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
