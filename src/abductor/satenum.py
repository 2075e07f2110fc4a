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

A search node is three ints: amask and vmask, the masks of the assigned
variables and of their values, and live, a bitmask over constraint numbers
whose bit i is cleared once constraint i is dropped (satisfied or trivial) or
consumed (as a unit or as a branched tuple).  A constraint is never stored
restricted: a check of constraint i is one lookup in the search's memo for i,
keyed by the node's masks under i's scope mask (the OR of its scope's
variable bits).  The memo's miss path is core's one restriction table
(bounded by core._RESTRICT_TABLE_CODES), keyed by the constraint's code set,
its arity and the positions of its scope the node sets (hit) with their
values (want), gathered from the masks through the variables' bits; the memo
keeps the table's entry, so it outlives the table's clears.  The entry also
classifies the restriction as empty, full, a unit or open, so a check builds
no dict and no scope.  The occurrence lists (variable -> constraint numbers,
also as bitmasks) are built once per search, so a child is its masks, its
parent's live bitmask and the constraints its branch touches, with nothing
copied; propagation checks only the constraints touched since the last check
(Chaff, Moskewicz et al., DAC 2001).  Formulas are read through each
relation's cached code set, so a call copies no relation.

decide answers a formula built by core.conjoin_literals or core.entails (one
with a _base) from its base's compiled search and propagated root node, built
at the first such call and kept in the base's _compiled field, so the calls
on one base share its memos; the appended TOP/BOT units are assumptions
OR-ed into the root's masks, and the search starts by checking the
constraints they touch (MiniSat, Een & Sorensson, SAT 2003).  Any other
formula is compiled per call.  The base's search also keeps one cube, the
(amask, vmask) of the last satisfied node a decide call on the base reached.
decide answers True without searching when the new masks agree with the cube
on every variable both set: every completion of the cube is a model of the
base, whatever literals that call assumed, and the agreeing literals extend
it (the counterexample cache of KLEE, Cadar, Dunbar & Engler, OSDI 2008, kept
as one witness).  A searched True replaces the cube; a False leaves it.

A satisfied node has live == 0: every constraint is full under its masks, or
was consumed as a unit or a branched tuple whose values the masks hold, so
every completion of its masks is a model.  The search yields the (amask,
vmask) of each satisfied node, and decide reads the first; for enumeration, a
node that sets every variable emits its vmask inline, and one with
unconstrained variables streams their completions in increasing order.

solve_simple_sat keeps its own iterative branch-and-reduce procedure for
positive-clause/negative-DNF instances with the (1,...,p) clause branching.
Its node is four ints as well: bitmasks over clause and term numbers and the
masks of the variables set to 1 and to 0, read through per-variable
occurrence bitmasks of the clauses and terms, so a child copies no clause
and no DNF.

Stats accounting: branch_nodes counts nodes that opened branches; leaves
counts terminal paths, where a satisfied node with f unconstrained variables
contributes one leaf per emitted completion (so models_emitted <= leaves,
while leaves may exceed branch_nodes).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

from .core import EMPTY, FULL, OPEN, UNIT, Formula, restriction, submasks
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


class _Search:
    """A formula compiled for the search: its constraints as (code set,
    scope) pairs, and per variable v its bit 1 << (v-1), its occurrence list
    (the numbers of the constraints whose scope holds v, in order) and the
    same constraints as a bitmask.

    Per constraint i it also keeps the scope mask smasks[i], the OR of its
    scope's variable bits, and the memo memos[i] of the restriction entries
    read so far, keyed by a << n | vmask & a with a = amask & smasks[i]
    (injective, since vmask is a submask of amask in every node).  A check is
    one memo lookup; core's restriction table is the miss path.  A memo holds
    at most 3^k' keys, k' the number of distinct variables of the scope, and
    lives as long as the search.

    cube is None, or the (amask, vmask) of the last satisfied node decide
    reached on a KB's compiled search: every completion of it is a model of
    the KB, so decide answers True unsearched when the new literals agree
    with it.  A search compiled per call never gets one."""

    __slots__ = ("cons", "n", "vbits", "occ", "occbits", "smasks", "memos", "cube")

    def __init__(self, cons: list[tuple[frozenset[int], tuple[int, ...]]], n: int) -> None:
        self.cons = cons
        self.n = n
        self.vbits = vbits = [0] + [1 << v for v in range(n)]
        self.occ: list[list[int]] = [[] for _ in range(n + 1)]
        self.occbits = [0] * (n + 1)
        self.smasks = [0] * len(cons)
        self.memos: list[dict[int, tuple]] = [{} for _ in cons]
        self.cube: tuple[int, int] | None = None
        for i, (_, scope) in enumerate(cons):
            for v in set(scope):
                self.occ[v].append(i)
                self.occbits[v] |= 1 << i
                self.smasks[i] |= vbits[v]

    @classmethod
    def of(cls, phi: Formula) -> "_Search":
        return cls([(c.relation._codeset, c.scope) for c in phi.constraints],
                   phi.num_vars)

    def root(self) -> tuple:
        """The unchecked root node: every constraint touched and live."""
        m = len(self.cons)
        return range(m), 0, 0, (1 << m) - 1

    def entry(self, i: int, amask: int, vmask: int):
        """Constraint i's restriction-table entry under the masks: its memo's,
        or on a miss the table's, keyed by the positions of its scope the
        masks set (hit) and their values (want)."""
        a = amask & self.smasks[i]
        key = a << self.n | vmask & a
        memo = self.memos[i]
        entry = memo.get(key)
        if entry is None:
            codes, scope = self.cons[i]
            hit = want = 0
            p = 1
            vbits = self.vbits
            for v in scope:
                b = vbits[v]
                if amask & b:
                    hit |= p
                    if vmask & b:
                        want |= p
                p <<= 1
            entry = memo[key] = restriction(codes, len(scope), hit, want)
        return entry

    def touched(self, vs) -> list[int] | set[int]:
        """The constraints the variables `vs` occur in."""
        if len(vs) == 1:
            for v in vs:
                return self.occ[v]
        return {i for v in vs for i in self.occ[v]}


def _propagate(search: _Search, touched, amask: int, vmask: int, live: int):
    """Check the touched live constraints: an empty one is a conflict (None),
    a full one is dropped, and a unit is dropped and forces its variable; then
    check the constraints the forced values touch, until none is forced.
    Returns the new masks and live bitmask.  The fixpoint, and whether it
    conflicts, do not depend on the order of the checks."""
    vbits, smasks, memos, n = search.vbits, search.smasks, search.memos, search.n
    while True:
        forced: dict[int, bool] = {}
        for i in touched:
            cbit = 1 << i
            if not live & cbit:
                continue
            a = amask & smasks[i]
            out, keep, kind = memos[i].get(a << n | vmask & a) or search.entry(i, amask, vmask)
            if kind == OPEN:
                continue
            if kind == EMPTY:
                return None
            live ^= cbit
            if kind == UNIT:
                val = 1 in out
                if forced.setdefault(search.cons[i][1][keep[0]], val) != val:
                    return None
        if not forced:
            return amask, vmask, live
        for v, val in forced.items():
            amask |= vbits[v]
            if val:
                vmask |= vbits[v]
        touched = search.touched(forced)


# A branching policy takes a node (the constraints touched since its last
# check, its masks and its live bitmask) and the parent's branch variable.  It
# returns None on a conflict, or (amask, vmask, live, branch variable, touched,
# children): each child is the (amask, vmask) of one branch; every branch sets
# the same variables, which touch the constraints `touched`; no children means
# a satisfied node.

def _variable_branching(search: _Search, touched, amask: int, vmask: int,
                        live: int, var: int):
    """Propagate; then branch on the lowest-index variable of a live
    constraint.  A child's live variables are among its parent's, so the scan
    for it starts at the parent's branch variable."""
    node = _propagate(search, touched, amask, vmask, live)
    if node is None:
        return None
    amask, vmask, live = node
    if not live:
        return amask, vmask, live, var, (), ()
    occbits = search.occbits
    while amask >> (var - 1) & 1 or not occbits[var] & live:
        var += 1
    bit = search.vbits[var]
    a = amask | bit
    return amask, vmask, live, var, search.occ[var], ((a, vmask), (a, vmask | bit))


def _tuple_branching(search: _Search, touched, amask: int, vmask: int,
                     live: int, var: int):
    """Branch on the tuples of the constraint with the best local base."""
    smasks, memos, n = search.smasks, search.memos, search.n
    for i in touched:
        cbit = 1 << i
        if live & cbit:
            a = amask & smasks[i]
            kind = (memos[i].get(a << n | vmask & a) or search.entry(i, amask, vmask))[2]
            if kind == EMPTY:
                return None
            if kind == FULL:
                live ^= cbit
    if not live:
        return amask, vmask, live, var, (), ()
    # best local branching base: fewest tuples per eliminated variable, the
    # first such constraint in constraint order
    best = None
    rest = live
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        a = amask & smasks[i]
        entry = memos[i].get(a << n | vmask & a) or search.entry(i, amask, vmask)
        base = len(entry[0]) ** (1.0 / len(entry[1]))
        if best is None or base < best:
            best, pick, (out, keep, _) = base, i, entry
    kept = [search.cons[pick][1][j] for j in keep]
    bits = [search.vbits[v] for v in kept]
    a = amask | sum(bits)
    children = []
    for code in sorted(out):
        sub = vmask
        for j, bit in enumerate(bits):
            if code >> j & 1:
                sub |= bit
        children.append((a, sub))
    # the picked constraint is consumed by the branches
    return amask, vmask, live ^ (1 << pick), var, search.touched(kept), children


def _search(search: _Search, root, policy, stats: EnumStats) -> Iterator[tuple[int, int]]:
    """Depth-first search with an explicit stack, streaming the (amask, vmask)
    of every satisfied node.

    A node is three ints, the masks of the assigned variables and of their
    values and the live bitmask over constraint numbers, plus the constraints
    touched since its last check; `root` is (touched, amask, vmask, live).  A
    stack entry is one child: its masks, its parent's live bitmask and branch
    variable, its depth and the constraints its branch touches.  Children are
    pushed in reverse, so branches are explored in policy order.
    """
    touched, amask, vmask, live = root
    var = 1
    depth = 0
    stack = []
    while True:
        if depth > stats.max_depth:
            stats.max_depth = depth
        node = policy(search, touched, amask, vmask, live, var)
        if node is None:
            stats.leaves += 1
        else:
            amask, vmask, live, var, touched, children = node
            if not children:
                yield amask, vmask
            else:
                stats.branch_nodes += 1
                depth += 1
                for a, v in reversed(children):
                    stack.append((a, v, live, var, depth, touched))
        if not stack:
            return
        amask, vmask, live, var, depth, touched = stack.pop()


def _models(search: _Search, root, policy, stats: EnumStats) -> Iterator[int]:
    """The total models of _search's satisfied nodes: a node that sets every
    variable is one model, emitted inline; one with unconstrained variables
    is completed in every way on them, in increasing order."""
    full = (1 << search.n) - 1
    for amask, vmask in _search(search, root, policy, stats):
        if amask == full:
            stats.models_emitted += 1
            stats.leaves += 1
            yield vmask
        else:
            for sub in submasks(full & ~amask):
                stats.models_emitted += 1
                stats.leaves += 1
                yield vmask | sub


def _compile(phi: Formula):
    """phi's compiled search and its propagated root (amask, vmask, live), or
    None on a conflict."""
    search = _Search.of(phi)
    return search, _propagate(search, *search.root())


def decide(phi: Formula) -> bool:
    """True iff the formula has a model (free variables are irrelevant).

    A formula built by core._extend is its _base plus TOP/BOT units: the
    search starts from the base's compiled root, built once and kept in
    base._compiled, with the units OR-ed into its masks as assumptions.  If
    those masks agree with the search's cube, the answer is True unsearched;
    otherwise a searched True makes the first satisfied node the cube."""
    base = phi._base
    if base is None:
        search, root = _compile(phi)
        units = ()
    else:
        if base._compiled is None:
            object.__setattr__(base, "_compiled", _compile(base))
        search, root = base._compiled
        units = phi.constraints[len(base.constraints):]
    if root is None:
        return False
    amask, vmask, live = root
    vbits = search.vbits
    new = []
    for con in units:
        v = con.scope[0]
        bit = vbits[v]
        val = con.relation.codes[0]  # TOP holds the one tuple 1, BOT holds 0
        if amask & bit:
            # a unit against a value the root forced, or x and -x together
            if (vmask & bit != 0) != val:
                return False
            continue
        amask |= bit
        if val:
            vmask |= bit
        new.append(v)
    cube = search.cube
    if cube is not None and not (vmask ^ cube[1]) & amask & cube[0]:
        return True
    node = next(_search(search, (search.touched(new), amask, vmask, live), _variable_branching,
                        EnumStats()), None)
    if node is None:
        return False
    if base is not None:
        search.cube = node
    return True


def enumerate_models(phi: Formula) -> ModelStream:
    """Stream exactly the set of total models over 1..num_vars, each once."""
    stats = EnumStats()
    search = _Search.of(phi)
    return ModelStream(_models(search, search.root(), _variable_branching, stats), stats,
                       UNORDERED)


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

    start = []
    for con in phi.constraints:
        # the identification minor merges repeated variables of the scope
        first: dict[int, int] = {}
        rel = minor(con.relation, [first.setdefault(v, len(first) + 1) for v in con.scope])
        if first and not rel.is_trivial and rel not in lang:
            raise LanguageContractError(
                "identification minor escapes the language; it is not branching-closed")
        start.append((rel._codeset, tuple(first)))
    stats = EnumStats()
    search = _Search(start, phi.num_vars)
    return ModelStream(_models(search, search.root(), _tuple_branching, stats), stats,
                       UNORDERED)


def weight(sigma: int, hmask: int) -> int:
    return (sigma & hmask).bit_count()


def hyp_mask(hypotheses: Iterable[int]) -> int:
    m = 0
    for v in hypotheses:
        m |= 1 << (v - 1)
    return m


def enumerate_weight_ordered(phi: Formula, hypotheses: Iterable[int],
                             base: ModelStream | None = None) -> ModelStream:
    """All models sorted by non-increasing hypothesis weight w_H.

    Materializes the base stream into one bucket per weight and reads the
    buckets heaviest first, so equal weights keep the base emission order.
    """
    if base is None:
        base = enumerate_models(phi)
    hmask = hyp_mask(hypotheses)
    buckets: list[list[int]] = [[] for _ in range(hmask.bit_count() + 1)]
    for sigma in base:
        buckets[(sigma & hmask).bit_count()].append(sigma)
    models = [sigma for bucket in reversed(buckets) for sigma in bucket]
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

    The search is depth-first over an explicit stack, and a node is four
    ints: live, a bitmask over clause numbers, alive, a bitmask over term
    numbers, and the masks of the variables set to 1 and to 0.  The first
    clause is the lowest live bit.  Setting u to 1 clears the clauses and
    terms u occurs in (cocc[u], tocc[u]) and fails if a DNF of u's terms has
    no term left; setting variables to 0 fails if a live clause they occur in
    has no variable left outside the zeros.  Returns (model bitmask | None,
    stats); in a model, only branched-to-1 variables are set.
    """
    stats = EnumStats()
    if any(not d for d in inst.negative_dnfs):
        stats.leaves += 1
        return None, stats
    n = inst.num_vars
    clauses = [hyp_mask(c) for c in inst.positive_clauses]
    cocc = [0] * (n + 1)
    for i, c in enumerate(inst.positive_clauses):
        for v in c:
            cocc[v] |= 1 << i
    # tocc[v]: the terms v occurs in; dnfs_of[v]: the term bitmasks of the
    # DNFs those terms belong to
    tocc = [0] * (n + 1)
    dnfs_of: list[list[int]] = [[] for _ in range(n + 1)]
    t = 0
    for d in inst.negative_dnfs:
        terms = ((1 << len(d)) - 1) << t
        for term in d:
            for v in term:
                tocc[v] |= 1 << t
                if not dnfs_of[v] or dnfs_of[v][-1] != terms:
                    dnfs_of[v].append(terms)
            t += 1
    live = (1 << len(clauses)) - 1
    alive = (1 << t) - 1
    ones = zeros = depth = 0
    nodes = leaves = max_depth = 0
    # an entry is a node, the depth of its children, the variables of its
    # first clause not yet branched to 1, those already branched to 0 and
    # the clauses these occur in
    stack: list = []
    while True:  # at a node
        if depth > max_depth:
            max_depth = depth
        if not live:
            stats.branch_nodes, stats.max_depth = nodes, max_depth
            stats.leaves, stats.models_emitted = leaves + 1, 1
            return ones, stats
        nodes += 1
        depth += 1
        rest = clauses[(live & -live).bit_length() - 1] & ~zeros
        zs = zocc = 0
        while True:  # build the next branch that is not dead on arrival
            one = rest & -rest
            rest ^= one
            u = one.bit_length()
            if rest:
                stack.append((live, alive, ones, zeros, depth, rest, zs | one,
                              zocc | cocc[u]))
            # the child: u is 1 and the variables of zs are 0
            live &= ~cocc[u]
            alive &= ~tocc[u]
            zeros |= zs
            for terms in dnfs_of[u]:
                if not alive & terms:
                    break  # a DNF of u's terms has no term left
            else:
                hit = zocc & live  # the live clauses the zs variables occur in
                while hit:
                    b = hit & -hit
                    if not clauses[b.bit_length() - 1] & ~zeros:
                        break  # such a clause has every variable 0
                    hit ^= b
                else:
                    ones |= one
                    break  # go down to the child
            leaves += 1
            if not stack:
                stats.branch_nodes, stats.leaves, stats.max_depth = nodes, leaves, max_depth
                return None, stats
            live, alive, ones, zeros, depth, rest, zs, zocc = stack.pop()
