"""SAT decision and model enumeration engines.

decide, enumerate_models and sparse_enumerate share one internal constraint
form (tuple-code set + scope) and one iterative depth-first search loop,
_search, whose depth is not bounded by Python's recursion limit and which
checks constraints and applies one of two branching rules inline:

  decide                  -- the variable rule: unit propagation, then the
                             lowest-index variable; stops at the first model
  enumerate_models        -- same search, streaming every total model
  sparse_enumerate        -- the tuple rule, for languages closed under
                             branching: one branch per tuple of a whole
                             constraint (eliminates its scope per branch),
                             with no unit forced

A search node is three ints: amask and vmask, the masks of the assigned
variables and of their values, and live, a bitmask over constraint numbers
whose bit i is cleared once constraint i is dropped (satisfied or trivial) or
consumed (as a unit or as a branched tuple).  A constraint is never stored
restricted: a check of constraint i is one lookup in the search's memo for i,
keyed by the node's masks under i's scope mask (the OR of its scope's
variable bits).  The memo's miss path is core's one restriction table
(bounded by core._RESTRICT_TABLE_CODES), read through core.restriction
with the constraint's code set, its scope and the node's masks; the memo
keeps the table's entry, so it outlives the table's clears.  The entry also
classifies the restriction as empty, full, a unit or open, so a check builds
no dict and no scope.  A variable's occurrences (the constraints whose scope
holds it), which the Formula computes once on construction with each
constraint's scope mask (core), and every set of touched constraints are
bitmasks over constraint numbers, so a child is its masks, its parent's live
bitmask and the bitmask of the constraints its branch touches, with nothing
copied; a node checks only the live constraints touched since the last check
(Chaff, Moskewicz et al., DAC 2001), inline in the node loop.  Formulas are
read through each relation's cached code set, so a call copies no relation.

decide answers KB ∧ assumptions on a KB compiled by compile_kb (its search
and checked root, in start).  The assumptions are two variable-bit masks,
positive and negated, OR-ed into the root's masks, and the search starts at
the newly set variables' occurrence bitmasks (MiniSat, Een & Sorensson, SAT
2003; IPASIR, Balyo, Biere, Iser & Sinz, AI 241, 2016).  The solvers
compile their KB once per call, so the calls of one solver call share its
memos, and nothing outlives the solver call.  The compiled KB also keeps one
cube, the (amask, vmask) of the last satisfied node a decide call on it
reached.  decide answers True without searching when the new masks agree
with the cube on every variable both set: every completion of the cube is a
model of the KB, whatever that call assumed, and the agreeing assumptions
extend it (the counterexample cache of KLEE, Cadar, Dunbar &
Engler, OSDI 2008, kept as one witness).  A searched True replaces the cube;
a False leaves it.  A search on the KB enters the cube's value of a branch
variable first (phase saving, Pipatsrisawat & Darwiche, SAT 2007).  The KB
also keeps the last constraint the check found empty; decide answers False
unsearched when it is empty under the new masks too (last conflict,
Lecoutre, Saïs, Tabary & Vidal, AIJ 173(18), 2009), since every model of KB
∧ assumptions holds the root's forced values and the assumptions.

A satisfied node has live == 0: every constraint is full under its masks, or
was consumed as a unit or a branched tuple whose values the masks hold, so
every completion of its masks is a model.  decide and compile_kb read the
search's satisfied nodes, as (amask, vmask); enumerate_models and
sparse_enumerate return the search itself, which emits the models from its
loop: a satisfied node that sets every variable emits its vmask, and one
with unconstrained variables their completions, in increasing order.

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

import functools
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Iterable, Iterator

from .core import (EMPTY, OPEN, UNIT, Formula, StructureError, decode_tuple,
                   hyp_mask, restriction)
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

    def __iter__(self) -> Iterator[int]:
        # the underlying iterator itself, so a for loop skips __next__
        return self._it

    def __next__(self) -> int:
        return next(self._it)


@functools.lru_cache(maxsize=64)
def _vbits(n: int) -> tuple[int, ...]:
    """The bit 1 << (v-1) of every variable v in 1..n, at index v: one
    tuple per n, shared by every search over n variables."""
    return (0,) + tuple([1 << v for v in range(n)])


class _Search:
    """A formula compiled for the search: its constraints as (code set,
    scope) pairs, each variable v's bit vbits[v] = 1 << (v-1), shared by
    every search over n variables, and the structure facts the Formula
    computed on construction (core), read and never rebuilt: per variable v
    the bitmask occbits[v] of the constraints whose scope holds v, and per
    constraint i its scope mask smasks[i], the OR of its scope's variable
    bits.  sparse_enumerate's constraints are minors over the same variable
    sets, so the masks hold for them too.

    A search builds only its per-call state, fresh on every compile.  Per
    constraint i it keeps the memo memos[i] of the restriction entries read
    so far, keyed by a << n | vmask & a with a = amask & smasks[i]
    (injective, since vmask is a submask of amask in every node).  A check is
    one memo lookup; on a miss, fill takes the key the check computed, reads
    core.restriction under the node's masks and stores its entry.  entry is
    the lookup for a caller that holds no key.  A memo holds at most 3^k'
    keys, k' the number of distinct variables of the scope, and lives as
    long as the search.

    A KB compiled by compile_kb also holds start, its checked root
    (amask, vmask, live), or None on a conflict, and cube: None, or the
    (amask, vmask) of the last satisfied node decide reached on it.  Every
    completion of the cube is a model of the KB, so decide answers True
    unsearched when the new masks agree with it.  conflict is None, or the
    last constraint _search's check found empty, which decide re-checks."""

    __slots__ = ("cons", "n", "vbits", "occbits", "smasks", "memos", "cube", "start",
                 "conflict")

    def __init__(self, phi: Formula, cons: list[tuple[frozenset[int], tuple[int, ...]]]) -> None:
        self.cons = cons
        self.n = phi.num_vars
        self.vbits = _vbits(phi.num_vars)
        self.occbits = phi._occbits
        self.smasks = phi._smasks
        self.memos: list[dict[int, tuple]] = [{} for _ in cons]
        self.cube: tuple[int, int] | None = None
        self.conflict: int | None = None

    @classmethod
    def of(cls, phi: Formula) -> "_Search":
        return cls(phi, [(c.relation._codeset, c.scope) for c in phi.constraints])

    def root(self) -> tuple:
        """The unchecked root node: every constraint touched and live."""
        every = (1 << len(self.cons)) - 1
        return every, 0, 0, every

    def entry(self, i: int, amask: int, vmask: int):
        """Constraint i's restriction-table entry under the masks: its memo's,
        or on a miss fill's."""
        a = amask & self.smasks[i]
        key = a << self.n | vmask & a
        return self.memos[i].get(key) or self.fill(i, key, amask, vmask)

    def fill(self, i: int, key: int, amask: int, vmask: int):
        """The miss path: core.restriction's entry for constraint i under the
        masks, stored in its memo under `key`, which the caller computed."""
        codes, scope = self.cons[i]
        entry = self.memos[i][key] = restriction(codes, scope, amask, vmask)
        return entry

    def touched(self, bits: int) -> int:
        """The bitmask of the constraints the variables of the variable-bit
        mask `bits` occur in."""
        occbits = self.occbits
        out = 0
        while bits:
            low = bits & -bits
            bits ^= low
            out |= occbits[low.bit_length()]
        return out


def _search(search: _Search, root, stats: EnumStats, tuples: bool = False,
            root_only: bool = False, models: bool = False) -> Iterator:
    """Depth-first search with an explicit stack, streaming the (amask, vmask)
    of every satisfied node; with `root_only`, only the (amask, vmask, live)
    of the checked root, unless it conflicts; with `models`, the total
    models: a satisfied node's vmask if it sets every variable, else every
    completion of it on the unset variables, in increasing order.

    A node is three ints, the masks of the assigned variables and of their
    values and the live bitmask over constraint numbers, plus the bitmask of
    the constraints touched since its last check; `root` is (touched, amask,
    vmask, live).  The loop checks each node's touched live constraints,
    highest number first: an empty one is a conflict, kept in
    search.conflict, and a full one is dropped.  Under the variable rule a
    unit is dropped and forces its variable (two units forcing it both ways
    conflict without setting search.conflict), and the constraints the
    forced values touch are checked next, until none is forced; under the
    tuple rule a unit stays live.  The check order only picks the empty
    constraint kept: highest first keeps it through a descent that sets low
    variables first.  A node that neither conflicts nor is satisfied
    branches by one of two rules:

      variable rule   -- on the lowest-index variable of a live constraint,
                         the value search.cube holds (or 0) first; a
                         child's live variables are among its parent's, so
                         the scan starts at the parent's branch variable
      tuple rule      -- with `tuples`: on the tuples of the live constraint
                         with the best local base (fewest tuples per
                         eliminated variable, the first such in constraint
                         order), in increasing code order; the branches
                         consume the constraint

    The tuple rule computes each base as len(out) ** (1 / len(keep)) and
    keeps one plan per picked constraint and memo key: the kept variable
    bits, the constraints they touch and the tuples' value offsets, so a
    branch is its parent's vmask OR an offset; the plans live as long as the
    call.  The search enters the first child directly and pushes the others
    in reverse, each as a stack entry: its masks, its parent's live bitmask
    and branch variable, its depth and the constraints its branch touches.
    A memo miss hands the key the check or the tuple rule computed to
    search.fill.  The counters are locals, written to `stats` before every
    yield and when the search ends, so `stats` is exact whenever the stream
    is paused; a model is one leaf.  A node-mode caller may add leaves of
    its own while the search is paused, and the search reads them back.
    """
    touched, amask, vmask, live = root
    units = not tuples
    cons, vbits, occbits = search.cons, search.vbits, search.occbits
    smasks, memos, n = search.smasks, search.memos, search.n
    full = (1 << n) - 1
    phase = search.cube[1] if search.cube else 0
    plans = {}  # the tuple rule's branch plans
    var = 1
    depth = 0
    stack = []
    nodes, max_depth, leaves = stats.branch_nodes, stats.max_depth, stats.leaves
    emitted = stats.models_emitted
    try:
        while True:
            # the bits of the variables forced in this pass, and of those forced to 1
            fa = fv = 0
            t = touched & live
            while t:
                i = t.bit_length() - 1
                cbit = 1 << i
                t ^= cbit
                a = amask & smasks[i]
                key = a << n | vmask & a
                out, keep, kind = memos[i].get(key) or search.fill(i, key, amask, vmask)
                if kind == OPEN:
                    continue
                if kind == EMPTY:
                    search.conflict = i
                    leaves += 1
                    break
                if kind == UNIT:
                    if not units:
                        continue
                    b = vbits[cons[i][1][keep[0]]]
                    v = b if 1 in out else 0
                    if fa & b and fv & b != v:
                        leaves += 1
                        break
                    fa |= b
                    fv |= v
                live ^= cbit
            else:  # no conflict
                if fa:
                    amask |= fa
                    vmask |= fv
                    # one forced variable (the common case): its constraints' bitmask
                    touched = search.touched(fa) if fa & fa - 1 else occbits[fa.bit_length()]
                    continue
                if root_only:
                    yield amask, vmask, live
                    return
                if live:
                    nodes += 1
                    depth += 1
                    if depth > max_depth:  # a stacked child is never deeper
                        max_depth = depth
                    if units:
                        while amask >> (var - 1) & 1 or not occbits[var] & live:
                            var += 1
                        bit = vbits[var]
                        amask |= bit
                        touched = occbits[var]
                        if phase & bit:
                            stack.append((amask, vmask, live, var, depth, touched))
                            vmask |= bit
                        else:
                            stack.append((amask, vmask | bit, live, var, depth, touched))
                        continue
                    best = float("inf")
                    rest = live
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        i = low.bit_length() - 1
                        a = amask & smasks[i]
                        key = a << n | vmask & a
                        out, keep, _ = memos[i].get(key) or search.fill(i, key, amask, vmask)
                        base = len(out) ** (1.0 / len(keep))
                        if base < best:
                            best, pick, pkey = base, i, key
                    plan = plans.get((pick, pkey))
                    if plan is None:
                        out, keep, _ = memos[pick][pkey]
                        bits = [vbits[cons[pick][1][j]] for j in keep]
                        offs = [sum(b for b, x in zip(bits, decode_tuple(code, len(bits))) if x)
                                for code in sorted(out)]
                        plan = plans[pick, pkey] = sum(bits), search.touched(sum(bits)), offs
                    kept, touched, offs = plan
                    live ^= 1 << pick
                    amask |= kept
                    for off in offs[:0:-1]:
                        stack.append((amask, vmask | off, live, var, depth, touched))
                    vmask |= offs[0]
                    continue
                stats.branch_nodes, stats.max_depth = nodes, max_depth
                if not models:
                    stats.leaves = leaves
                    yield amask, vmask
                    leaves = stats.leaves  # with the leaves of a caller's completions
                elif amask == full:
                    leaves += 1
                    emitted += 1
                    stats.leaves, stats.models_emitted = leaves, emitted
                    yield vmask
                else:  # every completion, in increasing order (core.submasks)
                    free = full ^ amask
                    sub = 0
                    while True:
                        leaves += 1
                        emitted += 1
                        stats.leaves, stats.models_emitted = leaves, emitted
                        yield vmask | sub
                        if sub == free:
                            break
                        sub = (sub - free) & free
            if not stack:
                return
            amask, vmask, live, var, depth, touched = stack.pop()
    finally:
        stats.branch_nodes, stats.max_depth, stats.leaves = nodes, max_depth, leaves


def compile_kb(kb: Formula) -> _Search:
    """The KB compiled for decide: its search, with the root _search checked
    in start.  A solver compiles its KB once per call."""
    search = _Search.of(kb)
    search.start = next(_search(search, search.root(), EnumStats(), root_only=True), None)
    return search


def decide(kb: _Search, pos: int = 0, neg: int = 0) -> bool:
    """True iff KB ∧ the assumptions has a model, for a KB compiled by
    compile_kb; pos and neg are the variable-bit masks of the assumed
    positive and negated literals.

    The masks are OR-ed into those of the KB's root.  If the result agrees
    with the KB's cube, the answer is True unsearched, and if the KB's last
    conflict is empty under it, False unsearched; otherwise the search
    starts from the constraints of the newly set variables, and a searched
    True makes the first satisfied node the cube.  Raises StructureError on a
    mask bit past the KB's variables, before any other check."""
    if (pos | neg) >> kb.n:
        raise StructureError(f"assumption past variable {kb.n}")
    amask, vmask, live = kb.start or (0, 0, 0)
    # a root conflict, x and ¬x assumed, or an assumption against a forced value
    if kb.start is None or pos & neg or (pos & ~vmask | neg & vmask) & amask:
        return False
    new = (pos | neg) & ~amask
    amask |= new
    vmask |= pos
    cube = kb.cube
    if cube is not None and not (vmask ^ cube[1]) & amask & cube[0]:
        return True
    if kb.conflict is not None and kb.entry(kb.conflict, amask, vmask)[2] == EMPTY:
        return False
    node = next(_search(kb, (kb.touched(new), amask, vmask, live), EnumStats()), None)
    if node is None:
        return False
    kb.cube = node
    return True


def enumerate_models(phi: Formula) -> ModelStream:
    """Stream exactly the set of total models over 1..num_vars, each once:
    the stream is the search, which emits each model from its loop."""
    stats = EnumStats()
    search = _Search.of(phi)
    return ModelStream(_search(search, search.root(), stats, models=True), stats, UNORDERED)


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
    search = _Search(phi, start)
    return ModelStream(_search(search, search.root(), stats, tuples=True, models=True),
                       stats, UNORDERED)


def enumerate_weight_ordered(phi: Formula, hypotheses: Iterable[int],
                             base: ModelStream | None = None) -> ModelStream:
    """All models sorted by non-increasing hypothesis weight w_H.

    Still materializes the whole base stream, into one bucket per weight,
    then streams the buckets in place, heaviest first, with no second copy
    of the models, so equal weights keep the base emission order.
    """
    if base is None:
        base = enumerate_models(phi)
    hmask = hyp_mask(hypotheses)
    buckets: list[list[int]] = [[] for _ in range(hmask.bit_count() + 1)]
    for sigma in base:
        buckets[(sigma & hmask).bit_count()].append(sigma)
    return ModelStream(chain.from_iterable(reversed(buckets)), base.stats, WEIGHT_ORDERED)


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
