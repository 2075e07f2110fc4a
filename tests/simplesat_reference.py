"""SimpleSAT's (1,...,p) clause branching as a copy-per-child procedure,
kept beside the tests as the definition satenum.solve_simple_sat is held to:
the same branch order, the same model and the same EnumStats, with every
child's clauses and DNFs rebuilt as new lists instead of read through
occurrence bitmasks."""

from abductor.satenum import EnumStats, SimpleSatInstance, hyp_mask


def reference_simple_sat(inst: SimpleSatInstance) -> tuple[int | None, EnumStats]:
    """Branch-and-reduce satisfiability for SimpleSAT instances.

    Variables outside every remaining positive clause stay 0, so a negative
    term survives until some of its variables is set to 1; a DNF whose terms
    have all been hit that way can never be satisfied and fails the branch.
    Positive clauses are consumed with the (1,...,q) branching: branch i sets
    the first i-1 clause variables to 0 and the i-th to 1.

    The search is depth-first over an explicit stack, with clauses and terms
    held as variable bitmasks, and every child gets its own copies of the
    clauses and DNFs left.  Returns (model bitmask | None, stats); in a
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
