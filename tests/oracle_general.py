"""The oracles' definitions, kept beside the tests as independent checks of
solvers.explained and of the four oracle entry points built on it:

- the H-projection counts of the models and the superset sums over the
  H-subset lattice, from which the explanations are read one pattern at a
  time;
- the slow 3^|H| oracle, which checks the extension property the fast oracles
  rely on: an explanation exists iff a full one does."""

from collections import Counter

from abductor.core import (AbductionInstance, OracleCapError, TRIVIALLY_NO,
                           columns, preprocess, submasks, table_models)
from abductor.satenum import hyp_mask
from abductor.solvers import brute_models

GENERAL_MAX_HYP = 10


def satisfies_vars(sigma: int, vs) -> bool:
    """Whether the assignment sigma sets every variable of vs to 1."""
    return all((sigma >> (v - 1)) & 1 for v in vs)


def projection_counts(inst: AbductionInstance) -> tuple[Counter, Counter]:
    """The models of KB counted per H-projection sigma & hmask: (all models,
    models violating M), without preprocessing."""
    table = brute_models(inst.kb)
    good = table  # the models that satisfy M
    for m in inst.manifestations:
        good &= columns(inst.num_vars)[m - 1][1]
    project = hyp_mask(inst.hypotheses).__and__
    return (Counter(map(project, table_models(table))),
            Counter(map(project, table_models(table ^ good))))


def superset_sums(inst: AbductionInstance, count: Counter,
                  bad: Counter) -> tuple[dict[int, int], dict[int, int]]:
    """The projection counts (count, bad) summed over the supersets of every
    submask of the H mask, keyed in increasing order."""
    f = dict.fromkeys(submasks(hyp_mask(inst.hypotheses)), 0)
    g = dict(f)
    for proj, c in count.items():
        f[proj] += c
        g[proj] += bad[proj]
    for v in sorted(inst.hypotheses):
        bit = 1 << (v - 1)
        for p in f:
            if not p & bit:
                f[p] += f[p | bit]
                g[p] += g[p | bit]
    return f, g


def explained_by_definition(inst: AbductionInstance) -> tuple[int, list[int], list[int]]:
    """(model count, full patterns, positive patterns) in increasing order: a
    full pattern is an H-projection of some model and of no violating one; a
    positive pattern is set by some model and by no violating one."""
    count, bad = projection_counts(inst)
    f, g = superset_sums(inst, count, bad)
    return (sum(count.values()), sorted(p for p in count if p not in bad),
            [p for p in f if f[p] > 0 and g[p] == 0])


def oracles_by_definition(inst: AbductionInstance):
    """What oracle_abd and oracle_pabd (witness literals or None, and the
    model count), oracle_full_explanations and oracle_positive_explanations
    return, read off explained_by_definition of the preprocessed instance."""
    pre = preprocess(inst)
    if pre.verdict == TRIVIALLY_NO:
        return (None, None), (None, None), frozenset(), (frozenset(), frozenset())
    hyp = sorted(pre.instance.hypotheses)
    models, full, positive = explained_by_definition(pre.instance)
    full_sets = [frozenset(h if p >> (h - 1) & 1 else -h for h in hyp) for p in full]
    pos_sets = [frozenset(h for h in hyp if p >> (h - 1) & 1) for p in positive]
    maximal = frozenset(e for e in pos_sets if not any(e < d for d in pos_sets))
    widest = max(pos_sets, key=len, default=None)  # the first, in pattern order
    return ((full_sets[0] | pre.self_explained if full_sets else None, models),
            (widest | pre.self_explained if widest is not None else None, models),
            frozenset(full_sets), (frozenset(pos_sets), maximal))


def oracle_abd_general(inst: AbductionInstance) -> bool:
    """True iff some consistent E ⊆ Lits(H), of the 3^|H| sets, explains M."""
    pre = preprocess(inst)
    if pre.verdict == TRIVIALLY_NO:
        return False
    inst = pre.instance
    if len(inst.hypotheses) > GENERAL_MAX_HYP:
        raise OracleCapError("|H| too large for the 3^|H| sweep")
    models = table_models(brute_models(inst.kb))
    hyp = sorted(inst.hypotheses)
    states = [(0, 0)]
    for h in hyp:
        bit = 1 << (h - 1)
        states = [(p | (bit if c == 1 else 0), m | (bit if c == 2 else 0))
                  for p, m in states for c in (0, 1, 2)]
    for pos, neg in states:
        sat_seen = False
        holds = True
        for sigma in models:
            if sigma & pos == pos and sigma & neg == 0:
                sat_seen = True
                if not satisfies_vars(sigma, inst.manifestations):
                    holds = False
                    break
        if sat_seen and holds:
            return True
    return False
