"""The slow 3^|H| oracle, kept beside the tests as an independent check of the
extension property the fast oracles rely on: an explanation exists iff a full
one does."""

from abductor.core import (AbductionInstance, OracleCapError, TRIVIALLY_NO,
                           preprocess, satisfies_vars, table_models)
from abductor.solvers import brute_models

GENERAL_MAX_HYP = 10


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
