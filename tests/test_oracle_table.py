"""The bit-parallel truth table behind the brute-force oracle lists exactly the
models the definition (core.evaluate, assignment by assignment) accepts, the
oracle view over it (solvers.explained) and the four oracle entry points read
the explanations the definition (oracle_general) reads, and the CNF table of
CnfFormula.satisfiable agrees with a literal-by-literal scan."""

import random

import pytest

from abductor.core import (BOT, FALSE0, TOP, TRUE0, AbductionInstance,
                           Formula, OracleCapError, Relation, columns, evaluate,
                           formula, table_models, truth_table)
from abductor.harness import verify
from abductor.harness.generators import gen_xsat
from abductor.reductions import CnfFormula
from abductor.satenum import EnumStats
from abductor.solvers import (brute_models, explained, oracle_abd,
                              oracle_full_explanations, oracle_pabd,
                              oracle_positive_explanations)
from oracle_general import (explained_by_definition, oracle_abd_general,
                            oracles_by_definition)


def scan(phi: Formula) -> list[int]:
    return [s for s in range(1 << phi.num_vars) if evaluate(phi, s)]


def oracle_models(phi: Formula) -> list[int]:
    return table_models(brute_models(phi))


def random_relation(rng: random.Random, arity: int) -> Relation:
    size = rng.randrange(1 << arity) + 1  # 1..2^k tuples; over half often
    return Relation(arity, tuple(rng.sample(range(1 << arity), size)))


def random_kb(rng: random.Random, n: int) -> Formula:
    cons = []
    for _ in range(rng.randrange(6)):
        roll = rng.random()
        if roll < 0.1 or n == 0:
            cons.append((rng.choice((TRUE0, FALSE0)), ()))
            continue
        arity = rng.randrange(1, 5)
        # draw with replacement, so scopes repeat variables
        scope = tuple(rng.randrange(1, n + 1) for _ in range(arity))
        cons.append((random_relation(rng, arity), scope))
    return formula(n, cons)


def test_columns_hold_the_assignment_bits():
    for n in range(7):
        full = (1 << (1 << n)) - 1
        for v, (neg, pos) in enumerate(columns(n), start=1):
            assert neg == full ^ pos
            assert table_models(pos) == [s for s in range(1 << n) if s >> (v - 1) & 1]


def test_readout_lists_the_set_bits_in_increasing_order():
    rng = random.Random(5)
    assert table_models(0) == []
    assert table_models(1) == [0]
    for _ in range(50):
        table = rng.getrandbits(rng.randrange(1, 3000))
        assert table_models(table) == [s for s in range(table.bit_length()) if table >> s & 1]


def test_table_matches_the_definition_on_the_exhaustive_pool():
    seen = set()
    for inst in list(verify.exhaustive_instances()) + list(verify.preprocess_audit_instances()):
        if inst.kb in seen:
            continue
        seen.add(inst.kb)
        assert oracle_models(inst.kb) == scan(inst.kb), inst.kb
    assert len(seen) > 100


@pytest.mark.parametrize("n", range(11))
def test_table_matches_the_definition_on_random_kbs(n):
    rng = random.Random(1000 + n)
    for _ in range(60 if n <= 8 else 15):
        phi = random_kb(rng, n)
        assert table_models(truth_table(phi)) == scan(phi), phi


def test_table_edge_cases():
    assert table_models(truth_table(Formula(0, ()))) == [0]
    assert table_models(truth_table(Formula(3, ()))) == list(range(8))
    assert truth_table(formula(0, [(FALSE0, ())])) == 0
    assert truth_table(formula(2, [(TRUE0, ())])) == 0b1111
    # a relation holding 15 of 16 tuples goes through the complement path
    wide = Relation(4, tuple(range(1, 16)))
    for scope in ((1, 2, 3, 4), (4, 2, 4, 1), (3, 3, 3, 3)):
        phi = formula(4, [(wide, scope)])
        assert table_models(truth_table(phi)) == scan(phi)
    # x and not-x on one variable
    phi = formula(2, [(TOP, (1,)), (BOT, (1,))])
    assert truth_table(phi) == 0


def assert_view_is_the_definition(inst: AbductionInstance) -> None:
    models, full, positive = explained(inst)
    assert (models, table_models(full), table_models(positive)) == explained_by_definition(inst), inst


def assert_oracles_are_the_definition(inst: AbductionInstance) -> None:
    (abd_wit, models), (pabd_wit, _), full_set, pos_sets = oracles_by_definition(inst)
    stats = EnumStats() if models is None else EnumStats(0, 1 << inst.num_vars, models, 0)
    for res, wit in ((oracle_abd(inst), abd_wit), (oracle_pabd(inst), pabd_wit)):
        assert res.answer == (wit is not None), inst
        assert (res.witness and res.witness.literals) == wit, inst
        assert res.stats == stats, inst
    assert oracle_full_explanations(inst) == full_set, inst
    assert oracle_positive_explanations(inst) == pos_sets, inst


def random_instance(rng: random.Random, n: int) -> AbductionInstance:
    """A random_kb KB with H and M drawn independently, so they overlap, and
    may hold variables outside var(KB)."""
    return AbductionInstance(random_kb(rng, n),
                             frozenset(v for v in range(1, n + 1) if rng.random() < 0.5),
                             frozenset(v for v in range(1, n + 1) if rng.random() < 0.3))


def test_view_matches_the_definition_on_the_exhaustive_pool():
    count = 0
    for inst in list(verify.exhaustive_instances()) + list(verify.preprocess_audit_instances()):
        assert_view_is_the_definition(inst)
        assert_oracles_are_the_definition(inst)
        count += 1
    assert count == 15525 + 4096


@pytest.mark.parametrize("n", range(11))
def test_view_matches_the_definition_on_random_kbs(n):
    rng = random.Random(2000 + n)
    answers = set()
    for _ in range(60 if n <= 8 else 15):
        inst = random_instance(rng, n)
        assert_view_is_the_definition(inst)
        assert_oracles_are_the_definition(inst)
        answers.add((oracle_abd(inst).answer, oracle_pabd(inst).answer))
    assert n < 2 or len(answers) > 1


def test_the_cap_on_n_is_enforced_where_the_table_is_built():
    with pytest.raises(OracleCapError):
        columns(21)
    with pytest.raises(OracleCapError):
        brute_models(Formula(21, ()))
    with pytest.raises(OracleCapError):
        CnfFormula(21, ((1,),)).satisfiable()


def test_general_oracle_refuses_n_above_the_cap():
    inst = gen_xsat(21, 0)
    assert inst.num_vars == 21
    small_h = AbductionInstance(inst.kb, frozenset(sorted(inst.hypotheses)[:3]),
                                inst.manifestations)
    with pytest.raises(OracleCapError, match="n=21"):
        oracle_abd_general(small_h)


def cnf_scan(phi: CnfFormula) -> bool:
    for sigma in range(1 << phi.num_vars):
        if all(any((sigma >> (abs(l) - 1)) & 1 == (l > 0) for l in cl)
               for cl in phi.clauses):
            return True
    return False


def test_cnf_table_matches_a_literal_scan():
    rng = random.Random(7)
    checked = {True: 0, False: 0}
    for n in range(11):
        for _ in range(40):
            clauses = []
            for _ in range(rng.randrange(8 if n else 2)):
                width = rng.randrange(4 if n else 1)  # 0 is the empty clause
                clauses.append(tuple(rng.choice((1, -1)) * rng.randrange(1, n + 1)
                                     for _ in range(width)))
            phi = CnfFormula(n, tuple(clauses))
            want = cnf_scan(phi)
            assert phi.satisfiable() == want, phi
            checked[want] += 1
    assert min(checked.values()) > 50
    assert CnfFormula(0, ()).satisfiable()
    assert CnfFormula(3, ()).satisfiable()
    assert not CnfFormula(3, ((),)).satisfiable()
    assert not CnfFormula(1, ((1,), (-1,))).satisfiable()

