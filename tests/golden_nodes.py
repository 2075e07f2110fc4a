"""Golden node counts and SAT-call traces of the exact engines.

Write the golden file from the root of a checkout with

    PYTHONPATH=src python3 tests/golden_nodes.py > BENCH_nodes.json

Each line of "entries" is one (engine, family, n, seed) run.  It holds
the answer and witness, the EnumStats counters (branch_nodes, leaves,
models_emitted, max_depth) and, for engines that take a `sat=` callback, the
number of SAT calls and a sha256 of the (constraint count, result) sequence
of those calls, where a call sat(kb, pos, neg) counts |KB| + |pos| + |neg|
constraints (the KB's and one unit per assumed literal; see _CountingSat).
For a model stream, the answer is a sha256 of the models in emission order.  Node counts do not depend on the
machine, so test_golden_nodes.py recomputes the file and compares it
exactly.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Iterator

from abductor.core import AbductionInstance, Relation, formula
from abductor.langlib import aff, branching_closure, imp, xsat_family
from abductor.satenum import decide, solve_simple_sat, sparse_enumerate
from abductor.solvers import ENGINES
from abductor.harness import generators, verify
from abductor.harness.bench import baseline_hard_instance, simplesat_hard_instance

COMMAND = "PYTHONPATH=src python3 tests/golden_nodes.py > BENCH_nodes.json"
RANDOM_SEEDS = (0, 1, 2)  # random_instances(40, 12, s)
# the rows of solvers.ENGINES by function name, which is the "engine" of an entry
ENGINE = {e.solve.__name__: e for e in ENGINES}


def _sha(items) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()[:16]


class _CountingSat:
    """A `sat=` callback that records every call to satenum.decide, counting
    |KB| + |pos| + |neg| constraints.  This equals the |KB| + |lits| the
    golden file was recorded with when a call took a list of literals: no
    call on these pools lists a literal twice or both x and ¬x (the
    manifestation ¬m never lands on an assumed hypothesis, since no
    instance here keeps a variable in both H and M after preprocessing), so
    each literal is one mask bit."""

    def __init__(self) -> None:
        self.calls: list[tuple[int, bool]] = []

    def __call__(self, kb, pos: int, neg: int) -> bool:
        result = decide(kb, pos, neg)
        self.calls.append((len(kb.cons) + pos.bit_count() + neg.bit_count(), result))
        return result


def _entry(engine: str, family: str, n: int, seed: int, answer, stats,
           witness=None, sat: _CountingSat | None = None) -> dict:
    return {"engine": engine, "family": family, "n": n, "seed": seed,
            "answer": answer,
            "witness": None if witness is None else sorted(witness.literals),
            "branch_nodes": stats.branch_nodes, "leaves": stats.leaves,
            "models_emitted": stats.models_emitted, "max_depth": stats.max_depth,
            "sat_calls": None if sat is None else len(sat.calls),
            "sat_trace": None if sat is None else _sha(sat.calls)}


def _with_sat(engine: str, family: str, n: int, seed: int, inst: AbductionInstance) -> dict:
    sat = _CountingSat()
    res = ENGINE[engine].solve(inst, sat=sat)
    return _entry(engine, family, n, seed, res.answer, res.stats, res.witness, sat)


def _solver(engine: str, family: str, n: int, seed: int, inst: AbductionInstance) -> dict:
    res, _ = ENGINE[engine].run(inst)
    return _entry(engine, family, n, seed, res.answer, res.stats, res.witness)


def _sparse(family: str, n: int, seed: int, inst: AbductionInstance, lang, r0: int) -> dict:
    stream = sparse_enumerate(inst.kb, lang, r0=r0)
    return _entry("sparse_enumerate", family, n, seed, _sha(stream), stream.stats)


def _simplesat(n: int) -> dict:
    model, stats = solve_simple_sat(simplesat_hard_instance(n))
    return _entry("solve_simple_sat", "simplesat-p2", n, 0, model, stats)


def _implication_chain(n: int) -> AbductionInstance:
    kb = formula(n, [(imp(), (i, i + 1)) for i in range(1, n)])
    return AbductionInstance(kb, frozenset(range(1, n, 2)), frozenset({n}))


def _nor2_chain(n: int) -> AbductionInstance:
    nor2 = Relation(2, (0, 1, 2))  # not both
    kb = formula(n, [(nor2, (i, i + 1)) for i in range(1, n)])
    return AbductionInstance(kb, frozenset(range(1, n + 1)), frozenset())


def entries() -> Iterator[dict]:
    xsat_lang = branching_closure(xsat_family(3))
    aff_lang = branching_closure(aff(3))
    # the four `abductor bench` families on the grids of the tests
    for n in range(8, 17, 2):
        yield _sparse("xsat-chain", n, 0, generators.gen_xsat_chain(n // 2), xsat_lang, 2)
    for n in range(10, 25, 2):
        for seed in range(5):
            yield _sparse("xsat-random", n, seed, generators.gen_xsat_disjoint(n, seed),
                          xsat_lang, 2)
    for n in range(8, 26):
        yield _simplesat(n)
    for n in range(7, 12):
        yield _with_sat("baseline_abd", "baseline-full-h", n, 0, baseline_hard_instance(n))
    for n in range(4, 17, 2):
        for seed in range(3):
            yield _sparse("aff", n, seed, generators.gen_aff(n, seed), aff_lang, 1)
    # implication chains, xsat-chain and the NOR2 deep-descent chain
    for n in (8, 16, 32, 64):
        inst = _implication_chain(n)
        yield _solver("enum_abd", "implication-chain", n, 0, inst)
        yield _solver("pabd_enum", "implication-chain", n, 0, inst)
        yield _with_sat("pabd_recursive", "implication-chain", n, 0, inst)
    for m in range(1, 13):
        inst = generators.gen_xsat_chain(m)
        yield _solver("enum_abd", "xsat-chain", 2 * m, 0, inst)
        yield _solver("pabd_enum", "xsat-chain", 2 * m, 0, inst)
    for n in (8, 32, 128):
        yield _with_sat("pabd_recursive", "nor2-chain", n, 0, _nor2_chain(n))
    # every exact engine on the seeded random families
    for s in RANDOM_SEEDS:
        for i, (family, inst) in enumerate(verify.random_instances(40, 12, s)):
            n, seed = inst.num_vars, s * 100003 + i % 40
            for engine in ("baseline_abd", "baseline_pabd", "pabd_recursive"):
                yield _with_sat(engine, family, n, seed, inst)
            for engine in ("enum_abd", "pabd_enum", "abd_kcnf_pos", "pabd_one_valid"):
                applies = ENGINE[engine].applies
                if applies is None or applies(inst):
                    yield _solver(engine, family, n, seed, inst)


def render(rows) -> str:
    """The golden file: valid JSON with one entry per line."""
    lines = ",\n".join(json.dumps(row) for row in rows)
    return f'{{"command": {json.dumps(COMMAND)},\n"entries": [\n{lines}\n]}}\n'


if __name__ == "__main__":
    sys.stdout.write(render(entries()))
