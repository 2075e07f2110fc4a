"""The three workloads: their inputs, their operations and the checks on
every output.

An operation is one call into the program on one instance.  `Workload` makes
the inputs from the seed (set-up: generators, then a write_text/parse_text
round trip of every instance) and holds the operations; `Op.call(None)`
runs the call as a user of the library would, `Op.call(tracer)` runs the
same call with spans around the layer boundaries.  `Op.digest` turns the
result into plain data and `Op.check` compares that with the independent
reference in reference.py.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from abductor import core, langlib, satenum, solvers
from abductor.harness import bench, generators, io, verify

from . import reference as ref

# Seeded instances come in strata (a family at one size).  Each stratum has
# a fixed population, the instances with generator seeds 0..M-1, and a run
# draws K of them with a generator seeded by --seed.  With independent draws
# per seed the per-run median and 90th percentile of operation time moved
# by 10-14 % between seeds (a few heavy instances in or out); drawing K of M
# = 0.8 M to 0.95 M keeps the inputs seed-dependent and the figures
# comparable.

# sat-calls: five families at n=16 and positive k-CNF at n=12, where the
# positive baseline tries all 2^|H| subsets.  Positive k-CNF is stratified
# by |M| (the generator picks 1 or 2), which sets |H| = n - |M| and with it
# the size of that search.
SAT_FAMILIES = ("xsat", "equations", "aff", "nae", "kcnf-neg-imp")
SAT_N, SAT_DRAW = 16, (10, 12)
KPOS_N, KPOS_DRAW = 12, (4, 5)
SAT_SOLVERS = ("baseline_abd", "baseline_pabd", "pabd_recursive")

# enum-models: fixed structured families, which hold the slowest tenth of
# the operations and so the 90th percentile, and seeded random ones.  nae
# runs at n=21: at n=24 its searches take four times as long as the other
# two families' and would swing the round with a handful of instances.
CHAIN_NS = (160, 180, 200, 220, 240)
XSAT_CHAIN_MS = (13, 14)
ENUM_FAMILIES = (("xsat", 24), ("equations", 24), ("nae", 21))
ENUM_DRAW = (16, 17)
SPARSE_N, SPARSE_DRAW = 28, (4, 5)
SIMPLESAT_NS = (20, 21, 22, 23, 24, 25)
ENUM_SOLVERS = ("enum_abd", "pabd_enum")

# verify-sweep: the six families of the verify suite at every n in 4..12
VERIFY_NS, VERIFY_DRAW = range(4, 13), (5, 6)


def draw(seed: int, stratum: str, k: int, m: int) -> list[int]:
    """The population indices a run uses: k of 0..m-1, chosen by the seed."""
    return sorted(random.Random(f"perfbench:{seed}:{stratum}").sample(range(m), k))


@dataclass
class Op:
    kind: str                       # the program function called
    label: str
    call: Callable                  # call(tracer | None) -> result
    digest: Callable                # digest(result) -> plain data
    check: Callable                 # check(digest, refs, text) -> list of problems
    text: str = ""                  # the instance in the `abd 1` format


class Refs:
    """Reference answers computed on demand, after every timed region."""

    def __init__(self) -> None:
        self._tables: dict = {}
        self._problems: dict[str, ref.Problem] = {}
        self._models: dict[str, list[int]] = {}

    def problem(self, text: str) -> ref.Problem:
        if text not in self._problems:
            self._problems[text] = ref.parse(text)
        return self._problems[text]

    def models(self, text: str) -> list[int]:
        if text not in self._models:
            self._models[text] = ref.models(self.problem(text), self._tables)
        return self._models[text]


def _lits(expl) -> list[list[int]]:
    return sorted(sorted(e) for e in expl)


def _result(res) -> dict:
    return {"answer": res.answer,
            "witness": sorted(res.witness.literals) if res.witness is not None else None,
            "stats": res.stats.as_dict()}


def _with_set(pair) -> dict:
    res, eset = pair
    return dict(_result(res), explanations=_lits(eset.explanations))


# ---------------------------------------------------------------------------
# checks against the reference
# ---------------------------------------------------------------------------

def _check_answer(d: dict, p: ref.Problem, mods, want: bool, positive: bool) -> list[str]:
    out = []
    if d["answer"] != want:
        out.append(f"answer {d['answer']} vs reference {want}")
    elif want:
        w = d["witness"]
        if positive and any(l < 0 for l in w):
            out.append(f"positive witness {w} has a negative literal")
        if not ref.explains(p, mods, w):
            out.append(f"witness {w} does not explain")
    return out


def _check_sat_solver(kind: str):
    positive = kind != "baseline_abd"

    def check(d: dict, refs: Refs, text: str) -> list[str]:
        p, mods = refs.problem(text), refs.models(text)
        if positive:
            want = bool(ref.positive_maximal(p, mods))
            first = ref.first_positive_candidate(p, mods)
        else:
            want = bool(ref.full_explanations(p, mods))
            first = ref.first_full_candidate(p, ref.full_explanations(p, mods))
        out = _check_answer(d, p, mods, want, positive)
        if kind != "pabd_recursive":
            tried = (1 << len(p.hyp)) if first is None else first + 1
            if d["stats"]["branch_nodes"] != tried:
                out.append(f"{d['stats']['branch_nodes']} candidates tried, reference {tried}")
        return out
    return check


def _check_enum_random(kind: str):
    def check(d: dict, refs: Refs, text: str) -> list[str]:
        p, mods = refs.problem(text), refs.models(text)
        if kind == "enum_abd":
            want = ref.full_explanations(p, mods)
        else:
            want = ref.positive_maximal(p, mods)
        out = _check_answer(d, p, mods, bool(want), kind == "pabd_enum")
        if d["explanations"] != _lits(want):
            out.append(f"{len(d['explanations'])} explanations, reference {len(want)}")
        if d["stats"]["models_emitted"] != len(mods):
            out.append(f"{d['stats']['models_emitted']} models, reference {len(mods)}")
        return out
    return check


def _check_closed(explanations, models: int, nodes: int, shape):
    """Check against a closed form; `shape(problem)` confirms the instance is
    the family the closed form speaks of."""
    def check(d: dict, refs: Refs, text: str) -> list[str]:
        out = [] if shape(refs.problem(text)) else ["instance is not of the family"]
        want = _lits(explanations)
        if d["explanations"] != want:
            out.append(f"{len(d['explanations'])} explanations, closed form {len(want)}")
        if d["answer"] != bool(want) or (want and d["witness"] not in want):
            out.append(f"answer {d['answer']} / witness {d['witness']} not in closed form")
        if d["stats"]["models_emitted"] != models:
            out.append(f"{d['stats']['models_emitted']} models, closed form {models}")
        if d["stats"]["branch_nodes"] != nodes:
            out.append(f"{d['stats']['branch_nodes']} branch nodes, closed form {nodes}")
        return out
    return check


IMP = frozenset({(0, 0), (0, 1), (1, 1)})
XOR = frozenset({(0, 1), (1, 0)})


def _is_chain(n: int):
    def shape(p: ref.Problem) -> bool:
        return (p.n == n and p.man == {n} and p.hyp == set(range(1, n, 2))
                and list(p.constraints) == [((i, i + 1), IMP) for i in range(1, n)])
    return shape


def _is_xsat_chain(m: int):
    def shape(p: ref.Problem) -> bool:
        return (p.n == 2 * m and p.man == {2} and p.hyp == set(range(1, 2 * m, 2))
                and list(p.constraints) == [((2 * i - 1, 2 * i), XOR)
                                            for i in range(1, m + 1)])
    return shape


def _one_hot(k: int) -> frozenset:
    return frozenset(tuple(int(i == j) for i in range(k)) for j in range(k))


def _blocks(p: ref.Problem) -> list[int] | None:
    """Block sizes if the instance is disjoint exactly-one blocks over 1..n."""
    seen: list[int] = []
    for scope, allowed in p.constraints:
        if allowed != _one_hot(len(scope)):
            return None
        seen.extend(scope)
    if sorted(seen) != list(range(1, p.n + 1)):
        return None
    return [len(scope) for scope, _ in p.constraints]


def _check_sparse(d: dict, refs: Refs, text: str) -> list[str]:
    p = refs.problem(text)
    sizes = _blocks(p)
    if sizes is None:
        return ["instance is not disjoint exactly-one blocks"]
    out = []
    mods = d["models"]
    if len(mods) != ref.blocks_models(sizes) or len(set(mods)) != len(mods):
        out.append(f"{len(mods)} models ({len(set(mods))} distinct), "
                   f"closed form {ref.blocks_models(sizes)}")
    for sigma in mods:
        if any(tuple((sigma >> (v - 1)) & 1 for v in scope) not in allowed
               for scope, allowed in p.constraints):
            out.append(f"emitted assignment {sigma} is not a model")
            break
    if d["stats"]["branch_nodes"] != ref.blocks_branch_nodes(sizes):
        out.append(f"{d['stats']['branch_nodes']} branch nodes, "
                   f"closed form {ref.blocks_branch_nodes(sizes)}")
    return out


def _is_simplesat_family(n: int, inst) -> bool:
    """The width-2 family: clauses {i, i+1} and one DNF of the same pairs."""
    pairs = tuple(frozenset((i, i + 1)) for i in range(1, n))
    return (inst.num_vars == n and inst.p == 2 and inst.positive_clauses == pairs
            and inst.negative_dnfs == (pairs,))


def _check_simplesat(n: int, inst):
    """Check against the closed form; the instance has no `abd 1` text, so
    its shape is checked on the object itself."""
    def check(d: dict, refs: Refs, text: str) -> list[str]:
        out = [] if _is_simplesat_family(n, inst) else ["instance is not of the family"]
        if d["model"] is not None:
            out.append(f"model {d['model']} on an unsatisfiable family")
        if d["stats"]["branch_nodes"] != ref.simplesat_branch_nodes(n):
            out.append(f"{d['stats']['branch_nodes']} branch nodes, "
                       f"closed form {ref.simplesat_branch_nodes(n)}")
        return out
    return check


# ---------------------------------------------------------------------------
# building the operations
# ---------------------------------------------------------------------------

class Workload:
    """The operations of one workload, built from the seed.  Set-up records
    spans when given a tracer, and collects failed round trips in
    `problems`."""

    def __init__(self, name: str, seed: int, tracer=None) -> None:
        self.tracer = tracer
        self.problems: list[str] = []
        self.ops: list[Op] = {"sat-calls": _sat_calls, "enum-models": _enum_models,
                              "verify-sweep": _verify_sweep}[name](self, seed)
        self.oracle = solvers.brute_models

    def generate(self, fn, *args, **kwargs):
        span = self.tracer.open("generators") if self.tracer else None
        out = fn(*args, **kwargs)
        if self.tracer:
            self.tracer.close(span)
        return out

    def round_trip(self, inst) -> tuple[object, str]:
        """Write the instance and parse it back; the parsed copy is what the
        operations see."""
        text = io.write_text(inst)
        span = self.tracer.open("io.parse") if self.tracer else None
        back = io.parse_text(text)
        if self.tracer:
            self.tracer.close(span)
        if back != inst:
            self.problems.append(f"parse_text(write_text(x)) != x for\n{text}")
        return back, text

    def reset(self) -> None:
        """Start a round as a fresh process would: empty oracle cache."""
        self.oracle.cache_clear()

    @contextmanager
    def instrument(self, tracer):
        """Put spans around the oracle and the witness check, which the
        verify sweep calls from inside the program."""
        oracle, is_explanation = self.oracle, verify.is_explanation

        def traced_oracle(phi):
            misses = oracle.cache_info().misses
            span = tracer.open("solvers.oracle")
            try:
                return oracle(phi)
            finally:
                tracer.close(span)
                if oracle.cache_info().misses > misses:
                    tracer.note("oracle.assignments", 1 << phi.num_vars)

        solvers.brute_models = verify.brute_models = traced_oracle
        verify.is_explanation = tracer.wrap("core.is_explanation", is_explanation)
        try:
            yield
        finally:
            solvers.brute_models = verify.brute_models = oracle
            verify.is_explanation = is_explanation


def _sat_calls(wl: Workload, seed: int) -> list[Op]:
    fam = generators.FAMILIES
    insts = []
    for family in SAT_FAMILIES:
        for i in draw(seed, family, *SAT_DRAW):
            insts.append((f"{family} n={SAT_N} seed={i}",
                          wl.generate(fam[family], seed=i, n=SAT_N)))
    strata: dict[int, list] = {1: [], 2: []}
    i = 0
    while min(len(v) for v in strata.values()) < KPOS_DRAW[1]:
        inst = wl.generate(fam["kcnf-pos"], seed=i, n=KPOS_N)
        stratum = strata[len(inst.manifestations)]
        if len(stratum) < KPOS_DRAW[1]:
            stratum.append((f"kcnf-pos n={KPOS_N} seed={i}", inst))
        i += 1
    for m, population in strata.items():
        for j in draw(seed, f"kcnf-pos|M|={m}", *KPOS_DRAW):
            insts.append(population[j])
    ops = []
    for label, inst in insts:
        inst, text = wl.round_trip(inst)
        for kind in SAT_SOLVERS:
            fn = getattr(solvers, kind)

            def call(tr, fn=fn, inst=inst):
                if tr is None:
                    return fn(inst)
                return fn(inst, sat=tr.wrap("satenum.decide", satenum.decide))
            ops.append(Op(kind, f"{kind} {label}", call, _result,
                          _check_sat_solver(kind), text))
    return ops


def _enum_call(kind: str, inst):
    """enum_abd / pabd_enum as a user calls them, or with spans around every
    model pulled from the engine's stream."""
    fn = getattr(solvers, kind)

    def call(tr):
        if tr is None:
            return fn(inst)
        pre = core.preprocess(inst)
        if pre.verdict == core.TRIVIALLY_NO:
            return fn(inst)
        kb = pre.instance.kb
        base = satenum.enumerate_models(kb)
        traced = satenum.ModelStream(tr.iterate("satenum.enum", base), base.stats, base.ordering)
        if kind == "enum_abd":
            return fn(inst, stream=traced)
        span = tr.open("satenum.order")
        ordered = satenum.enumerate_weight_ordered(kb, pre.instance.hypotheses, base=traced)
        tr.close(span)
        tr.note("buffered_models", base.stats.models_emitted)
        stream = satenum.ModelStream(tr.iterate("satenum.order.next", ordered),
                                     ordered.stats, ordered.ordering)
        return fn(inst, stream=stream)
    return call


def _enum_models(wl: Workload, seed: int) -> list[Op]:
    ops = []

    def add_solvers(inst, label, checks):
        inst, text = wl.round_trip(inst)
        for kind in ENUM_SOLVERS:
            ops.append(Op(kind, f"{kind} {label}", _enum_call(kind, inst),
                          _with_set, checks[kind], text))

    for n in CHAIN_NS:
        kb = wl.generate(core.formula, n, [(langlib.imp(), (i, i + 1)) for i in range(1, n)])
        inst = core.AbductionInstance(kb, frozenset(range(1, n, 2)), frozenset({n}))
        shape = _is_chain(n)
        add_solvers(inst, f"implication chain n={n}", {
            "enum_abd": _check_closed(ref.chain_full_explanations(n),
                                      ref.chain_models(n), ref.chain_branch_nodes(n), shape),
            "pabd_enum": _check_closed([frozenset(range(1, n, 2))],
                                       ref.chain_models(n), ref.chain_branch_nodes(n), shape)})
    for m in XSAT_CHAIN_MS:
        inst = wl.generate(generators.FAMILIES["xsat-chain"], m=m)
        shape = _is_xsat_chain(m)
        nodes, models = ref.xsat_chain_branch_nodes(m), ref.xsat_chain_models(m)
        add_solvers(inst, f"xsat-chain m={m}", {
            "enum_abd": _check_closed(ref.xsat_chain_full_explanations(m),
                                      models, nodes, shape),
            "pabd_enum": _check_closed([], models, nodes, shape)})
    for family, n in ENUM_FAMILIES:
        for i in draw(seed, family, *ENUM_DRAW):
            inst = wl.generate(generators.FAMILIES[family], seed=i, n=n)
            add_solvers(inst, f"{family} n={n} seed={i}",
                        {k: _check_enum_random(k) for k in ENUM_SOLVERS})

    lang = langlib.branching_closure(langlib.xsat_family(3))
    for i in draw(seed, "xsat-disjoint", *SPARSE_DRAW):
        inst = wl.generate(generators.gen_xsat_disjoint, SPARSE_N, i)
        inst, text = wl.round_trip(inst)

        def sparse(tr, kb=inst.kb):
            stream = satenum.sparse_enumerate(kb, lang, r0=2)
            return list(stream), stream.stats
        ops.append(Op("sparse_enumerate", f"sparse_enumerate xsat-disjoint n={SPARSE_N} seed={i}",
                      sparse, lambda r: {"models": sorted(r[0]), "stats": r[1].as_dict()},
                      _check_sparse, text))
    for n in SIMPLESAT_NS:
        simple = wl.generate(bench.simplesat_hard_instance, n)
        ops.append(Op("solve_simple_sat", f"solve_simple_sat width-2 n={n}",
                      lambda tr, s=simple: satenum.solve_simple_sat(s),
                      lambda r: {"model": r[0], "stats": r[1].as_dict()},
                      _check_simplesat(n, simple)))
    return ops


def _verify_sweep(wl: Workload, seed: int) -> list[Op]:
    ops = []
    strata = [(family, gen, n) for family, gen in verify.RANDOM_FAMILIES.items()
              for n in VERIFY_NS]
    for family, gen, n in strata:
        for i in draw(seed, f"{family} n={n}", *VERIFY_DRAW):
            inst = wl.generate(gen, n, i)
            inst, text = wl.round_trip(inst)

            def sweep(tr, inst=inst):
                check_solvers, check_reductions = verify.check_solvers, verify.check_reductions
                if tr is not None:
                    check_solvers = tr.wrap("verify.check_solvers", check_solvers)
                    check_reductions = tr.wrap("verify.check_reductions", check_reductions)
                fails = check_solvers(inst)
                rfails, logged = check_reductions(inst)
                return fails + rfails, logged
            ops.append(Op("verify", f"verify {family} n={n} seed={i}", sweep,
                          lambda r: {"failures": [f"{f.kind}: {f.detail}" for f in r[0]],
                                     "logged": len(r[1])},
                          _check_verify(inst), text))
    return ops


def _check_verify(inst):
    """The sweep must report no failure, and the oracle it trusts must agree
    with the reference on the answers and both explanation sets."""

    def check(d: dict, refs: Refs, text: str) -> list[str]:
        out = list(d["failures"])
        p, mods = refs.problem(text), refs.models(text)
        full, maximal = ref.full_explanations(p, mods), ref.positive_maximal(p, mods)
        if solvers.oracle_abd(inst).answer != bool(full):
            out.append("oracle_abd disagrees with the reference")
        if solvers.oracle_pabd(inst).answer != bool(maximal):
            out.append("oracle_pabd disagrees with the reference")
        if solvers.oracle_full_explanations(inst) != full:
            out.append("oracle full-explanation set disagrees with the reference")
        if solvers.oracle_positive_explanations(inst)[1] != maximal:
            out.append("oracle maximal positive set disagrees with the reference")
        return out
    return check
