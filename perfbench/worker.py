"""One workload in one process: set-up, timed rounds, checks.

    python3 -m perfbench.worker --workload NAME --seed N --seconds S
                                --mode setup|run|trace --spawned T

`--spawned` is the CLOCK_MONOTONIC instant at which the parent started this
process, so set-up time runs from process start.  The result is one JSON
line on stdout.  Modes:

  setup  set up and stop (set-up time only);
  run    set up, then whole rounds of every operation until the next round
         would overrun S normalised seconds (at least one), then check every
         output;
  trace  one untraced round, then one traced round; per-layer metrics, the
         tracing overhead, and a check that both rounds agree.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

from .probe import SpeedClock, now


def run_round(workload, tracer=None, expect=None):
    """Every operation once.  Returns each operation's (start, end), its
    digested output as a JSON string, and the number of outputs that differ
    from `expect` (a previous round's digests; then none are kept).

    Digesting happens outside the timed interval.  Strings keep the
    benchmark's own objects out of the cyclic garbage collector, whose
    passes inside the program's calls would otherwise grow with what the
    benchmark retains."""
    workload.reset()
    times, digests, differ = [], [], 0
    for k, op in enumerate(workload.ops):
        if tracer is None:
            t0 = now()
            result = op.call(None)
            t1 = now()
        else:
            tracer.op_id = k
            span = tracer.open("op." + op.kind)
            t0 = now()
            result = op.call(tracer)
            t1 = now()
            tracer.close(span)
        times.append((t0, t1))
        digest = json.dumps(op.digest(result), sort_keys=True)
        del result
        if expect is None:
            digests.append(digest)
        elif digest != expect[k]:
            differ += 1
    return times, digests, differ


def summarise(times_by_round, clock) -> tuple[dict, dict]:
    """(normalised, raw) end-to-end figures over the rounds."""
    out = []
    for measure in (clock.normalised, clock.program):
        per_round = [[measure(a, b) for a, b in times] for times in times_by_round]
        per_op = [statistics.median(col) for col in zip(*per_round)]
        out.append({
            "ops_per_s": statistics.median(len(r) / sum(r) for r in per_round),
            "op_p50_ms": statistics.median(per_op) * 1e3,
            "op_p90_ms": statistics.quantiles(per_op, n=100)[89] * 1e3,
        })
    return out[0], out[1]


def check_outputs(workload, digests) -> list[str]:
    from .workloads import Refs
    refs = Refs()
    problems = []
    for op, d in zip(workload.ops, digests):
        problems += [f"{op.label}: {p}" for p in op.check(json.loads(d), refs, op.text)]
    return problems


def per_layer(workload, tracer, clock, digests, oracle_info) -> dict:
    """Per-layer metrics of one traced round."""
    dur = tracer.durations(clock)
    self_t = tracer.self_times(dur)
    names, ops = tracer.names, workload.ops

    def spans(name):
        return [i for i, n in enumerate(names) if n == name]

    def total(name, times=dur):
        return sum((times[i] for i in spans(name)), 0.0)

    stats = [json.loads(d).get("stats") for d in digests]

    def stat(kinds, key):
        return sum(s[key] for op, s in zip(ops, stats) if op.kind in kinds)

    sat_kinds = ("baseline_abd", "baseline_pabd", "pabd_recursive")
    enum_kinds = ("enum_abd", "pabd_enum")
    solver_spans = [i for i, n in enumerate(names)
                    if n in {"op." + k for k in sat_kinds + enum_kinds}]
    enum_spans = [i for i in solver_spans if names[i] in {"op." + k for k in enum_kinds}]
    decide_calls = len(spans("satenum.decide"))
    candidates = stat(sat_kinds, "branch_nodes")
    enum_s = sum((dur[i] - self_t[i] for i in enum_spans), 0.0)
    enum_nodes = stat(enum_kinds, "branch_nodes")
    notes: dict[str, list[float]] = {}
    for _, key, value in tracer.notes:
        notes.setdefault(key, []).append(value)
    first_model = 0.0
    for i in spans("satenum.order"):
        nxt = next((j for j in range(i + 1, len(names))
                    if names[j] == "satenum.order.next" and tracer.ops[j] == tracer.ops[i]), None)
        if nxt is not None:
            first_model += clock.normalised(tracer.starts[i], tracer.ends[nxt])
    return {
        "satenum.decide.calls": decide_calls,
        "satenum.decide.s": total("satenum.decide"),
        "satenum.decide.us_per_call": total("satenum.decide") / decide_calls * 1e6 if decide_calls else 0.0,
        "solvers.candidates": candidates,
        "solvers.sat_calls_per_candidate": decide_calls / candidates if candidates else 0.0,
        "solvers.self_s": sum((self_t[i] for i in solver_spans), 0.0),
        "satenum.enum.s": enum_s,
        "satenum.enum.us_per_node": enum_s / enum_nodes * 1e6 if enum_nodes else 0.0,
        "satenum.enum.branch_nodes": enum_nodes,
        "satenum.enum.models": stat(enum_kinds, "models_emitted"),
        "satenum.order.buffered_models": max(notes.get("buffered_models", [0])),
        "satenum.order.first_model_s": first_model,
        "satenum.sparse.s": total("op.sparse_enumerate"),
        "satenum.sparse.branch_nodes": stat(("sparse_enumerate",), "branch_nodes"),
        "satenum.simplesat.s": total("op.solve_simple_sat"),
        "satenum.simplesat.branch_nodes": stat(("solve_simple_sat",), "branch_nodes"),
        "solvers.oracle.s": total("solvers.oracle"),
        "solvers.oracle.hits": oracle_info.hits,
        "solvers.oracle.misses": oracle_info.misses,
        "solvers.oracle.assignments": sum(notes.get("oracle.assignments", [])),
        "verify.check_solvers.self_s": total("verify.check_solvers", self_t),
        "verify.check_reductions.self_s": total("verify.check_reductions", self_t),
        "core.is_explanation.calls": len(spans("core.is_explanation")),
        "core.is_explanation.s": total("core.is_explanation"),
        "io.parse.s": total("io.parse"),
        "generators.s": total("generators"),
    }


def measure(args: argparse.Namespace, clock: SpeedClock) -> int:
    t_first, t_first_mono = now(), time.clock_gettime(time.CLOCK_MONOTONIC)
    recursion_limit = sys.getrecursionlimit()

    # imported only now, so that set-up time includes importing the program
    from .trace import Tracer
    from .workloads import Workload
    tracer = Tracer() if args.mode == "trace" else None
    workload = Workload(args.workload, args.seed, tracer)
    t_setup = now()
    setup_raw = (t_first_mono - args.spawned) + clock.program(t_first, t_setup)
    setup_s = ((t_first_mono - args.spawned) * clock.first_speed()
               + clock.normalised(t_first, t_setup))
    out: dict = {"setup_s": setup_s, "setup_raw_s": setup_raw,
                 "recursion_limit": recursion_limit, "ops": len(workload.ops)}
    if args.mode == "setup":
        clock.stop()
        print(json.dumps(out))
        return 0

    problems = list(workload.problems)
    if args.mode == "run":
        rounds, first = [], None
        t_start = now()
        while True:
            t0 = now()
            times, digests, differ = run_round(workload, expect=first)
            rounds.append(times)
            first = first or digests
            if differ:
                problems.append(f"{differ} outputs differ from the first round's")
            t1 = now()
            # rounds are counted in normalised time, so that a slow spell of
            # the machine does not change how many a run makes
            if clock.normalised(t_start, t1) + clock.normalised(t0, t1) > args.seconds:
                break
        clock.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        norm, raw = summarise(rounds, clock)
        out.update(rounds=len(rounds), metrics=dict(norm, peak_rss_mb=peak_rss_mb),
                   raw=raw, per_op=[{"label": op.label, "ms": [clock.normalised(*r[k]) * 1e3
                                                               for r in rounds]}
                                    for k, op in enumerate(workload.ops)])
        problems += check_outputs(workload, first)
    else:
        times, plain, _ = run_round(workload)
        with workload.instrument(tracer):
            traced_times, traced, _ = run_round(workload, tracer)
        oracle_info = workload.oracle.cache_info()
        clock.stop()
        if traced != plain:
            problems.append("traced round's outputs or counts differ from the untraced round")
        untraced_s = sum(clock.normalised(a, b) for a, b in times)
        traced_s = sum(clock.normalised(a, b) for a, b in traced_times)
        layers = per_layer(workload, tracer, clock, traced, oracle_info)
        layers["trace.overhead_ratio"] = traced_s / untraced_s
        out.update(rounds=2, metrics=layers, untraced_s=untraced_s, traced_s=traced_s,
                   spans=tracer.records(), span_count=len(tracer.names))
        problems += check_outputs(workload, plain)
    probes = [d for _, _, d in clock.samples]
    out.update(attempted=len(workload.ops) * out["rounds"], problems=problems,
               probe_us=[q * 1e6 for q in statistics.quantiles(probes, n=4)])
    print(json.dumps(out))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args(argv)

    clock = SpeedClock()
    clock.start()
    try:
        return measure(args, clock)
    finally:
        clock.stop()


if __name__ == "__main__":
    sys.exit(main())
