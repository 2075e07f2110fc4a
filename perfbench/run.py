"""Benchmark entry point.  Run from the root of a checkout:

    python3 perfbench/run.py --workload sat-calls|enum-models|verify-sweep
                             --seed N --seconds S --trace 0|1

It compiles the bytecode of `src/` and `perfbench/`, measures set-up in
SETUP_SAMPLES separate processes, then runs the workload in one more
single-threaded process (perfbench/worker.py) and prints one JSON object as
the last line of stdout: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1.  The full record of the run (per-operation times,
raw wall figures, and with --trace 1 every span) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

SETUP_SAMPLES = 4          # set-up-only processes, besides the measured one
CHILD_TIMEOUT_S = 170.0
OUT_DIR = os.path.join("perfbench", "out")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child(args: argparse.Namespace, mode: str) -> dict:
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--spawned", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared_units(trace: int) -> dict[str, str]:
    """The metrics BENCHMARK.json declares for this mode, with their units."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("sat-calls", "enum-models", "verify-sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "abductor", "__init__.py")):
        return fail("run from the root of a checkout: src/abductor is missing")
    if not os.path.isfile("BENCHMARK.json"):
        return fail("run from the root of a checkout: BENCHMARK.json is missing")
    if not (compileall.compile_dir("src", quiet=1)
            and compileall.compile_dir("perfbench", quiet=1)):
        return fail("byte-compiling src/ or perfbench/ failed")

    try:
        setups = [child(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
        rec = child(args, "trace" if args.trace else "run")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))
    setups.append(rec["setup_s"])

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    rec["setup_samples_s"] = setups
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec, fh)

    metrics = dict(rec["metrics"])
    units = declared_units(args.trace)
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        print("raw (wall minus probe time, not normalised): "
              + json.dumps({k: round(v, 4) for k, v in rec["raw"].items()}))
    else:
        print(f"tracing overhead: traced round {rec['traced_s']:.3f} s vs untraced "
              f"{rec['untraced_s']:.3f} s (normalised), {rec['span_count']} spans")
    if set(metrics) != set(units):
        return fail(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    for problem in rec["problems"][:20]:
        print("problem: " + problem)
    print(f"record: {path}")
    print(json.dumps({
        "correct": not rec["problems"],
        "attempted": rec["attempted"],
        "failed": 0,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
