"""Record a committed performance baseline, BENCH_<name>.json.

Run from the root of a checkout:

    python3 tools/bench_record.py --commit <rev> --out BENCH_<name>.json

It exports the committed files of <rev> (`git archive`) into a temporary
directory, runs `python3 perfbench/run.py` there for every workload at
`--trace 0` and `--trace 1` with `--seed 1`, for the `run_seconds` of
BENCHMARK.json, one run at a time, and writes the last JSON line of each run
with the command, the commit, the seed, the Python version and the CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile

from benchtree import SECONDS, WORKLOADS, export, run

SEED = 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--commit", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    runs = []
    with tempfile.TemporaryDirectory() as tree:
        sha = export(args.commit, tree)
        for workload in WORKLOADS:
            for trace in (0, 1):
                runs.append({"workload": workload, "trace": trace,
                             "result": run(tree, workload, SEED, trace)})
                print(f"{workload} trace {trace}: done", file=sys.stderr)
    record = {
        "command": "python3 perfbench/run.py --workload <w> "
                   f"--seed {SEED} --seconds {SECONDS} --trace <0|1>",
        "recorder": " ".join(["python3", "tools/bench_record.py"] + (argv or sys.argv[1:])),
        "commit": sha,
        "seed": SEED,
        "seconds": SECONDS,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
