"""Compare the first round of benchmark runs with their later rounds.

Run from the root of a checkout, after `python3 perfbench/run.py ... --trace 0`:

    python3 tools/bench_rounds.py

Caches that outlive a round (a compiled KB's search and its memos, the
restriction table) make later rounds cheaper than the first, so a gain seen
in the median over rounds must also hold on first rounds alone.  For every
record `perfbench/out/*-trace0.json` it prints the number of rounds, the
median over operations of the first round's normalised time divided by the
median of the later rounds' (none with one round), and the first round's
ops_per_s (operations per normalised second).
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys


def first_round(rec: dict) -> tuple[float | None, float]:
    """(median first/later ratio or None, first-round ops_per_s) of a record."""
    times = [op["ms"] for op in rec["per_op"]]
    ops_per_s = len(times) / (sum(ms[0] for ms in times) / 1e3)
    if rec["rounds"] < 2:
        return None, ops_per_s
    return statistics.median(ms[0] / statistics.median(ms[1:]) for ms in times), ops_per_s


def main() -> int:
    paths = sorted(glob.glob(os.path.join("perfbench", "out", "*-trace0.json")))
    if not paths:
        print("no perfbench/out/*-trace0.json record; run perfbench/run.py --trace 0 first",
              file=sys.stderr)
        return 1
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        ratio, ops_per_s = first_round(rec)
        shown = "n/a" if ratio is None else f"{ratio:.3f}"
        print(f"{os.path.basename(path)}: rounds {rec['rounds']}  "
              f"first/later median {shown}  first-round ops_per_s {ops_per_s:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
