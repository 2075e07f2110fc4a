"""Compare two commits on the benchmark in alternated pairs of runs.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --base <rev> --change <rev> --pairs 10 --first-seed 61

It exports the committed files of both revisions (`git archive`) into
temporary directories, as tools/bench_record.py does.  Pair i runs
`python3 perfbench/run.py --trace 0` at seed first-seed + i, for the
`run_seconds` of BENCHMARK.json, on both trees for every workload, one run
at a time, the base first in even pairs and the change first in odd ones.
For every workload and every end-to-end metric of BENCHMARK.json it prints
both medians, their ratio, the interquartile range of the base's runs and of
the change's, in how many pairs the change was better, both values of every
pair and three verdicts:

  gain        the change is better in at least 9 of 10 pairs, and its median
              is better than the base's by more than the base's IQR;
  regression  the change's median is worse than the base's by more than the
              metric's `bound` (a fraction of the base's median);
  unresolved  either side's IQR exceeds `bound` times the base's median, so
              the runs spread too widely to tell, unless every run of the
              change is better than every run of the base.

Per workload it also prints each side's share of failed operations, the sum
of the runs' `failed` over the sum of their `attempted`, and whether the
change's share is the larger.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile

from benchtree import BENCHMARK, WORKLOADS, export, run


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarise(metrics: list[dict], base: list[dict], change: list[dict]) -> list[str]:
    """Per metric: medians, ratio, both IQRs and the change's wins over the
    pairs (base[i], change[i]); the values of every pair; the gain,
    regression and unresolved verdicts."""
    lines = []
    for m in metrics:
        b = [r["metrics"][m["name"]]["value"] for r in base]
        c = [r["metrics"][m["name"]]["value"] for r in change]
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, c))
        mb, mc = statistics.median(b), statistics.median(c)
        gain = 10 * wins >= 9 * len(b) and sign * (mc - mb) > iqr(b)
        regression = sign * (mb - mc) > m["bound"] * abs(mb)
        unresolved = (max(iqr(b), iqr(c)) > m["bound"] * abs(mb)
                      and min(sign * y for y in c) <= max(sign * x for x in b))
        lines.append(f"  {m['name']:<12} base {mb:10.4g}  change {mc:10.4g}  "
                     f"ratio {mc / mb if mb else float('nan'):6.3f}  "
                     f"IQR base {iqr(b):8.3g} change {iqr(c):8.3g}  "
                     f"change better {wins}/{len(b)}")
        lines.append("    pairs (base/change): "
                     + "  ".join(f"{x:.4g}/{y:.4g}" for x, y in zip(b, c)))
        lines.append(f"    gain: {'met' if gain else 'not met'}  "
                     f"regression (bound {m['bound']:g}): "
                     f"{'met' if regression else 'not met'}")
        lines.append(f"    unresolved: {'met' if unresolved else 'not met'}")
    shares = [failed_share(side) for side in (base, change)]
    lines.append(f"  failed operations: base {shares[0]:.4%}  change {shares[1]:.4%}  "
                 f"larger share: {'met' if shares[1] > shares[0] else 'not met'}")
    failed = [r for r in base + change if not r.get("correct") or r.get("failed")]
    if failed:
        lines.append(f"  {len(failed)} runs not correct or with failed operations")
    return lines


def failed_share(runs: list[dict]) -> float:
    """The failed operations of `runs` over the attempted ones (0 when none
    was attempted)."""
    attempted = sum(r.get("attempted", 0) for r in runs)
    return sum(r.get("failed", 0) for r in runs) / attempted if attempted else 0.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, required=True)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as base_tree, \
            tempfile.TemporaryDirectory() as change_tree:
        export(args.base, base_tree)
        export(args.change, change_tree)
        metrics = BENCHMARK["end_to_end"]
        for workload in WORKLOADS:
            runs: dict[str, list[dict]] = {"base": [], "change": []}
            for i in range(args.pairs):
                order = [("base", base_tree), ("change", change_tree)]
                for side, tree in order if i % 2 == 0 else order[::-1]:
                    runs[side].append(run(tree, workload, args.first_seed + i, 0))
                print(f"{workload} pair {i + 1}/{args.pairs}: done", file=sys.stderr)
            print(workload)
            print("\n".join(summarise(metrics, runs["base"], runs["change"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
