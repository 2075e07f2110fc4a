"""Export a commit into a directory and run the benchmark there.

Shared by tools/bench_record.py and tools/bench_pairs.py, so both run the
committed files of a revision (`git archive`), one workload at a time, for
the same number of seconds.  The workloads, their run length and the
end-to-end metrics are read from the BENCHMARK.json at the root of the
checkout that holds this file.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
SECONDS = BENCHMARK["run_seconds"]


def export(rev: str, tree: str) -> str:
    """Extract the committed files of `rev` into `tree`; return its sha."""
    sha = subprocess.run(["git", "rev-parse", rev], check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
    return sha


def run(tree: str, workload: str, seed: int, trace: int) -> dict:
    """Run `perfbench/run.py` in `tree` and return its last JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])
