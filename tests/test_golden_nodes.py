"""The exact engines reproduce BENCH_nodes.json: answers, node counts and
SAT-call traces.  An entry may change only to fix a correctness bug, never
for speed; regenerate the file with the command in golden_nodes.py."""

import json
import pathlib

from golden_nodes import entries, render

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "BENCH_nodes.json"


def test_golden_node_counts():
    text = GOLDEN.read_text(encoding="utf-8")
    want = json.loads(text)["entries"]
    got = list(entries())
    for i, (w, g) in enumerate(zip(want, got)):
        diff = {k: (w.get(k), g.get(k)) for k in w.keys() | g.keys() if w.get(k) != g.get(k)}
        assert not diff, (f"entry {i} ({w['engine']}, {w['family']}, n={w['n']}, "
                          f"seed={w['seed']}) differs, (golden, now): {diff}")
    assert len(got) == len(want), f"{len(got)} entries, golden file has {len(want)}"
    assert render(got) == text
