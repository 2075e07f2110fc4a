"""The committed BENCH_pr*.json records: each has tools/bench_record.py's
shape, holds one correct run per workload and trace mode of BENCHMARK.json,
and is named in README's list of records.  No benchmark runs."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_record  # noqa: E402
from benchtree import WORKLOADS  # noqa: E402

RECORDS = sorted(ROOT.glob("BENCH_pr*.json"))


@pytest.fixture(scope="module")
def record_keys(tmp_path_factory) -> set[str]:
    """The keys bench_record.main writes, from a record of stub runs."""
    out = tmp_path_factory.mktemp("record") / "BENCH_stub.json"
    stub = pytest.MonkeyPatch()
    stub.setattr(bench_record, "export", lambda rev, tree: "0" * 40)
    stub.setattr(bench_record, "run", lambda tree, workload, seed, trace: {})
    try:
        assert bench_record.main(["--commit", "HEAD", "--out", str(out)]) == 0
    finally:
        stub.undo()
    return set(json.loads(out.read_text(encoding="utf-8")))


def test_there_are_records():
    assert len(RECORDS) >= 14


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_a_record_is_whole_and_listed(path, record_keys):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert set(record) == record_keys
    runs = [(r["workload"], r["trace"]) for r in record["runs"]]
    assert sorted(runs) == sorted((w, t) for w in WORKLOADS for t in (0, 1))
    for r in record["runs"]:
        assert r["result"]["correct"] is True and r["result"]["failed"] == 0, r
    assert f"`{path.name}`" in (ROOT / "README.md").read_text(encoding="utf-8")
