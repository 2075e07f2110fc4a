"""tools/bench_pairs.py's verdicts on synthetic runs; no benchmark runs."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_pairs import summarise  # noqa: E402
from benchtree import BENCHMARK  # noqa: E402

METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def runs(name: str, values: list[float], failed: int = 0) -> list[dict]:
    """One run per value, each of 100 attempted operations; the first has
    `failed` of them failed."""
    return [{"metrics": {name: {"value": v}}, "correct": True, "attempted": 100,
             "failed": failed if i == 0 else 0} for i, v in enumerate(values)]


def verdicts(name: str, base: list[float], change: list[float]) -> str:
    lines = summarise([METRICS[name]], runs(name, base), runs(name, change))
    return next(line.strip() for line in lines if line.strip().startswith("gain:"))


BASE = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]


def test_a_gain():
    change = [v * 1.3 for v in BASE]
    assert verdicts("ops_per_s", BASE, change) == "gain: met  regression (bound 0.15): not met"


def test_a_regression():
    change = [v * 0.8 for v in BASE]
    assert verdicts("ops_per_s", BASE, change) == "gain: not met  regression (bound 0.15): met"


def test_lower_is_better():
    assert verdicts("op_p50_ms", BASE, [v * 0.7 for v in BASE]).startswith("gain: met")
    assert verdicts("op_p50_ms", BASE, [v * 1.3 for v in BASE]).endswith(": met")


def test_no_gain_below_nine_wins_or_within_the_iqr():
    # better by 30 % in 8 of 10 pairs
    change = [v * 1.3 for v in BASE[:8]] + [v * 0.99 for v in BASE[8:]]
    assert verdicts("ops_per_s", BASE, change).startswith("gain: not met")
    # better in every pair, by less than the base's IQR of 2.5
    assert verdicts("ops_per_s", BASE, [v + 0.5 for v in BASE]).startswith("gain: not met")


def test_a_worse_median_within_the_bound_is_no_regression():
    change = [v * 0.9 for v in BASE]
    assert verdicts("ops_per_s", BASE, change) == "gain: not met  regression (bound 0.15): not met"


def failed_line(base: list[dict], change: list[dict]) -> str:
    lines = summarise([METRICS["ops_per_s"]], base, change)
    return next(line.strip() for line in lines if line.strip().startswith("failed operations:"))


def test_the_share_of_failed_operations():
    clean = runs("ops_per_s", BASE)
    one = runs("ops_per_s", BASE, failed=1)
    # 1 failed of 1,000 attempted on the change's side only
    assert failed_line(clean, one) == ("failed operations: base 0.0000%  change 0.1000%  "
                                       "larger share: met")
    assert failed_line(one, clean).endswith("larger share: not met")
    assert failed_line(one, one).endswith("larger share: not met")
    # the share, not the count: 2 of 2,000 attempted is no larger than 1 of 1,000
    assert failed_line(one, one + runs("ops_per_s", BASE, failed=1)).endswith("not met")
    # no operation attempted on either side
    idle = [{**r, "attempted": 0} for r in clean]
    assert failed_line(idle, idle).endswith("larger share: not met")


def unresolved(name: str, base: list[float], change: list[float]) -> str:
    lines = summarise([METRICS[name]], runs(name, base), runs(name, change))
    return next(line.strip() for line in lines if line.strip().startswith("unresolved:"))


def test_a_spread_wider_than_the_bound_is_unresolved():
    # ops_per_s has bound 0.15; this spread's IQR of 65 exceeds 0.15 x its median of 100
    wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 60.0, 140.0, 100.0, 100.0]
    assert unresolved("ops_per_s", wide, BASE) == "unresolved: met"
    # either side's spread counts
    assert unresolved("ops_per_s", BASE, wide) == "unresolved: met"
    # a tight spread on both sides resolves
    assert unresolved("ops_per_s", BASE, [v * 0.8 for v in BASE]) == "unresolved: not met"
    # every change run better than every base run resolves a wide spread,
    # in the metric's own direction
    assert unresolved("ops_per_s", wide, [v + 100 for v in wide]) == "unresolved: not met"
    assert unresolved("op_p50_ms", wide, [v / 4 for v in wide]) == "unresolved: not met"
    assert unresolved("op_p50_ms", wide, [v + 100 for v in wide]) == "unresolved: met"
