"""Exponent-fitting benchmark harness.

For a size grid, each family produces instances (>= 5 seeds per size for the
randomized ones), the chosen engine runs to completion, and the per-size
median branch-node count is fitted with least squares as
log2(nodes) ~ n * log2(base) + const.  Medians keep exponential-tail noise
out of the fit.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass
from typing import Callable

from ..core import AbductionInstance, Constraint, Formula
from ..langlib import all_zero, branching_closure, one_in_k, xsat_family
from ..satenum import SimpleSatInstance, solve_simple_sat, sparse_enumerate
from ..solvers import baseline_abd
from . import generators


@dataclass(frozen=True)
class BenchPoint:
    n: int
    median_nodes: float
    runs: tuple[int, ...]


@dataclass(frozen=True)
class BenchSweep:
    family: str
    algo: str
    points: tuple[BenchPoint, ...]
    base: float
    residual: float

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "algo": self.algo,
            "points": [{"n": p.n, "median_nodes": p.median_nodes,
                        "runs": list(p.runs)} for p in self.points],
            "fitted_base": round(self.base, 4),
            "residual": round(self.residual, 4),
        }

    def csv(self) -> str:
        lines = ["n,median_nodes"]
        lines += [f"{p.n},{p.median_nodes}" for p in self.points]
        return "\n".join(lines) + "\n"


def _check_fit_size(count: int) -> None:
    if count < 5:
        raise ValueError("need at least 5 grid points for a fit")


def fit_base(points: list[tuple[int, float]]) -> tuple[float, float]:
    """Least-squares slope of log2(nodes) against n; returns (2^slope, rms)."""
    _check_fit_size(len(points))
    xs = [float(n) for n, _ in points]
    ys = [math.log2(max(v, 1.0)) for _, v in points]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    rms = math.sqrt(sum((y - (slope * x + intercept)) ** 2
                        for x, y in zip(xs, ys)) / len(xs))
    return 2.0 ** slope, rms


# --- family runners: instance(n, seed) -> node count -------------------------

@functools.cache
def _xsat_closure():
    return branching_closure(xsat_family(3))


def _run_sparse_xsat(inst: AbductionInstance) -> int:
    stream = sparse_enumerate(inst.kb, _xsat_closure())
    for _ in stream:
        pass
    return stream.stats.branch_nodes


def _nodes_xsat_chain(n: int, seed: int) -> int:
    if n % 2:
        raise ValueError("chain family needs even n")
    generators._at_least("xsat-chain instances", "n", n, 0)
    return _run_sparse_xsat(generators.gen_xsat_chain(n // 2))


def _nodes_xsat_random(n: int, seed: int) -> int:
    return _run_sparse_xsat(generators.gen_xsat_disjoint(n, seed))


def simplesat_hard_instance(n: int) -> SimpleSatInstance:
    """The adversarial width-2 family: an overlapping positive chain plus one
    DNF demanding some untouched adjacent pair, which is impossible once the
    chain is satisfied.  Every leaf fails late, so the solver walks the whole
    (1,2)-branching tree and the node count grows with the golden ratio."""
    if n < 2:
        raise ValueError("need n >= 2")
    clauses = tuple(frozenset((i, i + 1)) for i in range(1, n))
    dnf = tuple(frozenset((i, i + 1)) for i in range(1, n))
    return SimpleSatInstance(n, clauses, (dnf,), 2)


def _nodes_simplesat(n: int, seed: int) -> int:
    model, stats = solve_simple_sat(simplesat_hard_instance(n))
    assert model is None  # the family is unsatisfiable by construction
    return stats.branch_nodes


def baseline_hard_instance(n: int) -> AbductionInstance:
    """Full-H instance whose manifestation is pinned false: every one of the
    2^|H| candidates must be examined before answering no."""
    if n < 3:
        raise ValueError("need n >= 3")
    m = n
    cons = [Constraint(all_zero(1), (m,))]
    v = 1
    while v + 1 < m:
        cons.append(Constraint(one_in_k(2), (v, v + 1)))
        v += 2
    if v < m:
        cons.append(Constraint(all_zero(1), (v,)))
    hyp = frozenset(range(1, m))
    return AbductionInstance(Formula(n, tuple(cons)), hyp, frozenset({m}))


def _nodes_baseline(n: int, seed: int) -> int:
    res = baseline_abd(baseline_hard_instance(n))
    assert not res.answer
    return res.stats.branch_nodes


BENCH_FAMILIES: dict[str, tuple[Callable[[int, int], int], bool]] = {
    # name -> (runner, randomized?)
    "xsat-chain": (_nodes_xsat_chain, False),
    "xsat-random": (_nodes_xsat_random, True),
    "simplesat-p2": (_nodes_simplesat, False),
    "baseline-full-h": (_nodes_baseline, False),
}


def run_bench(family: str, grid: list[int], seeds: int = 5) -> BenchSweep:
    if family not in BENCH_FAMILIES:
        raise ValueError(f"unknown bench family '{family}'")
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    _check_fit_size(len(grid))
    runner, randomized = BENCH_FAMILIES[family]
    points = []
    for n in grid:
        runs = tuple(runner(n, s) for s in (range(seeds) if randomized else range(1)))
        points.append(BenchPoint(n, float(statistics.median(runs)), runs))
    base, residual = fit_base([(p.n, p.median_nodes) for p in points])
    return BenchSweep(family, family, tuple(points), base, residual)
