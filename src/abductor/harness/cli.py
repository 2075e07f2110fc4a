"""Command-line workbench: solve, gen, reduce, verify, bench.

Exit codes for `solve`: 0 = explanation exists, 1 = none, 2 = error (a
usage error, or an internal error such as a crash of the solver).  The other
commands exit 0 on success and nonzero on failure/disagreement.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
import traceback

from ..core import FragmentError, StructureError, preprocess
from ..reductions import (CnfFormula, abd2cnf_to_cnfsat, abd_to_pabd_4cnf,
                          abd_to_simplesat, cnfsat_to_abd_lb,
                          eliminate_constants, kcnf_to_nae, negimp_to_pos)
from ..satenum import LanguageContractError
from ..solvers import (OracleCapError, abd_kcnf_pos, baseline_abd,
                       baseline_pabd, enum_abd, oracle_abd, oracle_pabd,
                       pabd_enum, pabd_one_valid, pabd_recursive)
from . import bench, generators, io, verify

USAGE_ERRORS = (FragmentError, StructureError, OracleCapError,
                LanguageContractError, io.ParseError, ValueError, OSError)

SOLVERS = {
    ("abd", "oracle"): oracle_abd,
    ("abd", "baseline"): baseline_abd,
    ("abd", "enum"): lambda inst: enum_abd(inst)[0],
    ("abd", "simplesat"): abd_kcnf_pos,
    ("pabd", "oracle"): oracle_pabd,
    ("pabd", "baseline"): baseline_pabd,
    ("pabd", "pabd-rec"): pabd_recursive,
    ("pabd", "pabd-enum"): lambda inst: pabd_enum(inst)[0],
    ("pabd", "one-valid"): pabd_one_valid,
}

GEN_INT_FLAGS = ("n", "m", "k", "colors", "per_color", "num_x", "num_y",
                 "terms", "clauses", "width")


def _default_seed() -> int:
    return int(os.environ.get("ABD_SEED", "0"))


def cmd_solve(args: argparse.Namespace) -> int:
    inst = io.parse(args.file)
    key = (args.mode, args.algo)
    if key not in SOLVERS:
        print(f"error: algorithm '{args.algo}' is not applicable to mode "
              f"'{args.mode}'", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    res = SOLVERS[key](inst)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    record = io.result_record(
        answer=res.answer,
        witness=res.witness.literals if res.witness else None,
        algorithm=res.algorithm, mode=args.mode, stats=res.stats, wall_ms=wall_ms,
        reduction_report=io.report_dict(res.report) if res.report else None)
    print(io.to_json(record))
    return 0 if res.answer else 1


def cmd_gen(args: argparse.Namespace) -> int:
    if args.family not in generators.FAMILIES:
        print(f"error: unknown family '{args.family}' "
              f"(known: {', '.join(sorted(generators.FAMILIES))})", file=sys.stderr)
        return 2
    family = generators.FAMILIES[args.family]
    params = {k: getattr(args, k) for k in GEN_INT_FLAGS + ("edge_prob",)
              if getattr(args, k) is not None}
    unused = [k for k in params if k not in inspect.signature(family).parameters]
    if unused:
        print(f"error: family '{args.family}' does not use "
              f"{', '.join('--' + k.replace('_', '-') for k in unused)}", file=sys.stderr)
        return 2
    inst = family(seed=args.seed, **params)
    text = io.write_text(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _write_dimacs(phi: CnfFormula, path: str) -> None:
    lines = [f"p cnf {phi.num_vars} {len(phi.clauses)}"]
    lines += [" ".join(str(l) for l in cl) + " 0" for cl in phi.clauses]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_dimacs(path: str) -> CnfFormula:
    """DIMACS CNF: `c` comment lines and a `p cnf` header, then the clauses as
    one stream of literals, each clause ended by a 0 wherever lines break.  A
    line starting with `%` (the SATLIB trailer) ends the clauses, and the last
    clause may omit its 0."""
    num_vars = 0
    clauses: list[list[int]] = [[]]
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("%"):
                break
            if line.startswith("p"):
                num_vars = int(line.split()[2])
            elif line and not line.startswith("c"):
                for lit in map(int, line.split()):
                    if lit:
                        clauses[-1].append(lit)
                    else:
                        clauses.append([])
    if not clauses[-1]:
        clauses.pop()
    return CnfFormula(num_vars, tuple(map(tuple, clauses)))


def cmd_reduce(args: argparse.Namespace) -> int:
    name = args.reduction
    if name == "cnfsat-to-abd":
        out, report = cnfsat_to_abd_lb(_read_dimacs(args.input))
        io.write(out, args.output)
    elif name == "abd2cnf-to-cnfsat":
        out, report = abd2cnf_to_cnfsat(io.parse(args.input))
        _write_dimacs(out, args.output)
    elif name == "abd-to-simplesat":
        simple, report = abd_to_simplesat(preprocess(io.parse(args.input)).instance)
        blob = {
            "num_vars": simple.num_vars, "p": simple.p,
            "positive_clauses": [sorted(c) for c in simple.positive_clauses],
            "negative_dnfs": [[sorted(t) for t in d] for d in simple.negative_dnfs],
        }
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(blob, fh, sort_keys=True)
            fh.write("\n")
    else:
        transforms = {
            "negimp-to-pos": negimp_to_pos,
            "abd-to-pabd-4cnf": abd_to_pabd_4cnf,
            "eliminate-constants": eliminate_constants,
            "kcnf-to-nae": kcnf_to_nae,
        }
        if name not in transforms:
            print(f"error: unknown reduction '{name}'", file=sys.stderr)
            return 2
        out, report = transforms[name](io.parse(args.input))
        io.write(out, args.output)
    print(io.to_json(io.report_dict(report)))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify.run_verify(suite=args.suite, per_family=args.per_family,
                               max_n=args.max_n, seed=args.seed,
                               progress=lambda s: print(s, file=sys.stderr))
    summary = {
        "suite": args.suite,
        "instances": report.instances,
        "failures": len(report.failures),
        "logged_disagreements": len(report.logged),
        "ok": report.ok,
    }
    print(io.to_json(summary))
    for i, finding in enumerate(report.failures[:args.dump_limit]):
        path = f"{args.dump}.{i}.abd"
        inst = io.parse_text(finding.instance_text)
        inst = verify.minimize_instance(
            inst, lambda cand: any(f.kind == finding.kind
                                   for f in verify.check_solvers(cand)
                                   + verify.check_reductions(cand)[0]))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# {finding.kind}: {finding.detail}\n")
            fh.write(io.write_text(inst))
        print(f"failing instance dumped to {path}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_bench(args: argparse.Namespace) -> int:
    parts = [int(x) for x in args.grid.split(":")]
    if len(parts) == 2:
        grid = list(range(parts[0], parts[1] + 1))
    elif len(parts) == 3:
        grid = list(range(parts[0], parts[1] + 1, parts[2]))
    else:
        print("error: grid must be a:b or a:b:step", file=sys.stderr)
        return 2
    sweep = bench.run_bench(args.family, grid, seeds=args.seeds)
    print(io.to_json(sweep.as_dict()))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(sweep.csv())
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="abductor",
                                 description="propositional abduction workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("file")
    p.add_argument("--algo", required=True,
                   choices=["oracle", "baseline", "enum", "pabd-rec",
                            "pabd-enum", "simplesat", "one-valid"])
    p.add_argument("--mode", required=True, choices=["abd", "pabd"])
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--family", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=_default_seed())
    for flag in GEN_INT_FLAGS:
        p.add_argument(f"--{flag.replace('_', '-')}", type=int, default=None)
    p.add_argument("--edge-prob", type=float, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("reduce", help="apply a reduction construction")
    p.add_argument("--reduction", required=True)
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="run cross-validation sweeps")
    p.add_argument("--suite", choices=["exhaustive", "random"], default="random")
    p.add_argument("--per-family", type=int, default=50)
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--dump", default="failing")
    p.add_argument("--dump-limit", type=int, default=5)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="exponent-fitting benchmark sweep")
    p.add_argument("--family", required=True,
                   choices=sorted(bench.BENCH_FAMILIES))
    p.add_argument("--grid", required=True)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash is never an answer: exit 1 would read as "no explanation"
        traceback.print_exc()
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
