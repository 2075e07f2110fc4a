"""Text instance format and result-record serialization.

Instance files are line-oriented UTF-8 with LF endings:

    abd 1
    vars 5
    rel NEQ 2 01;10
    con NEQ 1 2
    hyp 1 4
    man 3
    # comment

Tuples are bit-strings (coordinate 1 first); a relation with no tuples writes
"." and the 0-ary satisfied tuple writes "e".  A relation is written under
its name when that is one whitespace-free token and as R<i> otherwise, with
a _2, _3, ... suffix where names repeat.  parse(write(inst)) == inst.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Iterable

from ..core import AbductionInstance, Constraint, Formula, Relation, encode_tuple
from ..satenum import EnumStats

FORMAT_HEADER = "abd 1"
RESULT_SCHEMA = "abductor-result/1"


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _tuple_field(rel: Relation) -> str:
    if not rel.codes:
        return "."
    if rel.arity == 0:
        return "e"
    return ";".join("".join(map(str, t)) for t in rel.tuples())


def write_text(inst: AbductionInstance) -> str:
    names: dict[Relation, str] = {}
    used: set[str] = set()
    order: list[Relation] = []
    for con in inst.kb.constraints:
        rel = con.relation
        if rel in names:
            continue
        # a name that is not one whitespace-free token would not parse back
        base = rel.name if rel.name and rel.name.split() == [rel.name] else f"R{len(names)}"
        name = base
        i = 2
        while name in used:
            name = f"{base}_{i}"
            i += 1
        used.add(name)
        names[rel] = name
        order.append(rel)
    lines = [FORMAT_HEADER, f"vars {inst.kb.num_vars}"]
    for rel in order:
        lines.append(f"rel {names[rel]} {rel.arity} {_tuple_field(rel)}")
    for con in inst.kb.constraints:
        scope = " ".join(str(v) for v in con.scope)
        lines.append(f"con {names[con.relation]} {scope}".rstrip())
    lines.append(("hyp " + " ".join(str(v) for v in sorted(inst.hypotheses))).rstrip())
    lines.append(("man " + " ".join(str(v) for v in sorted(inst.manifestations))).rstrip())
    return "\n".join(lines) + "\n"


def _parse_tuples(field: str, arity: int, lineno: int) -> tuple[int, ...]:
    if field == ".":
        return ()
    codes = []
    for part in field.split(";"):
        if not part:
            continue  # tolerate a trailing separator
        if part == "e":
            if arity != 0:
                raise ParseError(lineno, "'e' tuple only valid for arity 0")
            codes.append(0)
            continue
        if len(part) != arity:
            raise ParseError(lineno, f"tuple '{part}' has length {len(part)}, arity is {arity}")
        if set(part) - {"0", "1"}:
            raise ParseError(lineno, f"tuple '{part}' contains non-bit characters")
        codes.append(encode_tuple(map(int, part)))
    return tuple(sorted(set(codes)))


def parse_text(text: str) -> AbductionInstance:
    num_vars: int | None = None
    rels: dict[str, Relation] = {}
    cons: list[Constraint] = []
    hyp: set[int] = set()
    man: set[int] = set()
    first: dict[int, int] = {}  # each H/M variable's first hyp/man line
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_header:
            if line != FORMAT_HEADER:
                raise ParseError(lineno, f"expected header '{FORMAT_HEADER}'")
            saw_header = True
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "vars":
                if len(fields) != 2:
                    raise ParseError(lineno, f"'vars' takes 1 field, got {len(fields) - 1}")
                if num_vars is not None:
                    raise ParseError(lineno, "repeated 'vars' line")
                num_vars = int(fields[1])
                if num_vars < 0:
                    raise ParseError(lineno, "vars must be non-negative")
            elif kind == "rel":
                if len(fields) not in (3, 4):
                    raise ParseError(lineno, f"'rel' takes 2 or 3 fields, got {len(fields) - 1}")
                if num_vars is None:
                    raise ParseError(lineno, "'rel' before 'vars'")
                name, arity = fields[1], int(fields[2])
                if name in rels:
                    raise ParseError(lineno, f"duplicate relation name '{name}'")
                field = fields[3] if len(fields) > 3 else "."
                rels[name] = Relation(arity, _parse_tuples(field, arity, lineno), name)
            elif kind == "con":
                name = fields[1]
                if name not in rels:
                    raise ParseError(lineno, f"unknown relation '{name}'")
                scope = tuple(int(v) for v in fields[2:])
                rel = rels[name]
                if len(scope) != rel.arity:
                    raise ParseError(lineno, f"scope length {len(scope)} != arity {rel.arity}")
                if any(not 1 <= v <= (num_vars or 0) for v in scope):
                    raise ParseError(lineno, "scope variable out of range")
                cons.append(Constraint(rel, scope))
            elif kind in ("hyp", "man"):
                vs = [int(v) for v in fields[1:]]
                (hyp if kind == "hyp" else man).update(vs)
                for v in vs:
                    first.setdefault(v, lineno)
            else:
                raise ParseError(lineno, f"unknown directive '{kind}'")
        except ParseError:
            raise
        except (ValueError, IndexError) as exc:
            raise ParseError(lineno, str(exc)) from exc
    if num_vars is None:
        raise ParseError(0, "missing 'vars' line")
    bad = sorted(v for v in first if not 1 <= v <= num_vars)
    if bad:
        raise ParseError(min(first[v] for v in bad), f"H/M variables out of range: {bad}")
    return AbductionInstance(Formula(num_vars, tuple(cons)), frozenset(hyp), frozenset(man))


def write(inst: AbductionInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(write_text(inst))


def parse(path: str) -> AbductionInstance:
    with open(path, encoding="utf-8") as fh:
        return parse_text(fh.read())


def result_record(*, answer: bool | None, witness: Iterable[int] | None,
                  algorithm: str, mode: str, stats: EnumStats,
                  wall_ms: float, reduction_report: dict | None = None) -> dict:
    return {
        "schema": RESULT_SCHEMA,
        "answer": answer,
        "witness": sorted(witness) if witness is not None else None,
        "algorithm": algorithm,
        "mode": mode,
        "stats": dict(stats.as_dict(), wall_ms=round(wall_ms, 3)),
        "reduction_report": reduction_report,
    }


def report_dict(report) -> dict:
    return dict(asdict(report), notes={str(k): v for k, v in report.notes.items()})


def to_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True)
