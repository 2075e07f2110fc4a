"""Every "yes" carries a witness that explains the instance the caller passed,
not only the one preprocess reduces it to: a manifestation m in H ∩ M outside
var(KB) is dropped from both sets as self-explained, and the witness must
still contain +m to imply it."""

import json

from abductor.core import AbductionInstance, FragmentError, formula, is_explanation
from abductor.langlib import clause_relation
from abductor.solvers import (abd_kcnf_pos, baseline_abd, baseline_pabd,
                              enum_abd, oracle_abd, oracle_pabd, pabd_enum,
                              pabd_one_valid, pabd_recursive)
from abductor.harness import io, verify
from abductor.harness.cli import main as cli_main

SOLVERS = {
    "oracle-abd": oracle_abd,
    "oracle-pabd": oracle_pabd,
    "baseline-abd": baseline_abd,
    "baseline-pabd": baseline_pabd,
    "enum-abd": lambda inst: enum_abd(inst)[0],
    "pabd-rec": pabd_recursive,
    "pabd-enum": lambda inst: pabd_enum(inst)[0],
    "one-valid": pabd_one_valid,
    "simplesat": abd_kcnf_pos,
}


def self_explained_instance() -> AbductionInstance:
    # x1 ∨ x2 over three variables; x3 is a hypothesis and the manifestation
    kb = formula(3, [(clause_relation((0, 0)), (1, 2))])
    return AbductionInstance(kb, frozenset({1, 3}), frozenset({3}))


def test_self_explained_manifestation_is_in_every_witness():
    inst = self_explained_instance()
    for name, solve in SOLVERS.items():
        res = solve(inst)
        assert res.answer, name
        assert 3 in res.witness.literals, name
        assert is_explanation(inst, res.witness.literals), name


def test_cli_witness_explains_the_file(tmp_path, capsys):
    path = tmp_path / "self.abd"
    io.write(self_explained_instance(), str(path))
    for algo, mode in (("oracle", "abd"), ("pabd-rec", "pabd")):
        assert cli_main(["solve", str(path), "--algo", algo, "--mode", mode]) == 0
        witness = json.loads(capsys.readouterr().out)["witness"]
        assert 3 in witness, algo


def test_every_witness_explains_the_callers_instance():
    bad = []
    checked = 0
    for inst in verify.preprocess_audit_instances():
        for name, solve in SOLVERS.items():
            try:
                res = solve(inst)
            except FragmentError:
                continue  # one-valid and simplesat reject other fragments
            if res.answer and not is_explanation(inst, res.witness.literals):
                bad.append(f"{name}: {sorted(res.witness.literals)} on "
                           f"{io.write_text(inst)!r}")
        checked += 1
    assert checked == 4096
    assert not bad, (len(bad), bad[:3])
