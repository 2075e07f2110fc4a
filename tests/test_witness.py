"""Every "yes" carries a witness that explains the instance the caller passed,
not only the one preprocess reduces it to: a manifestation m in H ∩ M outside
var(KB) is dropped from both sets as self-explained, and the witness must
still contain +m to imply it."""

import itertools
import json

import pytest

from abductor.core import AbductionInstance, StructureError, formula, is_explanation
from abductor.langlib import clause_relation
from abductor.solvers import ENGINES, oracle_explains
from abductor.harness import io, verify
from abductor.harness.cli import main as cli_main


def self_explained_instance() -> AbductionInstance:
    # x1 ∨ x2 over three variables; x3 is a hypothesis and the manifestation
    kb = formula(3, [(clause_relation((0, 0)), (1, 2))])
    return AbductionInstance(kb, frozenset({1, 3}), frozenset({3}))


def test_self_explained_manifestation_is_in_every_witness():
    inst = self_explained_instance()
    for e in ENGINES:
        res, _ = e.run(inst)
        assert res.answer, e.name
        assert 3 in res.witness.literals, e.name
        assert is_explanation(inst, res.witness.literals), e.name


def test_cli_witness_explains_the_file(tmp_path, capsys):
    path = tmp_path / "self.abd"
    io.write(self_explained_instance(), str(path))
    for e in ENGINES:
        assert cli_main(["solve", str(path), "--algo", e.algo, "--mode", e.mode]) == 0
        witness = json.loads(capsys.readouterr().out)["witness"]
        assert 3 in witness, e.name


def test_every_witness_explains_the_callers_instance():
    bad = []
    checked = 0
    for inst in verify.preprocess_audit_instances():
        for e in ENGINES:
            if e.applies is not None and not e.applies(inst):
                continue
            res, _ = e.run(inst)
            if res.answer and not is_explanation(inst, res.witness.literals):
                bad.append(f"{e.name}: {sorted(res.witness.literals)} on "
                           f"{io.write_text(inst)!r}")
        checked += 1
    assert checked == 4096
    assert not bad, (len(bad), bad[:3])


def test_the_table_check_agrees_with_is_explanation():
    """oracle_explains, verify's witness check, answers as is_explanation on
    every consistent literal set over H and on an inconsistent pair."""
    pool = [inst for _, inst in verify.random_instances(3, 8, 0)]
    pool.append(self_explained_instance())
    checked = 0
    for inst in pool:
        hyp = sorted(inst.hypotheses)
        for signs in itertools.product((0, 1, -1), repeat=len(hyp)):
            lits = {s * h for s, h in zip(signs, hyp) if s}
            assert oracle_explains(inst, lits) == is_explanation(inst, lits), (lits, inst)
            checked += 1
        h = hyp[0]
        assert not oracle_explains(inst, {h, -h}) and not is_explanation(inst, {h, -h})
    assert checked == 423


@pytest.mark.parametrize("lits", [{0}, {2}, {-2}, {1, 0}])
def test_both_checks_reject_a_literal_outside_h(lits):
    inst = self_explained_instance()
    for check in (oracle_explains, is_explanation):
        with pytest.raises(StructureError):
            check(inst, lits)
