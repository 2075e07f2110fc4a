import inspect
import itertools
import json
import pathlib
import subprocess
import sys

import pytest

from abductor.core import (TRIVIALLY_NO, AbductionInstance, Explanation, Formula, Relation,
                           formula, hyp_mask, is_explanation, preprocess)
from abductor import langlib
from abductor.langlib import one_in_k
from abductor.reductions import CnfFormula, abd2cnf_to_cnfsat
from abductor import satenum
from abductor.satenum import EnumStats, SimpleSatInstance, solve_simple_sat
from abductor import solvers
from abductor.solvers import (ENGINES, AbdResult, Engine, _oracle_sets, explained,
                              oracle_full_explanations, oracle_positive_explanations)
from abductor.harness import bench, generators, io, verify
from abductor.harness.cli import REDUCTIONS, _read_dimacs, _write_dimacs
from abductor.harness.cli import main as cli_main

from test_core import example1_instance

# the generator families that read a seed
SEEDED = {family: gen for family, gen in generators.FAMILIES.items()
          if "seed" in inspect.signature(gen).parameters}


def generate(family, seed):
    """The family's instance, at `seed` if the family reads one."""
    gen = generators.FAMILIES[family]
    return gen(seed=seed) if family in SEEDED else gen()


class TestInstanceFormat:
    def test_minimal_round_trip(self):
        text = "abd 1\nvars 2\nrel NEQ 2 01;10\ncon NEQ 1 2\nhyp 1\nman 2\n"
        inst = io.parse_text(text)
        assert inst.kb.constraints[0].relation == one_in_k(2)
        assert inst.hypotheses == {1} and inst.manifestations == {2}
        assert io.parse_text(io.write_text(inst)) == inst

    def test_round_trip_all_generators(self):
        for family in generators.FAMILIES:
            inst = generate(family, 3)
            assert io.parse_text(io.write_text(inst)) == inst, family

    def test_round_trip_zero_ary_and_empty(self):
        from abductor.core import FALSE0, TRUE0
        kb = formula(2, [(FALSE0, ()), (TRUE0, ()), (Relation(2, ()), (1, 2))])
        inst = AbductionInstance(kb, frozenset({1}), frozenset())
        assert io.parse_text(io.write_text(inst)) == inst

    def test_duplicate_relation_names_disambiguated(self):
        r1 = Relation(2, (1, 2), "R")
        r2 = Relation(2, (0, 3), "R")
        kb = formula(2, [(r1, (1, 2)), (r2, (1, 2))])
        inst = AbductionInstance(kb, frozenset(), frozenset())
        assert io.parse_text(io.write_text(inst)) == inst

    def test_names_that_are_not_one_token_are_generated(self):
        """A name holding whitespace, or empty, is written as R<i>; one token
        is kept as it is, and R<i> never clashes with it."""
        rels = [Relation(2, (0, 3), "R1"), Relation(2, (1, 2), "NE Q"),
                Relation(1, (1,), "tab\there"), Relation(2, (0, 1, 2), ""),
                Relation(1, (0,), "a\u2028b"), Relation(3, (1, 2, 4), "X1OF3")]
        kb = formula(3, [(r, (1, 2, 3)[:r.arity]) for r in rels])
        inst = AbductionInstance(kb, frozenset({1}), frozenset({3}))
        text = io.write_text(inst)
        assert io.parse_text(text) == inst
        names = [line.split()[1] for line in text.splitlines() if line.startswith("rel ")]
        assert names == ["R1", "R1_2", "R2", "R3", "R4", "X1OF3"]

    def test_comments_and_blanks(self):
        text = "abd 1\n\n# hello\nvars 1\nrel T 1 1\ncon T 1\nhyp\nman 1\n"
        inst = io.parse_text(text)
        assert inst.manifestations == {1} and not inst.hypotheses

    @pytest.mark.parametrize("text,msg", [
        ("vars 2\n", "header"),
        ("abd 1\nvars 2\nrel A 2 011\n", "length"),
        ("abd 1\nvars 2\nrel A 2 0x\n", "non-bit"),
        ("abd 1\nvars 2\ncon NOPE 1 2\n", "unknown relation"),
        ("abd 1\nvars 2\nrel A 2 01\ncon A 1 3\n", "out of range"),
        ("abd 1\nvars 2\nrel A 1 0\nrel A 1 1\n", "duplicate"),
        ("abd 1\nvars 2\nrel A 2 01\ncon A 1\n", "scope length"),
        ("abd 1\nvars 1\nhyp 5\n", "out of range"),
        ("abd 1\nvars 1\nhyp 5\n", "line 3: H/M variables out of range: [5]"),
        ("abd 1\nhyp 1\nman 7 1\nvars 2\nhyp 3\n", "line 3: H/M variables out of range: [3, 7]"),
        ("abd 1\nvars 2\nman 1\n\nman 2 0\n", "line 5: H/M variables out of range: [0]"),
        ("abd 1\nvars 2 7\n", "line 2: 'vars' takes 1 field, got 2"),
        ("abd 1\nvars 2\nrel R 2 01 10\n", "line 3: 'rel' takes 2 or 3 fields, got 4"),
    ])
    def test_parse_errors(self, text, msg):
        with pytest.raises(io.ParseError) as err:
            io.parse_text(text)
        assert msg in str(err.value)

    def test_repeated_vars_line_is_a_parse_error(self):
        text = "abd 1\nvars 3\nrel R 1 1\ncon R 3\nvars 2\n"
        with pytest.raises(io.ParseError) as err:
            io.parse_text(text)
        assert err.value.lineno == 5 and "vars" in str(err.value)

    def test_example1_file_solves(self, tmp_path):
        path = tmp_path / "ex1.abd"
        io.write(example1_instance(), str(path))
        assert io.parse(str(path)) == example1_instance()


class TestResultRecord:
    def test_stable_json(self):
        rec = io.result_record(answer=True, witness=[1, 4], algorithm="pabd-enum",
                               mode="pabd", stats=EnumStats(1, 2, 3, 4), wall_ms=1.25)
        expect = ('{"algorithm": "pabd-enum", "answer": true, "mode": "pabd", '
                  '"reduction_report": null, "schema": "abductor-result/1", '
                  '"stats": {"branch_nodes": 1, "leaves": 2, "max_depth": 4, '
                  '"models_emitted": 3, "wall_ms": 1.25}, "witness": [1, 4]}')
        assert io.to_json(rec) == expect


class TestGenerators:
    def test_seed_determinism(self):
        assert "xsat-chain" not in SEEDED  # the chain has no seed to read
        for family, gen in SEEDED.items():
            a = io.write_text(gen(seed=7))
            b = io.write_text(gen(seed=7))
            c = io.write_text(gen(seed=8))
            assert a == b, family
            assert a != c, family

    def test_instances_are_normalized(self):
        for family in generators.FAMILIES:
            inst = generate(family, 5)
            pre = preprocess(inst)
            assert pre.instance == inst, family  # already H,M inside var(KB)
            assert not (inst.hypotheses & inst.manifestations), family

    def test_chain_size(self):
        inst = generators.gen_xsat_chain(3)
        assert inst.num_vars == 6
        assert len(inst.kb.constraints) == 3


class TestVerifySweeps:
    def test_small_random_sweep_clean(self):
        report = verify.run_verify(suite="random", per_family=6, max_n=8, seed=1)
        assert report.ok, [f"{f.kind}: {f.detail}" for f in report.failures[:3]]
        assert report.instances == 6 * len(verify.RANDOM_FAMILIES)

    def test_injected_bug_is_caught(self, monkeypatch):
        def broken(inst):
            truth = solvers.oracle_abd(inst)
            return AbdResult(not truth.answer, None, EnumStats(), "baseline-abd")

        monkeypatch.setattr(next(e for e in ENGINES if e.name == "baseline-abd"), "solve", broken)
        inst = generators.gen_xsat(6, 0)
        fails = verify.check_solvers(inst)
        assert any(f.kind == "baseline-abd" for f in fails)

    def test_a_bad_witness_is_checked_once_and_found_per_row(self, monkeypatch):
        """check_solvers checks each distinct witness of an instance once,
        and each row that returns a bad one gets its own finding."""
        inst = example1_instance()
        bad = frozenset({-1})
        assert solvers.oracle_abd(inst).answer and not is_explanation(inst, bad)

        def solve(inst):
            return AbdResult(True, Explanation(bad), EnumStats(), "bad")

        checks = []

        def counted(inst, lits):
            checks.append(lits)
            return solvers.oracle_explains(inst, lits)

        monkeypatch.setattr(verify, "ENGINES", (Engine("bad-one", "abd", "one", solve),
                                                Engine("bad-two", "abd", "two", solve)))
        monkeypatch.setattr(verify, "oracle_explains", counted)
        fails = verify.check_solvers(inst)
        assert [f.kind for f in fails] == ["bad-one", "bad-two"]
        assert all("is not an explanation" in f.detail for f in fails)
        assert checks == [bad]

    def test_a_bad_witness_is_found_when_decide_is_wrong(self, monkeypatch):
        """The witness check does not run the search that the sweep judges:
        with a decide that calls every check of a negated manifestation
        unsatisfiable, is_explanation accepts {3, 5}, and the sweep still
        finds it bad."""
        inst = generators.gen_xsat(5, 2)
        witness = frozenset({3, 5})
        assert solvers.oracle_abd(inst).answer and not is_explanation(inst, witness)
        decide, man = satenum.decide, hyp_mask(inst.manifestations)

        def wrong(kb, pos=0, neg=0):
            return not neg & man and decide(kb, pos, neg)

        def solve(inst):
            return AbdResult(True, Explanation(witness), EnumStats(), "stub")

        monkeypatch.setattr(satenum, "decide", wrong)
        assert is_explanation(inst, witness)
        monkeypatch.setattr(verify, "ENGINES", (Engine("stub", "abd", "stub", solve),))
        assert [(f.kind, f.detail) for f in verify.check_solvers(inst)] == [
            ("stub", "witness [3, 5] is not an explanation")]

    def test_a_yes_without_a_witness_is_a_finding(self, monkeypatch):
        inst = example1_instance()
        assert solvers.oracle_abd(inst).answer

        def solve(inst):
            return AbdResult(True, None, EnumStats(), "no-witness")

        monkeypatch.setattr(verify, "ENGINES", (Engine("no-witness", "abd", "nw", solve),))
        fails = verify.check_solvers(inst)
        assert [(f.kind, f.detail) for f in fails] == [
            ("no-witness", "answer True without a witness")]
        assert fails[0].instance is inst

    def test_checks_render_no_text(self, monkeypatch):
        """A finding holds its instance, so a clean check writes no text."""
        def write_text(inst):
            raise AssertionError("a clean check rendered its instance")

        monkeypatch.setattr(io, "write_text", write_text)
        inst = generators.gen_kcnf_pos(6, 1, k=2)
        assert verify.check_solvers(inst) == []
        assert verify.check_reductions(inst) == ([], [])

    def test_solvers_where_h_and_m_overlap_after_preprocess(self):
        """The exhaustive pool has no instance whose preprocessed H and M
        overlap; these audit instances do, so a SAT call's ¬m can land on an
        assumed hypothesis."""
        overlap = []
        for inst in verify.preprocess_audit_instances():
            pre = preprocess(inst)
            if pre.verdict != TRIVIALLY_NO and pre.instance.hypotheses & pre.instance.manifestations:
                overlap.append(inst)
        assert len(overlap) == 873
        fails = [f for inst in overlap for f in verify.check_solvers(inst)]
        assert not fails, [(f.kind, f.detail, io.write_text(f.instance)) for f in fails[:3]]

    def test_one_oracle_read_gives_both_answers_and_all_three_sets(self):
        """_oracle_pair and _oracle_sets, which read the oracle view once, give
        what the public oracles give, trivially-no instances included."""
        trivially_no = 0
        for inst in itertools.chain(verify.exhaustive_instances(),
                                    verify.preprocess_audit_instances()):
            answers = solvers.oracle_abd(inst).answer, solvers.oracle_pabd(inst).answer
            assert verify._oracle_pair(inst) == answers, inst
            full, positive, maximal = _oracle_sets(inst)
            assert (bool(full), bool(positive)) == answers, inst
            assert (full, positive, maximal) == (oracle_full_explanations(inst),
                                                 *oracle_positive_explanations(inst)), inst
            trivially_no += preprocess(inst).verdict == TRIVIALLY_NO
        assert trivially_no > 1000

    def test_checks_read_the_oracle_view_once_per_instance(self, monkeypatch):
        """check_solvers reads the view once, for its input; check_reductions
        reads it once for each distinct instance it judges: here the input
        and the outputs of negimp-to-pos, abd-to-pabd-4cnf and kcnf-to-nae
        (the language has no inequality gadget, so no constant probe)."""
        inst = generators.gen_kcnf_neg_imp(4, 0, k=2)
        reads = []

        def counted(x):
            reads.append(x)
            return explained(x)

        monkeypatch.setattr(solvers, "explained", counted)
        monkeypatch.setattr(verify, "explained", counted)
        assert verify.check_solvers(inst) == []
        assert reads == [preprocess(inst).instance]
        reads.clear()
        assert verify.check_reductions(inst)[0] == []
        assert reads[0] == preprocess(inst).instance
        assert len(reads) == len(set(reads)) == 4

    def test_an_internal_failure_of_derive_inequality_is_not_skipped(self, monkeypatch):
        """check_reductions skips the constant probe only for a language with
        no inequality gadget (LanguageError); a wrong identification minor is
        a bug, so the check raises instead of judging nothing."""
        inst = generators.gen_nae3(6, 0)
        assert verify.check_reductions(inst) == ([], [])
        monkeypatch.setattr(langlib, "minor", lambda rel, pattern, k: Relation(2, (0, 3)))
        with pytest.raises(RuntimeError, match="did not give inequality"):
            verify.check_reductions(inst)

    def test_minimizer_shrinks(self):
        inst = generators.gen_xsat(8, 2)
        target = solvers.oracle_abd(inst).answer

        def still(cand):
            return solvers.oracle_abd(cand).answer == target

        small = verify.minimize_instance(inst, still)
        assert len(small.kb.constraints) <= len(inst.kb.constraints)
        assert still(small)

    def test_preprocess_answer_preserving_exhaustive(self):
        # Lemma-6 normalization never changes either oracle verdict, checked
        # over every small KB with outside-KB hypothesis/manifestation splits
        checked = 0
        for inst in verify.preprocess_audit_instances():
            res = preprocess(inst)
            before = tuple(map(bool, explained(inst)[1:]))
            if res.verdict == TRIVIALLY_NO:
                assert before == (False, False), io.write_text(inst)
            else:
                after = tuple(map(bool, explained(res.instance)[1:]))
                assert before == after, io.write_text(inst)
                again = preprocess(res.instance)
                assert again.instance == res.instance
            checked += 1
        assert checked > 1000


class TestBench:
    def test_fit_base_recovers_powers(self):
        pts = [(n, 2.0 ** n) for n in range(6, 16)]
        base, res = bench.fit_base(pts)
        assert abs(base - 2.0) < 1e-9 and res < 1e-9

    def test_fit_needs_five_points(self):
        with pytest.raises(ValueError):
            bench.fit_base([(1, 1.0), (2, 2.0)])

    def test_a_short_grid_is_refused_before_any_run(self, monkeypatch):
        calls = []
        monkeypatch.setitem(bench.BENCH_FAMILIES, "baseline-full-h",
                            (lambda n, seed: calls.append(n) or 1, False))
        with pytest.raises(ValueError, match="need at least 5 grid points for a fit"):
            bench.run_bench("baseline-full-h", [16, 17, 18, 19], seeds=1)
        assert calls == []

    def test_a_negative_xsat_chain_size_names_n(self, capsys):
        assert cli_main(["bench", "--family", "xsat-chain", "--grid=-8:0:2"]) == 2
        err = capsys.readouterr().err
        assert "need n >= 0, got -8" in err and "m >=" not in err

    def test_xsat_chain_sweep(self):
        sweep = bench.run_bench("xsat-chain", [8, 10, 12, 14, 16], seeds=1)
        assert 1.3 <= sweep.base <= 1.45
        assert "median_nodes" in sweep.csv().splitlines()[0]

    def test_baseline_family_base_two(self):
        sweep = bench.run_bench("baseline-full-h", [7, 8, 9, 10, 11], seeds=1)
        assert abs(sweep.base - 2.0) <= 0.1

    def test_xsat_random_cli_matches_the_golden_file(self, capsys):
        """`bench --family xsat-random` runs the seeds 0..4 of the golden
        file's xsat-random entries, so its per-size runs and medians are theirs."""
        path = pathlib.Path(__file__).resolve().parent.parent / "BENCH_nodes.json"
        golden: dict[int, list[int]] = {}
        for e in json.loads(path.read_text(encoding="utf-8"))["entries"]:
            if e["family"] == "xsat-random":
                golden.setdefault(e["n"], []).append(e["branch_nodes"])
        assert cli_main(["bench", "--family", "xsat-random", "--grid", "10:24:2"]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        assert [p["n"] for p in points] == sorted(golden)
        for p in points:
            assert p["runs"] == golden[p["n"]]
            assert p["median_nodes"] == sorted(golden[p["n"]])[2]


class TestCli:
    def run(self, *argv):
        return cli_main(list(argv))

    def test_solve_yes_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "ex1.abd"
        io.write(example1_instance(), str(path))
        code = self.run("solve", str(path), "--algo", "pabd-enum", "--mode", "pabd")
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["answer"] is True
        assert out["witness"] == [1, 4, 5]
        assert out["schema"] == "abductor-result/1"

    def test_solve_no_exit_one(self, tmp_path, capsys):
        kb = formula(2, [(Relation(2, ()), (1, 2))])
        path = tmp_path / "no.abd"
        io.write(AbductionInstance(kb, frozenset({1}), frozenset({2})), str(path))
        assert self.run("solve", str(path), "--algo", "oracle", "--mode", "abd") == 1

    def test_solve_simplesat_reports_its_reduction(self, tmp_path, capsys):
        path = tmp_path / "pos.abd"
        io.write(generators.gen_kcnf_pos(8, 1, k=2), str(path))
        self.run("solve", str(path), "--algo", "simplesat", "--mode", "abd")
        rep = json.loads(capsys.readouterr().out)["reduction_report"]
        assert rep is not None and rep["name"] == "abd-to-simplesat"

    def test_solve_fragment_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "nae.abd"
        io.write(generators.gen_nae3(5, 0), str(path))
        code = self.run("solve", str(path), "--algo", "simplesat", "--mode", "abd")
        assert code == 2

    @pytest.mark.parametrize("algo, mode", [("simplesat", "abd"), ("one-valid", "pabd")])
    def test_solve_trivially_no_outside_the_fragment_exit_two(self, tmp_path, capsys,
                                                              algo, mode):
        """A fragment row rejects a KB outside its fragment even where
        preprocess alone would answer no (m = 3 is outside var(KB))."""
        path = tmp_path / "neq.abd"
        path.write_text("abd 1\nvars 3\nrel NEQ 2 01;10\ncon NEQ 1 2\nhyp 1\nman 3\n")
        assert preprocess(io.parse(str(path))).verdict == TRIVIALLY_NO
        assert self.run("solve", str(path), "--algo", algo, "--mode", mode) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_solve_internal_error_exit_two(self, tmp_path, capsys, monkeypatch):
        def crash(inst):
            raise RuntimeError("boom")

        monkeypatch.setattr(next(e for e in ENGINES if e.name == "oracle-abd"), "solve", crash)
        path = tmp_path / "x.abd"
        io.write(generators.gen_xsat(4, 0), str(path))
        assert self.run("solve", str(path), "--algo", "oracle", "--mode", "abd") == 2
        err = capsys.readouterr().err
        assert err.rstrip().endswith("error: internal: RuntimeError: boom")

    def test_every_engine_answers_solve(self, tmp_path, capsys):
        """Each ENGINES row answers `solve` under its own name with its mode's
        oracle exit code, on the first of these instances it applies to."""
        insts = [generators.gen_xsat(7, 4), generators.gen_kcnf_pos(8, 1, k=2)]
        oracles = {"abd": solvers.oracle_abd, "pabd": solvers.oracle_pabd}
        for e in ENGINES:
            inst = next(i for i in insts if e.applies is None or e.applies(i))
            path = tmp_path / "x.abd"
            io.write(inst, str(path))
            code = self.run("solve", str(path), "--algo", e.algo, "--mode", e.mode)
            out = json.loads(capsys.readouterr().out)
            assert code == (0 if oracles[e.mode](inst).answer else 1), e.name
            assert out["algorithm"] == e.name

    def test_solve_inapplicable_combo(self, tmp_path):
        path = tmp_path / "x.abd"
        io.write(generators.gen_xsat(4, 0), str(path))
        assert self.run("solve", str(path), "--algo", "pabd-rec", "--mode", "abd") == 2

    def test_gen_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.abd", tmp_path / "b.abd"
        self.run("gen", "--family", "xsat", "--n", "8", "--seed", "5", "--out", str(a))
        self.run("gen", "--family", "xsat", "--n", "8", "--seed", "5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_gen_rejects_flags_the_family_does_not_use(self, capsys):
        assert self.run("gen", "--family", "kcnf-pos", "--clauses", "1") == 2
        assert "--clauses" in capsys.readouterr().err
        assert self.run("gen", "--family", "xsat", "--k", "9", "--width", "4") == 2
        err = capsys.readouterr().err
        assert "--k" in err and "--width" in err
        assert self.run("gen", "--family", "cnfsat-lb", "--clauses", "3") == 0
        capsys.readouterr()
        assert self.run("gen", "--family", "xsat-chain", "--seed", "1") == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["kcnf-pos", "--n", "1"], "n >= 2, got 1"),
        (["kcnf-pos", "--k", "1"], "k >= 2, got 1"),
        (["kcnf-neg-imp", "--n", "1"], "n >= 2, got 1"),
        (["kcnf-neg-imp", "--k", "1"], "k >= 2, got 1"),
        (["aff", "--n", "1"], "n >= 2, got 1"),
        (["2cnf", "--n", "1"], "n >= 2, got 1"),
        (["cnfsat-lb", "--n", "0"], "n >= 1, got 0"),
        (["cnfsat-lb", "--width", "0"], "width >= 1, got 0"),
        (["qbf4cnf", "--num-x", "0", "--num-y", "0"], "num_x + num_y >= 1, got 0"),
        (["equations", "--n", "0"], "n >= 1, got 0"),
        (["xsat", "--n", "0"], "n >= 1, got 0"),
        (["nae", "--n", "2"], "n >= 3, got 2"),
    ])
    def test_gen_below_a_family_minimum_names_the_flag(self, argv, named, capsys):
        """A size below a family's minimum is one error line naming the
        parameter and its bound, exit 2, and no instance."""
        assert self.run("gen", "--family", *argv) == 2
        captured = capsys.readouterr()
        assert not captured.out
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and err[0].endswith(named)

    @pytest.mark.parametrize("family, flag, bad, bound, others", [
        ("xsat-chain", "m", -1, 0, []),
        ("cnfsat-lb", "n", -1, 0, ["--clauses", "0"]),
        ("cnfsat-lb", "clauses", -1, 0, []),
        ("qbf4cnf", "num-x", -1, 0, ["--num-y", "2"]),
        ("qbf4cnf", "num-y", -1, 0, []),
        ("qbf4cnf", "terms", -1, 0, []),
        ("clique", "colors", 0, 1, []),
        ("clique", "per-color", 0, 1, []),
    ])
    def test_gen_out_of_range_sizes_name_the_flag(self, family, flag, bad, bound,
                                                  others, capsys):
        """A size below its bound in a family that draws nothing at that
        size is one error line naming the flag, exit 2; the bound itself
        writes an instance that parses."""
        argv = ["gen", "--family", family, *others, f"--{flag}"]
        assert self.run(*argv, str(bad)) == 2
        captured = capsys.readouterr()
        assert not captured.out
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].endswith(f"{flag} >= {bound}, got {bad}")
        assert self.run(*argv, str(bound)) == 0
        io.parse_text(capsys.readouterr().out)

    def test_solve_ignores_a_malformed_seed_variable(self, tmp_path, monkeypatch):
        # an environment the CLI does not read cannot turn an answer into exit 1
        path = tmp_path / "y.abd"
        assert self.run("gen", "--family", "xsat", "--n", "8", "--seed", "1",
                        "--out", str(path)) == 0
        monkeypatch.setenv("ABD_SEED", "abc")
        assert self.run("solve", str(path), "--algo", "oracle", "--mode", "abd") == 0

    def test_reduce_round_trip(self, tmp_path, capsys):
        src = tmp_path / "in.abd"
        dst = tmp_path / "out.abd"
        io.write(generators.gen_kcnf_neg_imp(6, 1), str(src))
        code = self.run("reduce", "--reduction", "negimp-to-pos",
                        "-i", str(src), "-o", str(dst))
        rep = json.loads(capsys.readouterr().out)
        assert code == 0 and rep["contract"] == "CV"
        assert io.parse(str(dst)).kb.constraints  # parses back

    def test_reduce_to_dimacs(self, tmp_path, capsys):
        src = tmp_path / "in.abd"
        dst = tmp_path / "out.cnf"
        io.write(generators.gen_2cnf(5, 1), str(src))
        code = self.run("reduce", "--reduction", "abd2cnf-to-cnfsat",
                        "-i", str(src), "-o", str(dst))
        assert code == 0 and dst.read_text().startswith("p cnf 5 ")

    def test_bench_cli(self, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        code = self.run("bench", "--family", "simplesat-p2", "--grid", "8:16:2",
                        "--csv", str(csv))
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["fitted_base"] <= 1.65
        assert csv.exists()

    @pytest.mark.parametrize("family", ["xsat-chain", "xsat-random"])
    def test_bench_rejects_zero_seeds(self, family, capsys):
        """A structured and a randomized family alike: one error line that
        names the flag, and exit 2."""
        assert self.run("bench", "--family", family, "--grid", "8:16:2", "--seeds", "0") == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.splitlines() == ["error: seeds must be >= 1, got 0"]

    def test_bench_rejects_a_grid_below_the_family_minimum(self, capsys):
        """xsat-random checks n before its first draw: one error line that
        names n and its bound, and exit 2."""
        assert self.run("bench", "--family", "xsat-random", "--grid=-4:0") == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.splitlines() == ["error: xsat-random instances need n >= 1, got -4"]

    @pytest.mark.parametrize("grid", ["4:12:0", "a:b", "4", "4:8:2:1", "4:x:2", ""])
    def test_bench_rejects_a_malformed_grid(self, grid, capsys):
        assert self.run("bench", "--family", "xsat-chain", "--grid", grid) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.splitlines() == [
            "error: --grid must be a:b or a:b:step of integers, step nonzero"]

    def test_reduce_to_simplesat_names_a_trivially_no_input(self, tmp_path, capsys):
        """A manifestation outside var(KB) and not in H is what stops
        abd-to-simplesat on this file, and the error says so."""
        src = tmp_path / "no.abd"
        src.write_text("abd 1\nvars 3\nrel OR2 2 01;10;11\ncon OR2 1 2\nhyp 1\nman 3\n")
        assert self.run("reduce", "--reduction", "abd-to-simplesat",
                        "-i", str(src), "-o", str(tmp_path / "out.json")) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: manifestations [3] are outside var(KB) and not in H: "
            "nothing can explain them, so the instance is trivially no"]
        assert self.run("solve", str(src), "--algo", "simplesat", "--mode", "abd") == 1

    def test_verify_cli_small(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = self.run("verify", "--suite", "random", "--per-family", "3",
                        "--max-n", "7")
        out = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert code == 0 and out["ok"] is True

    def test_verify_smoke_sweep_summary(self, tmp_path, capsys, monkeypatch):
        """The sweep smoke: 120 instances, no failure, and 9 disagreements
        of the clause-merging 2-CNF -> CNF-SAT reduction, logged only."""
        monkeypatch.chdir(tmp_path)
        code = self.run("verify", "--suite", "random", "--per-family", "20",
                        "--max-n", "10", "--seed", "0")
        assert code == 0
        assert capsys.readouterr().out == (
            '{"failures": 0, "instances": 120, "logged_disagreements": 9, '
            '"ok": true, "suite": "random"}\n')

    def test_verify_dumps_a_finding(self, tmp_path, capsys, monkeypatch):
        def broken(inst):
            truth = solvers.oracle_abd(inst)
            return AbdResult(not truth.answer, None, EnumStats(), "baseline-abd")

        monkeypatch.setattr(next(e for e in ENGINES if e.name == "baseline-abd"), "solve", broken)
        dump = tmp_path / "f"
        code = self.run("verify", "--suite", "random", "--per-family", "1", "--max-n", "4",
                        "--dump", str(dump), "--dump-limit", "1")
        out = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert code == 1 and out["ok"] is False and out["failures"] > 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.0.abd"]
        text = (tmp_path / "f.0.abd").read_text()
        assert text.startswith("# baseline-abd: ")
        inst = io.parse(str(tmp_path / "f.0.abd"))
        assert any(f.kind == "baseline-abd" for f in verify.check_solvers(inst))

    def test_verify_dumps_a_generator_finding_unminimized(self, tmp_path, capsys, monkeypatch):
        """A clique-to-abd finding is not one check_solvers or
        check_reductions can report, so the dump writes the instance as found
        without checking it."""
        exists = verify.colorful_clique_exists
        monkeypatch.setattr(verify, "colorful_clique_exists", lambda g: not exists(g))
        calls = []
        check_solvers = verify.check_solvers
        monkeypatch.setattr(verify, "check_solvers",
                            lambda inst: calls.append(inst) or check_solvers(inst))
        run_verify = verify.run_verify

        def sweep_then_count(**kwargs):
            report = run_verify(**kwargs)
            calls.clear()  # count only the calls the dump makes
            return report

        monkeypatch.setattr(verify, "run_verify", sweep_then_count)
        dump = tmp_path / "f"
        code = self.run("verify", "--suite", "random", "--per-family", "1", "--max-n", "4",
                        "--dump", str(dump), "--dump-limit", "1")
        out = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert code == 1 and out["ok"] is False
        assert (tmp_path / "f.0.abd").read_text().startswith("# clique-to-abd: ")
        assert len(calls) == 0

    def test_verify_max_n_below_four_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert self.run("verify", "--per-family", "1", "--max-n", "3") == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "max_n >= 4" in err
        assert "internal" not in err and "\n" not in err

    def test_verify_max_n_above_the_oracle_cap_is_rejected_up_front(self, tmp_path, capsys,
                                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(verify, "check_solvers", lambda inst: pytest.fail("swept"))
        assert self.run("verify", "--per-family", "1", "--max-n", "21") == 2
        out = capsys.readouterr()
        assert not out.out
        assert out.err == "error: random instances need max_n <= 20, got 21\n"

    def test_verify_negative_dump_limit_is_a_usage_error(self, capsys):
        assert self.run("verify", "--dump-limit", "-1") == 2
        out = capsys.readouterr()
        assert not out.out
        assert out.err == "error: --dump-limit must be >= 0, got -1\n"

    def test_unknown_names_are_usage_errors(self, capsys):
        for argv in (("gen", "--family", "nope"),
                     ("reduce", "--reduction", "nope", "-i", "x", "-o", "y")):
            with pytest.raises(SystemExit) as exc:
                self.run(*argv)
            assert exc.value.code == 2
            assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_verify_per_family_below_one_is_a_usage_error(self, capsys):
        for value in ("0", "-3"):
            assert self.run("verify", "--per-family", value) == 2
            out = capsys.readouterr()
            assert not out.out
            assert out.err == f"error: random instances need per_family >= 1, got {value}\n"

    def test_console_script_entry(self):
        proc = subprocess.run([sys.executable, "-m", "abductor.harness.cli",
                               "gen", "--family", "xsat-chain", "--m", "2"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("abd 1\n")


class TestCliDimacs:
    """`reduce --reduction cnfsat-to-abd` reads the literals as one stream cut
    at each 0, whatever the line breaks, and stops at a SATLIB `%` line."""

    def reduce(self, tmp_path, text):
        src, dst = tmp_path / "in.cnf", tmp_path / "out.abd"
        src.write_text(text)
        code = cli_main(["reduce", "--reduction", "cnfsat-to-abd",
                         "-i", str(src), "-o", str(dst)])
        return code, io.parse(str(dst)) if code == 0 else None

    def expected(self, num_vars, clauses):
        from abductor.reductions import CnfFormula, cnfsat_to_abd_lb
        return cnfsat_to_abd_lb(CnfFormula(num_vars, tuple(clauses)))[0]

    def test_clause_spanning_lines(self, tmp_path):
        code, out = self.reduce(tmp_path, "c spans two lines\np cnf 3 1\n1 2\n3 0\n")
        assert code == 0 and out == self.expected(3, [(1, 2, 3)])

    def test_several_clauses_on_one_line(self, tmp_path):
        code, out = self.reduce(tmp_path, "p cnf 3 2\n1 2 0 -3 0\n")
        assert code == 0 and out == self.expected(3, [(1, 2), (-3,)])

    @pytest.mark.parametrize("header", ["p cnf", "p cnf 3", "p cnf x 1", "p dnf 3 1",
                                        "p cnf 3 1 7", "p"])
    def test_a_malformed_header_is_a_usage_error(self, tmp_path, capsys, header):
        code, _ = self.reduce(tmp_path, f"{header}\n1 2 0\n")
        err = capsys.readouterr().err
        assert code == 2 and err.splitlines() == [
            f"error: malformed DIMACS header {header!r}: expected 'p cnf <vars> <clauses>'"]

    def test_satlib_trailer_ends_the_clauses(self, tmp_path):
        code, out = self.reduce(tmp_path, "p cnf 2 2\n1 2 0\n-1 0\n%\n0\n\n")
        assert code == 0 and out == self.expected(2, [(1, 2), (-1,)])
        assert solvers.oracle_abd(out).answer  # satisfiable, so an explanation exists


def _pair(inst):
    """The (symmetric, positive) oracle answers."""
    return solvers.oracle_abd(inst).answer, solvers.oracle_pabd(inst).answer


def _simplesat_answer(path):
    blob = json.loads(path.read_text())
    return solve_simple_sat(SimpleSatInstance(**blob))[0] is not None


# each row of cli.REDUCTIONS: (its input, what the input answers, what the
# file the row writes answers), where the answers are the ones the
# construction keeps
REDUCE_CASES = {
    "negimp-to-pos": (generators.gen_kcnf_neg_imp(6, 1), _pair,
                      lambda path: (solvers.oracle_abd(io.parse(path)).answer,) * 2),
    "abd-to-simplesat": (generators.gen_kcnf_pos(6, 1, k=2),
                         lambda inst: solvers.oracle_abd(inst).answer, _simplesat_answer),
    "abd-to-pabd-4cnf": (generators.gen_2cnf(5, 1),
                         lambda inst: solvers.oracle_abd(inst).answer,
                         lambda path: solvers.oracle_pabd(io.parse(path)).answer),
    "eliminate-constants": (verify._with_constants(generators.gen_nae3(6, 0)), _pair,
                            lambda path: _pair(io.parse(path))),
    "kcnf-to-nae": (generators.gen_2cnf(5, 2), _pair, lambda path: _pair(io.parse(path))),
    "cnfsat-to-abd": (generators.gen_cnf_formula(3, 5, 3, 0), CnfFormula.satisfiable,
                      lambda path: _pair(io.parse(path))[0]),
    # not answer-preserving (verify only logs it): the file is the construction's formula
    "abd2cnf-to-cnfsat": (generators.gen_2cnf(5, 1),
                          lambda inst: abd2cnf_to_cnfsat(inst)[0], _read_dimacs),
}


class TestCliReduce:
    """Every row of cli.REDUCTIONS end to end through `main`, on the
    preprocessed instance, the input that verify's check_reductions checks."""

    def reduce(self, tmp_path, capsys, name, given):
        src, dst = tmp_path / "in", tmp_path / "out"
        if isinstance(given, CnfFormula):
            _write_dimacs(given, str(src))
        else:
            io.write(given, str(src))
        assert cli_main(["reduce", "--reduction", name, "-i", str(src), "-o", str(dst)]) == 0
        assert json.loads(capsys.readouterr().out)["name"] == name
        return dst

    @pytest.mark.parametrize("name", list(REDUCTIONS))
    def test_every_reduction(self, name, tmp_path, capsys):
        given, answer_in, answer_out = REDUCE_CASES[name]
        dst = self.reduce(tmp_path, capsys, name, given)
        assert answer_out(dst) == answer_in(given)

    def test_reduce_preprocesses_its_input(self, tmp_path, capsys):
        """A hypothesis outside var(KB) is dropped and a self-explained
        manifestation leaves H and M before kcnf-to-nae runs, and the
        written instance keeps both answers of the file as given."""
        inst = generators.gen_2cnf(5, 2)
        given = AbductionInstance(Formula(7, inst.kb.constraints),
                                  inst.hypotheses | {6, 7}, inst.manifestations | {7})
        assert preprocess(given).instance != given
        out = io.parse(str(self.reduce(tmp_path, capsys, "kcnf-to-nae", given)))
        assert not {6, 7} & (out.hypotheses | out.manifestations)
        assert _pair(out) == _pair(given)
