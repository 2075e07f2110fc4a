import json
import subprocess
import sys

import pytest

from abductor.core import AbductionInstance, Relation, formula, preprocess
from abductor.langlib import one_in_k
from abductor.satenum import EnumStats
from abductor.solvers import AbdResult
from abductor.harness import bench, cli, generators, io, verify
from abductor.harness.cli import main as cli_main

from test_core import example1_instance


class TestInstanceFormat:
    def test_minimal_round_trip(self):
        text = "abd 1\nvars 2\nrel NEQ 2 01;10\ncon NEQ 1 2\nhyp 1\nman 2\n"
        inst = io.parse_text(text)
        assert inst.kb.constraints[0].relation == one_in_k(2)
        assert inst.hypotheses == {1} and inst.manifestations == {2}
        assert io.parse_text(io.write_text(inst)) == inst

    def test_round_trip_all_generators(self):
        for family, gen in generators.FAMILIES.items():
            inst = gen(seed=3)
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
        for family, gen in generators.FAMILIES.items():
            a = io.write_text(gen(seed=7))
            b = io.write_text(gen(seed=7))
            c = io.write_text(gen(seed=8))
            assert a == b, family
            assert a != c or family == "xsat-chain", family  # chain ignores seed

    def test_instances_are_normalized(self):
        for family, gen in generators.FAMILIES.items():
            inst = gen(seed=5)
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
            truth = verify.oracle_abd(inst)
            return AbdResult(not truth.answer, None, EnumStats(), "baseline-abd")

        monkeypatch.setattr(verify, "baseline_abd", broken)
        inst = generators.gen_xsat(6, 0)
        fails = verify.check_solvers(inst)
        assert any(f.kind == "baseline-abd" for f in fails)

    def test_minimizer_shrinks(self):
        inst = generators.gen_xsat(8, 2)
        target = verify.oracle_abd(inst).answer

        def still(cand):
            return verify.oracle_abd(cand).answer == target

        small = verify.minimize_instance(inst, still)
        assert len(small.kb.constraints) <= len(inst.kb.constraints)
        assert still(small)

    def test_preprocess_answer_preserving_exhaustive(self):
        # Lemma-6 normalization never changes either oracle verdict, checked
        # over every small KB with outside-KB hypothesis/manifestation splits
        from abductor.core import TRIVIALLY_NO
        checked = 0
        for inst in verify.preprocess_audit_instances():
            res = preprocess(inst)
            before = (verify.raw_abd_answer(inst), verify.raw_pabd_answer(inst))
            if res.verdict == TRIVIALLY_NO:
                assert before == (False, False), io.write_text(inst)
            else:
                after = (verify.raw_abd_answer(res.instance),
                         verify.raw_pabd_answer(res.instance))
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

    def test_xsat_chain_sweep(self):
        sweep = bench.run_bench("xsat-chain", [8, 10, 12, 14, 16], seeds=1)
        assert 1.3 <= sweep.base <= 1.45
        assert "median_nodes" in sweep.csv().splitlines()[0]

    def test_baseline_family_base_two(self):
        sweep = bench.run_bench("baseline-full-h", [7, 8, 9, 10, 11], seeds=1)
        assert abs(sweep.base - 2.0) <= 0.1


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

    def test_solve_internal_error_exit_two(self, tmp_path, capsys, monkeypatch):
        def crash(inst):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli.SOLVERS, ("abd", "oracle"), crash)
        path = tmp_path / "x.abd"
        io.write(generators.gen_xsat(4, 0), str(path))
        assert self.run("solve", str(path), "--algo", "oracle", "--mode", "abd") == 2
        err = capsys.readouterr().err
        assert err.rstrip().endswith("error: internal: RuntimeError: boom")

    def test_solve_inapplicable_combo(self, tmp_path):
        path = tmp_path / "x.abd"
        io.write(generators.gen_xsat(4, 0), str(path))
        assert self.run("solve", str(path), "--algo", "pabd-rec", "--mode", "abd") == 2

    def test_oracle_vs_enum_same_answer(self, tmp_path, capsys):
        path = tmp_path / "x.abd"
        io.write(generators.gen_xsat(7, 4), str(path))
        c1 = self.run("solve", str(path), "--algo", "oracle", "--mode", "abd")
        capsys.readouterr()
        c2 = self.run("solve", str(path), "--algo", "enum", "--mode", "abd")
        assert c1 == c2

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

    def test_gen_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ABD_SEED", "11")
        out = tmp_path / "e.abd"
        code = cli_main(["gen", "--family", "aff", "--n", "6", "--out", str(out)])
        assert code == 0 and out.exists()

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

    def test_verify_cli_small(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = self.run("verify", "--suite", "random", "--per-family", "3",
                        "--max-n", "7")
        out = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert code == 0 and out["ok"] is True

    def test_verify_max_n_below_four_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert self.run("verify", "--per-family", "1", "--max-n", "3") == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "max_n >= 4" in err
        assert "internal" not in err and "\n" not in err

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

    def test_satlib_trailer_ends_the_clauses(self, tmp_path):
        code, out = self.reduce(tmp_path, "p cnf 2 2\n1 2 0\n-1 0\n%\n0\n\n")
        assert code == 0 and out == self.expected(2, [(1, 2), (-1,)])
        assert verify.oracle_abd(out).answer  # satisfiable, so an explanation exists
