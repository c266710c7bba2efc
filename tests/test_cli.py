"""End-to-end runs of the command-line front end."""

import json
import math
import sys

import pytest

from centrum import VerificationReport, gen_tight_triple, save_instance
from centrum.cli import run
from centrum.objectives import cost_profile

BETA3 = (3.0 + math.sqrt(5.0)) / 2.0


@pytest.fixture()
def triple_file(tmp_path):
    path = tmp_path / "triple.json"
    save_instance(gen_tight_triple(5, 30), path)
    return str(path)


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_help_exits_clean(self, capsys):
        assert run(["--help"]) == 0
        assert "solve" in capsys.readouterr().out

    def test_version(self, capsys):
        assert run(["--version"]) == 0
        assert "0.1.0" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1


class TestBounds:
    def test_beta_three(self, capsys):
        assert run(["bounds", "--beta", "3"]) == 0
        name, value = capsys.readouterr().out.split()
        assert name == "beta"
        assert float(value) == pytest.approx(BETA3, abs=1e-11)

    def test_pair_and_shared(self, capsys):
        assert run(["bounds", "--pair", "2", "--shared", "10"]) == 0
        lines = dict(
            line.split() for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(lines["pair_bound"]) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert float(lines["shared_bound"]) == 2.0

    def test_bad_argument_is_input_error(self, capsys):
        assert run(["bounds", "--beta", "1"]) == 2
        assert "q" in capsys.readouterr().err

    def test_no_request_is_an_error(self, capsys):
        assert run(["bounds"]) == 2
        assert "nothing to compute" in capsys.readouterr().err

    def test_seed_is_usage_error(self, capsys):
        assert run(["bounds", "--beta", "3", "--seed", "1"]) == 1


class TestSolve:
    def test_graph_method_within_guarantee(self, triple_file, capsys):
        assert run(["solve", triple_file, "--objectives", "1,5,30"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "multi_graph"
        assert doc["worst_ratio"] <= BETA3 + 1e-9
        assert doc["guarantee"]["kind"] == "beta_q"

    def test_pair_method(self, triple_file, capsys):
        assert run(["solve", triple_file, "--objectives", "5,30", "--method", "pair"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "pair_best_of_two"
        assert doc["worst_ratio"] <= doc["guarantee"]["value"] + 1e-9

    def test_pair_method_needs_exactly_two(self, triple_file, capsys):
        assert run(["solve", triple_file, "--objectives", "1,5,30", "--method", "pair"]) == 2

    def test_exhaustive_never_worse_than_graph(self, triple_file, capsys):
        run(["solve", triple_file, "--objectives", "1,5,30", "--method", "exhaustive"])
        best = json.loads(capsys.readouterr().out)["worst_ratio"]
        run(["solve", triple_file, "--objectives", "1,5,30", "--method", "graph"])
        graph = json.loads(capsys.readouterr().out)["worst_ratio"]
        assert best <= graph + 1e-12
        assert best >= 1.0

    def test_output_file_byte_identical(self, triple_file, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["solve", triple_file, "--objectives", "1,5,30", "--profile"]
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_profile_includes_costs(self, triple_file, capsys):
        assert run(["solve", triple_file, "--objectives", "1,30", "--profile"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "profile" in doc
        assert len(doc["profile"]["costs"]) == 3

    @pytest.mark.parametrize("method", ["pair", "largest", "graph", "exhaustive"])
    def test_profile_computed_once(self, triple_file, capsys, monkeypatch, method):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return cost_profile(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "centrum" and getattr(module, "cost_profile", None) is cost_profile:
                monkeypatch.setattr(module, "cost_profile", counting)
        args = ["solve", triple_file, "--objectives", "5,30", "--method", method, "--profile"]
        assert run(args) == 0
        assert len(calls) == 1
        assert json.loads(capsys.readouterr().out)["profile"]["objectives"] == [5, 30]

    def test_missing_file(self, capsys):
        assert run(["solve", "/no/such/file.json", "--objectives", "1"]) == 2

    def test_bad_objectives_string_is_usage_error(self, triple_file, capsys):
        assert run(["solve", triple_file, "--objectives", "1,zap"]) == 1


class TestGen:
    @pytest.mark.parametrize(
        "args,clients",
        [
            (["--family", "line", "-k", "1", "-p", "20"], 20),
            (["--family", "triangle", "-k", "1", "-p", "3"], 3),
            (["--family", "triple", "-k", "4", "-n", "24"], 24),
            (["--family", "euclid", "-n", "15", "-m", "4", "--seed", "3"], 15),
            (["--family", "graph", "--vertices", "12", "--density", "0.3", "--seed", "1"], 12),
        ],
    )
    def test_families_round_trip_through_solve(self, tmp_path, capsys, args, clients):
        path = tmp_path / "inst.json"
        assert run(["gen", *args, "-o", str(path)]) == 0
        note = capsys.readouterr().out
        assert str(path) in note and "clients" in note
        assert run(["solve", str(path), "--objectives", "1,%d" % clients]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["worst_ratio"] >= 1.0

    def test_gen_without_out_prints_instance(self, capsys):
        assert run(["gen", "--family", "triangle", "-k", "1", "-p", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert len(doc["clients"]) == 2

    def test_rejects_out_of_range_family_params(self, capsys):
        assert run(["gen", "--family", "line", "-k", "2", "-p", "4"]) == 2
        assert run(["gen", "--family", "triangle", "-k", "1", "-p", "9"]) == 2

    def test_euclid_deterministic_for_seed(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        base = ["gen", "--family", "euclid", "-n", "9", "-m", "3", "--seed", "11"]
        assert run(base + ["-o", str(a)]) == 0
        assert run(base + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_lemmas_on_instance_file(self, triple_file, capsys):
        code = run(
            ["verify", "--suite", "lemmas", "--instance", triple_file,
             "--objectives", "1,5,30"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations_total"] == 0

    def test_lemmas_default_objectives(self, triple_file, capsys):
        assert run(["verify", "--suite", "lemmas", "--instance", triple_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations_total"] == 0

    def test_pair_sweep_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(
            ["verify", "--suite", "pair", "--instances", "4", "--seed", "5",
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["violations_total"] == 0
        assert any(b["name"].startswith("pair_guarantee") for b in doc["bounds"])

    def test_multi_sweep(self, capsys):
        assert run(["verify", "--suite", "multi", "--instances", "3", "--seed", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations_total"] == 0

    def test_shared_sweep(self, capsys):
        assert run(["verify", "--suite", "shared", "--instances", "4", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(b["name"].startswith("shared_guarantee") for b in doc["bounds"])

    def test_violations_exit_three(self, triple_file, capsys, monkeypatch):
        import centrum.cli as cli_mod

        def fake_check(instance, objectives, tol=1e-9):
            report = VerificationReport()
            rec = report.check("metric_axioms")
            rec.instances = 1
            rec.add(1.0, {"kind": "triangle"}, tol)
            return report

        monkeypatch.setattr(cli_mod, "check_inequalities", fake_check)
        code = run(["verify", "--suite", "lemmas", "--instance", triple_file])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations_total"] == 1

    def test_missing_instance_for_lemmas(self, capsys):
        assert run(["verify", "--suite", "lemmas"]) == 2


class TestGraphCommand:
    def test_dumps_weights(self, triple_file, capsys):
        assert run(["graph", triple_file, "--objectives", "1,5,30"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["objectives"] == [1, 5, 30]
        assert len(doc["weights"]) == 3
        assert not doc["degenerate"]
        best = min(node["max_outgoing"] for node in doc["nodes"])
        assert 1.0 <= best <= BETA3 + 1e-9


class TestCurves:
    def test_writes_csvs(self, tmp_path, capsys):
        code = run(
            ["curves", "--xmax", "5", "--xstep", "0.5", "--qmax", "4",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert (tmp_path / "pair_bounds.csv").exists()
        assert (tmp_path / "multi_bounds.csv").exists()
        assert "pair_bounds.csv" in out

    def test_bad_grid_is_input_error(self, tmp_path):
        assert run(["curves", "--xstep", "-1", "--out-dir", str(tmp_path)]) == 2

    def test_tol_is_usage_error(self, tmp_path):
        assert run(["curves", "--tol", "1e-9", "--out-dir", str(tmp_path)]) == 1


class TestCsvInput:
    def test_solve_from_csv(self, tmp_path, capsys):
        path = tmp_path / "inst.csv"
        path.write_text("near,far\n1.0,4.0\n2.0,4.0\n3.0,4.0\n")
        assert run(["solve", str(path), "--objectives", "1,3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["label"] in ("near", "far")
        assert doc["worst_ratio"] >= 1.0
