"""End-to-end runs of the command-line front end."""

import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import centrum
from centrum import VerificationReport, gen_tight_triple, save_instance
from centrum.cli import run
from centrum.errors import DegenerateOptimum
from centrum.objectives import cost_profile

BETA3 = (3.0 + math.sqrt(5.0)) / 2.0


@pytest.fixture()
def triple_file(tmp_path):
    path = tmp_path / "triple.json"
    save_instance(gen_tight_triple(5, 30), path)
    return str(path)


# one well-formed document per instance layout
_LAYOUTS = {
    "dist": {"dist": [[1.0, 2.0]]},
    "located": {"cross": [[0.0, 1.0], [1.0, 0.0]], "locations": [[0], [1]]},
    "points": {"client_points": [[0.0]], "facility_points": [[1.0]]},
    "graph": {"vertices": [0, 1], "edges": [[0, 1, 1.0]], "clients": [0], "facilities": [1]},
}


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


def test_import_and_bounds_load_no_scipy():
    script = (
        "import sys\n"
        "import centrum.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert loaded() == [], loaded()\n"
        "assert centrum.cli.run(['bounds', '--beta', '3']) == 0\n"
        "assert loaded() == [], loaded()\n"
    )
    src = os.path.dirname(os.path.dirname(centrum.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("beta")


def test_points_path_loads_no_scipy(tmp_path):
    # gen, solve, graph and verify on a points file compute their
    # distances with numpy; only validation below the rounding bound
    # (--tol 0) reaches _point_cross, and its gate is numpy too; at tol 0
    # this file's rounding shows as violations, exit 3
    script = (
        "import sys\n"
        "import centrum.cli, centrum.metric as metric\n"
        "run = centrum.cli.run\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "crosses = []\n"
        "point_cross = metric._point_cross\n"
        "metric._point_cross = lambda points: crosses.append(1) or point_cross(points)\n"
        "path = sys.argv[1]\n"
        "assert run(['gen', '--family', 'euclid', '-n', '60', '-m', '20', '--seed', '3',\n"
        "            '-o', path]) == 0\n"
        "assert run(['solve', path, '--objectives', '1,60', '--method', 'pair']) == 0\n"
        "for method in ('largest', 'graph', 'exhaustive'):\n"
        "    assert run(['solve', path, '--objectives', '1,6,60', '--method', method]) == 0\n"
        "assert run(['graph', path, '--objectives', '1,6,60']) == 0\n"
        "assert run(['verify', '--suite', 'lemmas', '--instance', path]) == 0\n"
        "assert run(['verify', '--suite', 'shared', '--instances', '3']) == 0\n"
        "assert loaded() == [] and crosses == [], (loaded(), crosses)\n"
        "assert run(['verify', '--suite', 'lemmas', '--instance', path, '--tol', '0']) == 3\n"
        "assert crosses == [1], crosses\n"
        "assert loaded() == [], loaded()\n"
    )
    src = os.path.dirname(os.path.dirname(centrum.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "euclid.json")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_runtime_loads_no_scipy(tmp_path):
    # curves, every file family through solve, graph and verify at the
    # default tol and at tol 0, and the three sweeps: distances, graph
    # shortest paths and the metric gate are numpy alone. At --tol 0 the
    # euclid file's rounding shows as violations (exit 3).
    script = (
        "import os, sys\n"
        "import centrum.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "run = centrum.cli.run\n"
        "os.chdir(sys.argv[1])\n"
        "assert run(['curves', '--qmax', '5']) == 0\n"
        "families = {'line': (['-k', '2', '-p', '10'], 10),\n"
        "            'triangle': (['-k', '2', '-p', '6'], 6),\n"
        "            'triple': (['-k', '5', '-n', '30'], 30),\n"
        "            'euclid': (['-n', '60', '-m', '20', '--seed', '3'], 60),\n"
        "            'graph': (['--vertices', '40', '--seed', '3'], 40)}\n"
        "for family, (args, n) in families.items():\n"
        "    assert run(['gen', '--family', family, *args, '-o', family + '.json']) == 0\n"
        "def commands(tol):\n"
        "    codes = []\n"
        "    for family, (args, n) in families.items():\n"
        "        path, ks = family + '.json', '1,%d,%d' % (n // 3, n)\n"
        "        codes.append(run(['solve', path, '--objectives', '1,%d' % n, '--method', 'pair',\n"
        "                          '--profile', '--out', 'out.json', *tol]))\n"
        "        for method in ('largest', 'graph', 'exhaustive'):\n"
        "            codes.append(run(['solve', path, '--objectives', ks, '--method', method,\n"
        "                              '--out', 'out.json', *tol]))\n"
        "        codes.append(run(['graph', path, '--objectives', ks, '--out', 'out.json', *tol]))\n"
        "        codes.append(run(['verify', '--suite', 'lemmas', '--instance', path,\n"
        "                          '--out', 'out.json', *tol]))\n"
        "    return codes\n"
        "assert set(commands([])) == {0}\n"
        "for suite in ('pair', 'multi', 'shared'):\n"
        "    assert run(['verify', '--suite', suite, '--instances', '3', '--out', 'out.json']) == 0\n"
        "codes = commands(['--tol', '0'])\n"
        "assert codes == [0] * 23 + [3] + [2] * 6, codes\n"
        "assert loaded() == [], loaded()\n"
    )
    src = os.path.dirname(os.path.dirname(centrum.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    # a saved graph file has no rounding bound, and its rounding fails the load at tol 0
    errors = done.stderr.splitlines()
    assert len(errors) == 6 and all(e.startswith("error: d(") for e in errors), errors


class TestBounds:
    def test_beta_three(self, capsys):
        assert run(["bounds", "--beta", "3"]) == 0
        name, value = capsys.readouterr().out.split()
        assert name == "beta"
        assert float(value) == pytest.approx(BETA3, abs=1e-11)

    def test_beta_at_large_q(self, capsys):
        assert run(["bounds", "--beta", "100000"]) == 0
        name, value = capsys.readouterr().out.split()
        assert name == "beta" and 2.99998 < float(value) <= 3.0

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

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    def test_each_layout_solves(self, tmp_path, capsys, layout):
        path = tmp_path / "good.json"
        path.write_text(json.dumps({**_LAYOUTS[layout], "provenance": {"a": 1}}))
        assert run(["solve", str(path), "--objectives", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["worst_ratio"] == 1.0

    @pytest.mark.parametrize("doc", [
        *({**_LAYOUTS[layout], "provenance": bad}
          for layout in ("dist", "located", "points") for bad in ("s", 1, [1])),
        {**_LAYOUTS["dist"], "labels": [1]},
        {**_LAYOUTS["graph"], "edges": [[0, 1]]},
        {**_LAYOUTS["graph"], "edges": [[0, 1, "x"]]},
        {**_LAYOUTS["graph"], "edges": [[[0], 1, 1.0]]},
        {**_LAYOUTS["graph"], "edges": 5},
    ])
    def test_malformed_document_is_input_error(self, tmp_path, capsys, doc):
        # each ended in a traceback with exit 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["solve", str(path), "--objectives", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

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

    @pytest.mark.parametrize("family", [
        ["--family", "euclid", "-n", "3", "-m", "2"],
        ["--family", "graph", "--vertices", "5"],
    ])
    def test_negative_seed_is_input_error(self, capsys, family):
        # it ended in a traceback from numpy's SeedSequence
        assert run(["gen", *family, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be an integer >= 0, got -1\n"
        assert captured.out == ""

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

    def test_lemmas_validates_once(self, triple_file, capsys, monkeypatch):
        # loading the file validates the metric; the check reuses that verdict
        import centrum.harness as harness_mod
        import centrum.metric as metric_mod

        calls = []
        real = metric_mod.validate_metric

        def counting(instance, tol=1e-9):
            calls.append(tol)
            return real(instance, tol=tol)

        # wherever the package looks the name up
        monkeypatch.setattr(metric_mod, "validate_metric", counting)
        monkeypatch.setattr(harness_mod, "validate_metric", counting, raising=False)
        assert run(["verify", "--suite", "lemmas", "--instance", triple_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(rec["name"] == "metric_axioms" for rec in doc["checks"])
        assert calls == [1e-9]

    def test_missing_instance_for_lemmas(self, capsys):
        assert run(["verify", "--suite", "lemmas"]) == 2

    def test_allocation_failure_is_input_error(self, tmp_path, capsys, monkeypatch):
        # validating a 10^5 x 100 points file at tol 0 asks _point_cross for
        # the whole (n+m)^2 metric; raising stands in for the 74.7 GiB
        import centrum.metric as metric_mod

        message = "Unable to allocate 74.7 GiB for an array with shape (100100, 100100)"

        def no_memory(points):
            raise MemoryError(message)

        path = tmp_path / "points.json"
        save_instance(centrum.gen_random_euclidean(6, 3, seed=1), path)
        monkeypatch.setattr(metric_mod, "_point_cross", no_memory)
        argv = ["verify", "--suite", "lemmas", "--instance", str(path), "--tol", "0"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: %s\n" % message
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "{path}", "--objectives", "1,2"],
            ["graph", "{path}", "--objectives", "1,2"],
            ["verify", "--suite", "lemmas", "--instance", "{path}"],
        ],
    )
    def test_overflowing_cost_is_input_error(self, tmp_path, capsys, argv):
        # the top-2 sum of 1e308 twice overflows; it printed NaN ratios
        path = tmp_path / "far.json"
        path.write_text('{"dist": [[1e308], [1e308]]}')
        assert run([a.format(path=path) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: the top-2 cost of facility f0 is not finite\n"
        assert captured.out == ""

    @pytest.mark.filterwarnings("ignore::centrum.errors.DegenerateOptimum")
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "{path}", "--objectives", "1,2,3", "--profile"],
            ["solve", "{path}", "--objectives", "1,3", "--method", "pair", "--profile"],
            ["solve", "{path}", "--objectives", "1,2,3", "--method", "exhaustive"],
            ["graph", "{path}", "--objectives", "1,2,3"],
            ["verify", "--suite", "lemmas", "--instance", "{path}"],
        ],
    )
    def test_degenerate_instance_writes_strict_json(self, tmp_path, capsys, argv):
        # every client on facility f0: zero optima, and inf ratios for f1,
        # none of which reach the output, which JSON without NaN parses
        path = tmp_path / "degenerate.json"
        path.write_text('{"cross": [[0.0, 1.0], [1.0, 0.0]], "locations": [[0, 0, 0], [0, 1]]}')
        assert run([a.format(path=path) for a in argv]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""

        def no_constant(name):
            raise AssertionError("non-finite %s in the output" % name)

        json.loads(captured.out, parse_constant=no_constant)


class TestWarnings:
    """The CLI prints a warning as one line naming its category, not the
    interpreter frame that called into the package."""

    LINE = (
        "warning: DegenerateOptimum: an optimal cost is zero; ratios are 1 where the cost"
        " is zero, inf elsewhere\n"
    )
    ARGVS = [
        ["solve", "{path}", "--method", "graph", "--objectives", "1,2"],
        ["graph", "{path}", "--objectives", "1,2"],
        ["verify", "--suite", "lemmas", "--instance", "{path}"],
    ]

    @staticmethod
    def degenerate_argv(tmp_path, argv):
        path = tmp_path / "degenerate.json"
        path.write_text('{"dist": [[0.0, 5.0], [0.0, 6.0]]}')
        return [a.format(path=path) for a in argv]

    @pytest.mark.parametrize("argv", ARGVS, ids=["solve", "graph", "lemmas"])
    def test_module_run_prints_one_line(self, tmp_path, capsys, argv):
        argv = self.degenerate_argv(tmp_path, argv)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateOptimum)
            assert run(argv) == 0
        expected = capsys.readouterr().out
        src = os.path.dirname(os.path.dirname(centrum.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = src
        done = subprocess.run([sys.executable, "-m", "centrum", *argv], env=env,
                              capture_output=True, text=True)
        assert (done.returncode, done.stderr, done.stdout) == (0, self.LINE, expected)

    def test_run_restores_the_handler(self, tmp_path, capsys):
        argv = self.degenerate_argv(tmp_path, self.ARGVS[0])
        with warnings.catch_warnings():
            warnings.simplefilter("always", DegenerateOptimum)
            handler = warnings.showwarning
            assert run(argv) == 0
            assert warnings.showwarning is handler
        assert capsys.readouterr().err == self.LINE


class TestTolOption:
    """--tol takes finite values >= 0; anything else is a usage error."""

    @staticmethod
    def argv(command, path):
        return {
            "solve": ["solve", path, "--objectives", "1,5,30"],
            "graph": ["graph", path, "--objectives", "1,5,30"],
            "verify": ["verify", "--suite", "lemmas", "--instance", path],
            "verify-sweep": ["verify", "--suite", "pair", "--instances", "1"],
        }[command]

    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "1e-9x"])
    @pytest.mark.parametrize("command", ["solve", "graph", "verify", "verify-sweep"])
    def test_rejected(self, triple_file, capsys, command, value):
        assert run(self.argv(command, triple_file) + ["--tol", value]) == 1
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "graph"])
    def test_zero_accepted(self, triple_file, capsys, command):
        assert run(self.argv(command, triple_file) + ["--tol", "0"]) == 0

    def test_zero_reaches_lemmas(self, triple_file, capsys):
        assert run(self.argv("verify", triple_file) + ["--tol", "0"]) in (0, 3)
        assert json.loads(capsys.readouterr().out)["config"]["tol"] == 0.0

    def test_zero_still_rejected_by_sweeps(self, triple_file, capsys):
        assert run(self.argv("verify-sweep", triple_file) + ["--tol", "0"]) == 2
        assert "tol" in capsys.readouterr().err


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
