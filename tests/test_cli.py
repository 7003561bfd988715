import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import optfolio as of
from optfolio.cli import main
from optfolio.oracle import VALUE_RTOL
from optfolio.serialization import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    parse_schedule_arg,
    save_instance,
)

FIXTURE = of.paper_fixture_path()


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestInstanceDocument:
    def test_fixture_round_trips(self, paper_instance):
        doc = instance_to_dict(paper_instance)
        assert instance_from_dict(doc) == paper_instance

    def test_save_load_round_trip(self, tmp_path, paper_instance):
        path = tmp_path / "inst.json"
        save_instance(paper_instance, str(path))
        assert load_instance(str(path)) == paper_instance

    def test_raw_inputs_expand_to_pv_tables(self):
        doc = {
            "n_p": 1,
            "N": 2,
            "rate": 0.1,
            "budgets": [100, 100],
            "q_min": [0, 0],
            "q_max": [1, 1],
            "projects": [{"id": 1, "raw_cost": 110.0, "return_stream": [110.0]}],
            "edges": [],
        }
        inst = instance_from_dict(doc)
        assert of.validate_instance(inst) == []
        assert inst.projects[0].cost_pv[0] == 110.0
        assert abs(inst.projects[0].cost_pv[1] - 100.0) < 1e-9
        assert abs(inst.projects[0].return_pv[0] - 100.0) < 1e-9

    def test_missing_keys_reported(self):
        with pytest.raises(ValueError, match="budgets"):
            instance_from_dict({"n_p": 1, "N": 1})

    def test_comment_keys_ignored(self, paper_instance):
        doc = instance_to_dict(paper_instance)
        doc["comment"] = "anything"
        assert instance_from_dict(doc) == paper_instance


class TestParseScheduleArg:
    def test_comma_list(self):
        s = parse_schedule_arg("1,2,1,2,2,3,3", 7, 3)
        assert s.period_of == (1, 2, 1, 2, 2, 3, 3)

    def test_bit_rows(self):
        s = parse_schedule_arg("100\n010\n100\n010\n010\n001\n001", 7, 3)
        assert s.period_of == (1, 2, 1, 2, 2, 3, 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="expected n_p"):
            parse_schedule_arg("1,2", 7, 3)

    def test_invalid_bit_rows_report(self):
        with pytest.raises(of.InvalidChromosomeError, match="row 1 has 2 set bits"):
            parse_schedule_arg("110\n010", 2, 3)

    def test_single_project_period_number(self):
        assert parse_schedule_arg("2", 1, 3).period_of == (2,)


class TestSolve:
    def test_feasible_result(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, out = run_cli("solve", FIXTURE, "--seed", "42", "--trace-out", str(trace_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "ga"
        assert doc["feasible"] is True
        assert doc["value"] == 203
        assert doc["period_of"] == [1, 2, 1, 2, 2, 3, 3]
        assert doc["chromosome"] == ["100", "010", "100", "010", "010", "001", "001"]
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "generation,best_value,mean_feasible_value,feasible_count,best_violation"
        assert len(lines) == doc["generations_run"] + 1

    def test_validation_failure_exits_one(self, tmp_path, paper_instance):
        from dataclasses import replace

        bad = replace(paper_instance, q_max=(2, 2, 2))
        path = tmp_path / "bad.json"
        save_instance(bad, str(path))
        code, out = run_cli("solve", str(path))
        assert code == 1

    def test_malformed_json_exits_one(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _ = run_cli("solve", str(path))
        assert code == 1

    def test_byte_identical_output_across_runs(self, tmp_path):
        outs = []
        traces = []
        for i in range(3):
            tp = tmp_path / f"t{i}.csv"
            code, out = run_cli("solve", FIXTURE, "--seed", "7", "--trace-out", str(tp))
            assert code == 0
            outs.append(out)
            traces.append(tp.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        assert traces[0] == traces[1] == traces[2]

    def test_infeasible_best_exits_two(self, tmp_path, paper_instance):
        from dataclasses import replace

        starved = replace(paper_instance, budgets=(1.0, 1.0, 1.0))
        path = tmp_path / "starved.json"
        save_instance(starved, str(path))
        code, out = run_cli(
            "solve", str(path), "--seed", "1", "--generations", "5", "--stagnation", "3"
        )
        assert code == 2
        assert json.loads(out)["feasible"] is False


class TestExact:
    def test_fixture(self):
        code, out = run_cli("exact", FIXTURE)
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "exact"
        assert doc["period_of"] == [1, 2, 1, 2, 2, 3, 3]
        assert doc["value"] == 203
        assert doc["feasible_count"] == 2
        assert doc["breakdown"]["total_cost_per_period"] == [85, 105, 175]
        assert doc["chromosome"] == ["100", "010", "100", "010", "010", "001", "001"]

    def test_out_of_order_project_list(self, tmp_path):
        # projects listed as ids [2, 1]; the hard edge 1 -> 2 must bind on
        # ids, whatever the listing order
        doc = {
            "n_p": 2,
            "N": 2,
            "budgets": [100, 100],
            "q_min": [0, 0],
            "q_max": [2, 2],
            "projects": [
                {"id": 2, "cost_pv": [10, 10], "return_pv": [30, 30]},
                {"id": 1, "cost_pv": [10, 10], "return_pv": [20, 20]},
            ],
            "edges": [{"predecessor": 1, "dependent": 2, "level": 1.0, "option_value": 7}],
        }
        path = tmp_path / "reordered.json"
        path.write_text(json.dumps(doc))
        assert [p.id for p in load_instance(str(path)).projects] == [1, 2]
        code, out = run_cli("exact", str(path))
        assert code == 0
        res = json.loads(out)
        assert res["value"] == 37
        assert res["feasible_count"] == 3
        assert res["period_of"] == [1, 2]
        code, out = run_cli("evaluate", str(path), "2,1")
        assert code == 0
        assert json.loads(out)["feasible"] is False

    def test_cap_exceeded_exits_three(self):
        code, _ = run_cli("exact", FIXTURE, "--cap", "100")
        assert code == 3

    def test_more_projects_than_the_search_can_recurse_through_exits_three(self, tmp_path, capsys):
        # N=1 passes the N^n_p cap at any size, but the search recurses once
        # per project
        n = 1500
        doc = {
            "n_p": n,
            "N": 1,
            "budgets": [1e6],
            "q_min": [0],
            "q_max": [n],
            "projects": [{"id": i, "cost_pv": [1], "return_pv": [2]} for i in range(1, n + 1)],
            "edges": [],
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli("exact", str(path))
        assert code == 3
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: search depth n_p = 1500 exceeds recursion headroom")
        assert err.count("\n") == 1

    def test_infeasible_exits_two(self, tmp_path, paper_instance):
        from dataclasses import replace

        starved = replace(paper_instance, budgets=(1.0, 1.0, 1.0))
        path = tmp_path / "starved.json"
        save_instance(starved, str(path))
        code, out = run_cli("exact", str(path))
        assert code == 2
        doc = json.loads(out)
        assert doc["feasible_count"] == 0
        assert doc["period_of"] is None


def _set_nan_budget(doc):
    doc["budgets"][0] = float("nan")


def _set_nan_option_value(doc):
    doc["edges"][0]["option_value"] = float("nan")


def _set_infinite_return(doc):
    doc["projects"][0]["return_pv"][0] = float("inf")


def _set_boolean_id(doc):
    doc["projects"][0]["id"] = True


def _set_fractional_edge_endpoint(doc):
    doc["edges"][0]["dependent"] = 2.5


def _set_fractional_q_max(doc):
    doc["q_max"] = [3.9, 3.9, 3.9]


def _set_boolean_q_min(doc):
    doc["q_min"] = [True, 2, 2]


def _set_fractional_period_count(doc):
    doc["N"] = 3.2


def _set_float_project_count(doc):
    doc["n_p"] = 7.0


class TestRefusedInput:
    """Non-finite numbers, non-integer ids and non-integer counts exit 1
    instead of being solved."""

    @pytest.mark.parametrize(
        "command, corrupt",
        [
            ("solve", _set_nan_budget),
            ("exact", _set_nan_budget),
            ("exact", _set_nan_option_value),
            ("exact", _set_infinite_return),
            ("exact", _set_boolean_id),
            ("exact", _set_fractional_edge_endpoint),
            ("exact", _set_fractional_q_max),
            ("exact", _set_boolean_q_min),
            ("exact", _set_fractional_period_count),
            ("exact", _set_float_project_count),
        ],
    )
    def test_exits_one(self, tmp_path, paper_instance, command, corrupt):
        doc = instance_to_dict(paper_instance)
        corrupt(doc)
        path = tmp_path / "bad.json"
        # json writes NaN and Infinity, and reads them back as floats
        path.write_text(json.dumps(doc))
        code, out = run_cli(command, str(path))
        assert code == 1
        assert out == ""


def _count_calls(monkeypatch, home: str, name: str) -> list:
    """Count calls of `home.name` through every optfolio module that binds it."""
    original = getattr(sys.modules[home], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.partition(".")[0] == "optfolio" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize(
    "argv",
    [("solve", FIXTURE, "--seed", "1"), ("exact", FIXTURE), ("evaluate", FIXTURE, "1,2,1,2,2,3,3")],
    ids=["solve", "exact", "evaluate"],
)
def test_each_request_validates_and_compiles_once(monkeypatch, argv):
    validated = _count_calls(monkeypatch, "optfolio.model", "validate_instance")
    compiled = _count_calls(monkeypatch, "optfolio.valuation", "build_tables")
    code, _ = run_cli(*argv)
    assert code == 0
    assert (len(validated), len(compiled)) == (1, 1)


def test_exact_evaluate_and_small_solves_never_import_numpy():
    # numpy is imported only by the GA's batch scoring, which a desk-scale
    # solve never reaches
    script = "\n".join([
        "import sys",
        "import optfolio.cli as cli",
        f"assert cli.main(['exact', {FIXTURE!r}]) == 0",
        f"assert cli.main(['evaluate', {FIXTURE!r}, '1,2,1,2,2,3,3']) == 0",
        f"assert cli.main(['solve', {FIXTURE!r}, '--seed', '1', '--restarts', '2']) == 0",
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))",
    ])
    src = os.path.dirname(os.path.dirname(of.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_long_dependency_chain(tmp_path):
    # one chain of partial edges, far deeper than the interpreter's
    # default recursion limit
    n = 3000
    doc = {
        "n_p": n,
        "N": 2,
        "budgets": [1e6, 1e6],
        "q_min": [0, 0],
        "q_max": [n, n],
        "projects": [{"id": i, "cost_pv": [1, 1], "return_pv": [2, 2]} for i in range(1, n + 1)],
        "edges": [
            {"predecessor": i, "dependent": i + 1, "level": 0.5, "option_value": 1}
            for i in range(1, n)
        ],
    }
    assert of.validate_instance(instance_from_dict(doc)) == []
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli("evaluate", str(path), ",".join(["1"] * n))
    assert code == 0
    assert json.loads(out)["total_value"] == n


@given(
    n_p=st.integers(1, 8),
    n_periods=st.integers(2, 3),
    edge_density=st.sampled_from([0.0, 0.3, 0.7]),
    mode=st.sampled_from(["hard", "soft"]),
    gen_seed=st.integers(0, 10**6),
    ga_seed=st.integers(0, 1000),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=25, deadline=None)
def test_permuted_documents_solve_alike(n_p, n_periods, edge_density, mode, gen_seed, ga_seed, rng):
    doc = instance_to_dict(
        of.generate_instance(n_p, n_periods, edge_density=edge_density, seed=gen_seed)
    )
    doc["total_dependency_mode"] = mode
    variants = {
        "base": doc,
        "projects": dict(doc, projects=rng.sample(doc["projects"], n_p)),
        "edges": dict(doc, edges=rng.sample(doc["edges"], len(doc["edges"]))),
    }
    with tempfile.TemporaryDirectory() as d:
        paths = {}
        for name, variant in variants.items():
            paths[name] = os.path.join(d, f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(variant, fh)
        ga = ("--seed", str(ga_seed), "--population", "20", "--generations", "10")
        # projects are sorted by id on load, so nothing downstream can tell
        assert run_cli("solve", paths["projects"], *ga) == run_cli("solve", paths["base"], *ga)
        assert run_cli("exact", paths["projects"]) == run_cli("exact", paths["base"])
        # edge order changes the order of float sums, but not feasibility
        (code, out), (base_code, base_out) = run_cli("exact", paths["edges"]), run_cli(
            "exact", paths["base"]
        )
    assert code == base_code
    res, base = json.loads(out), json.loads(base_out)
    assert res["feasible_count"] == base["feasible_count"]
    if base["value"] is None:
        assert res["value"] is None
    else:
        assert math.isclose(res["value"], base["value"], rel_tol=VALUE_RTOL, abs_tol=VALUE_RTOL)


class TestEvaluate:
    def test_comma_schedule(self):
        code, out = run_cli("evaluate", FIXTURE, "1,2,1,2,2,3,3")
        assert code == 0
        doc = json.loads(out)
        assert sum(p["dcf_value"] for p in doc["projects"]) == 168
        assert sum(p["option_accrued"] for p in doc["projects"]) == 35
        assert doc["total_value"] == 203
        assert doc["feasible"] is True

    def test_bit_rows_file_matches_comma_form(self, tmp_path):
        rows = tmp_path / "rows.txt"
        rows.write_text("100\n010\n100\n010\n010\n001\n001\n")
        _, out_comma = run_cli("evaluate", FIXTURE, "1,2,1,2,2,3,3")
        _, out_rows = run_cli("evaluate", FIXTURE, str(rows))
        assert out_comma == out_rows

    def test_length_mismatch_exits_one(self):
        code, _ = run_cli("evaluate", FIXTURE, "1,2")
        assert code == 1

    def test_invalid_bit_rows_rejected_with_report(self, tmp_path, capsys):
        rows = tmp_path / "rows.txt"
        rows.write_text("110\n010\n100\n010\n010\n001\n001\n")
        code, _ = run_cli("evaluate", FIXTURE, str(rows))
        assert code == 1
        assert "row 1 has 2 set bits" in capsys.readouterr().err


SWEEP_CSV = """q_min,q_max,status,value,schedule
1,2,skipped,,
1,3,ok,{ok13}
1,4,ok,203.000000,1-2-1-2-2-3-3
2,2,skipped,,
2,3,ok,203.000000,1-2-1-2-2-3-3
2,4,ok,203.000000,1-2-1-2-2-3-3
3,2,skipped,,
3,3,skipped,,
3,4,skipped,,
"""


class TestSweep:
    def test_degenerate_sweep_equals_exact(self):
        code, out = run_cli("sweep", FIXTURE, "--qmin-range", "2..2", "--qmax-range", "3..3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q_min,q_max,status,value,schedule"
        assert lines[1] == "2,3,ok,203.000000,1-2-1-2-2-3-3"

    def test_widening_qmax_is_monotone(self):
        code, out = run_cli("sweep", FIXTURE, "--qmin-range", "1..2", "--qmax-range", "3..7")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        for qmin in ("1", "2"):
            vals = [float(r[3]) for r in rows if r[0] == qmin and r[2] == "ok"]
            assert vals == sorted(vals)

    def test_invalid_cell_skipped(self):
        code, out = run_cli("sweep", FIXTURE, "--qmin-range", "3..3", "--qmax-range", "2..2")
        assert code == 0
        assert out.strip().splitlines()[1] == "3,2,skipped,,"

    def test_cells_print_as_before(self):
        # covers ok cells, cells the solver refuses as invalid (sum of q_max
        # below n_p, sum of q_min above it) and q_min > q_max cells
        code, out = run_cli("sweep", FIXTURE, "--qmin-range", "1..3", "--qmax-range", "2..4")
        assert code == 0
        assert out == SWEEP_CSV.format(ok13="203.000000,1-2-1-2-2-3-3")
        code, out = run_cli(
            "sweep", FIXTURE, "--qmin-range", "1..3", "--qmax-range", "2..4",
            "--method", "ga", "--seed", "1", "--generations", "30",
        )
        assert code == 0
        assert out == SWEEP_CSV.format(ok13="176.750000,2-2-1-2-1-3-3")

    def test_each_cell_is_validated_once(self, monkeypatch):
        validated = _count_calls(monkeypatch, "optfolio.model", "validate_instance")
        code, _ = run_cli("sweep", FIXTURE, "--qmin-range", "1..2", "--qmax-range", "3..4")
        assert code == 0
        # the base document, then each of the four cells once, in the solver
        assert len(validated) == 5

    def test_cap_exceeded_exits_three(self):
        code, _ = run_cli(
            "sweep", FIXTURE, "--qmin-range", "1..2", "--qmax-range", "3..4", "--cap", "100"
        )
        assert code == 3

    def test_ga_method_runs(self):
        code, out = run_cli(
            "sweep", FIXTURE, "--qmin-range", "2..2", "--qmax-range", "3..3",
            "--method", "ga", "--seed", "1",
        )
        assert code == 0
        assert "203.000000" in out


class TestGen:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _ = run_cli(
                "gen", "--projects", "7", "--periods", "3", "--seed", "1", "--out", str(path)
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generated_file_is_valid_instance(self, tmp_path):
        path = tmp_path / "g.json"
        run_cli("gen", "--projects", "6", "--periods", "2", "--seed", "9", "--out", str(path))
        inst = load_instance(str(path))
        assert of.validate_instance(inst) == []

    def test_zero_density_zero_edges(self, tmp_path):
        path = tmp_path / "g.json"
        run_cli(
            "gen", "--projects", "5", "--periods", "2", "--edge-density", "0",
            "--seed", "2", "--out", str(path),
        )
        assert load_instance(str(path)).edges == ()

    def test_bad_params_exit_one(self, tmp_path):
        code, _ = run_cli(
            "gen", "--projects", "0", "--periods", "2", "--out", str(tmp_path / "x.json")
        )
        assert code == 1


def test_solve_value_never_exceeds_exact(tmp_path):
    for seed in (3, 4):
        inst = of.generate_instance(6, 2, seed=seed)
        path = tmp_path / f"i{seed}.json"
        save_instance(inst, str(path))
        _, out_ga = run_cli("solve", str(path), "--seed", "0")
        _, out_exact = run_cli("exact", str(path))
        ga_doc, exact_doc = json.loads(out_ga), json.loads(out_exact)
        if ga_doc["feasible"] and exact_doc["feasible"]:
            assert ga_doc["value"] <= exact_doc["value"] + 1e-9
