import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import optfolio as of
from optfolio import cli
from optfolio.cli import main
from optfolio.oracle import VALUE_RTOL
from optfolio.serialization import (
    InstanceFormatError,
    breakdown_to_dict,
    dump_json,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    oracle_result_to_dict,
    parse_schedule_arg,
    save_instance,
    solve_result_to_dict,
)

FIXTURE = of.paper_fixture_path()


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def _one_project(**project) -> dict:
    return {
        "n_p": 1,
        "N": 2,
        "budgets": [100, 100],
        "q_min": [0, 0],
        "q_max": [1, 1],
        "projects": [{"id": 1, **project}],
    }


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
        assert instance_from_dict(instance_to_dict(inst)) == inst

    def test_missing_keys_reported(self):
        with pytest.raises(ValueError, match="budgets"):
            instance_from_dict({"n_p": 1, "N": 1})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "instance document must be a JSON object"),
            (_one_project(return_pv=[1.0, 1.0]), "project 1: needs cost_pv or raw_cost"),
            (
                _one_project(cost_pv=[1.0, 1.0], return_stream=[]),
                "project 1: return_stream must be non-empty",
            ),
            (_one_project(cost_pv=[1.0, 1.0]), "project 1: needs return_pv or return_stream"),
            (
                _one_project(cost_pv=[1.0, True], return_pv=[1.0, 1.0]),
                "project 1: cost_pv entries must be numbers, got True",
            ),
            (
                dict(
                    _one_project(cost_pv=[1.0, 1.0], return_pv=[1.0, 1.0]),
                    edges=[[1, 1, 1.0, 0.0]],
                ),
                "edge must be an object, got [1, 1, 1.0, 0.0]",
            ),
            (
                dict(
                    _one_project(cost_pv=[1.0, 1.0], return_pv=[1.0, 1.0]),
                    edges=[{"predecessor": 1, "dependent": 1, "level": 1.0}],
                ),
                "edge: missing required key 'option_value'",
            ),
        ],
        ids=[
            "not-an-object", "no-cost", "empty-stream", "no-return", "last-cost-boolean",
            "edge-array", "edge-no-option-value",
        ],
    )
    def test_refused_documents(self, doc, message):
        with pytest.raises(InstanceFormatError) as info:
            instance_from_dict(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("key", ["level", "option_value"])
    def test_integer_edge_numbers_load_as_floats(self, paper_instance, key):
        doc = instance_to_dict(paper_instance)
        integral = [e for e in doc["edges"] if float(e[key]).is_integer()]
        assert integral
        for edge in integral:
            edge[key] = int(edge[key])
        inst = instance_from_dict(doc)
        assert inst == paper_instance
        assert all(type(getattr(e, key)) is float for e in inst.edges)

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
        with pytest.raises(ValueError, match="row 1 has 2 set bits"):
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

    @pytest.mark.parametrize("command", ["solve", "exact"])
    def test_excess_of_one_ulp_is_not_feasible(self, tmp_path, command):
        # funding in period 1 overspends by one ulp; that excess over a
        # budget total of 1e308 rounds to 0.0, yet [1] is still infeasible
        doc = {
            "n_p": 1,
            "N": 3,
            "budgets": [1.0, 1.0, 1e308],
            "q_min": [0, 0, 0],
            "q_max": [1, 0, 1],
            "projects": [{"id": 1, "cost_pv": [1.0000000000000002, 1.0, 1.0], "return_pv": [10, 0, 0]}],
        }
        path = tmp_path / "underflow.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(command, str(path))
        assert code == 0
        result = json.loads(out)
        assert (result["period_of"], result["value"], result["feasible"]) == ([3], -1.0, True)

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_stagnation_below_one_exits_one(self, limit):
        code, out = run_cli("solve", FIXTURE, "--seed", "1", "--stagnation", limit)
        assert code == 1
        assert out == ""


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
        assert re.fullmatch(r"error: search depth n_p = 1500 exceeds the recursion limit \d+\n", err)

    def test_discounted_tables_in_the_millions_are_solved(self, tmp_path, paper_instance):
        # every amount x 1e6 at rate 0.07, each cost table given as
        # raw_cost * 1.07 ** -(k - 1): two ulps off raw_cost / 1.07 ** (k - 1)
        # at 1.3e7, more than an absolute 1e-9
        doc = instance_to_dict(paper_instance)
        doc["rate"] = 0.07
        doc["budgets"] = [b * 1e6 for b in doc["budgets"]]
        for pd in doc["projects"]:
            raw = pd["cost_pv"][0] * 1e6
            pd["raw_cost"] = raw
            pd["cost_pv"] = [raw * 1.07 ** -(k - 1) for k in range(1, doc["N"] + 1)]
            pd["return_pv"] = [r * 1e6 for r in pd["return_pv"]]
        for e in doc["edges"]:
            e["option_value"] *= 1e6
        path = tmp_path / "millions.json"
        path.write_text(json.dumps(doc))
        assert of.validate_instance(load_instance(str(path))) == []
        code, out = run_cli("exact", str(path))
        assert code == 0
        assert json.loads(out)["feasible_count"] > 0

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


def _put(*path, value):
    """A corruption that sets the entry at path (keys and indices) to value."""

    def corrupt(doc):
        *parents, key = path
        for step in parents:
            doc = doc[step]
        doc[key] = value

    return corrupt


# (field the refusal names, corruption): values of the wrong JSON type
_WRONG_TYPES = {
    "projects-entry-number": ("project", _put("projects", 0, value=5)),
    "projects-entry-string": ("project", _put("projects", 0, value="id")),
    "edges-entry-number": ("edge", _put("edges", 0, value=5)),
    "edges-entry-array": ("edge", _put("edges", 0, value=[1, 2, 1.0, 10.0])),
    "edges-null": ("edges", _put("edges", value=None)),
    "budgets-number": ("budgets", _put("budgets", value=5)),
    "budgets-entry-array": ("budgets", _put("budgets", 0, value=[1])),
    "budgets-strings": ("budgets", _put("budgets", value=["90", "125", "175"])),
    "q_min-number": ("q_min", _put("q_min", value=2)),
    "rate-string": ("rate", _put("rate", value="0")),
    "cost_pv-number": ("cost_pv", _put("projects", 0, "cost_pv", value=5)),
    "cost_pv-booleans": ("cost_pv", _put("projects", 0, "cost_pv", value=[True, True, True])),
    "cost_pv-last-boolean": ("cost_pv", _put("projects", 0, "cost_pv", 2, value=True)),
    "return_pv-string": ("return_pv", _put("projects", 0, "return_pv", 0, value="13")),
    "raw_cost-boolean": ("raw_cost", _put("projects", 0, "raw_cost", value=True)),
    "return_stream-string": ("return_stream", _put("projects", 0, "return_stream", value=["13"])),
    "level-string": ("level", _put("edges", 0, "level", value="1.0")),
    "option_value-boolean": ("option_value", _put("edges", 0, "option_value", value=True)),
    "label-null": ("label", _put("projects", 0, "label", value=None)),
    "label-array": ("label", _put("projects", 0, "label", value=[1, 2])),
    "label-number": ("label", _put("projects", 0, "label", value=7)),
    # integers that JSON allows and no float holds
    "budgets-huge-integer": ("budgets", _put("budgets", 0, value=10**400)),
    "rate-huge-integer": ("rate", _put("rate", value=10**400)),
    "option_value-huge-integer": ("option_value", _put("edges", 0, "option_value", value=10**400)),
}


_FIXTURE_TEXT = Path(FIXTURE).read_text(encoding="utf-8")
# fixture bytes the JSON decoder refuses with a plain ValueError
_UNDECODABLE = {
    # an integer literal past int_max_str_digits (4,300 by default)
    "long-integer": _FIXTURE_TEXT.replace('"budgets": [90', '"budgets": [' + "9" * 5000, 1).encode(),
    # a Latin-1 byte, which is not UTF-8
    "latin-1": _FIXTURE_TEXT.replace('"P1"', '"P1\u00e9"', 1).encode("latin-1"),
}


class TestRefusedInput:
    """Non-finite numbers, non-integer ids, non-integer counts and values of
    the wrong JSON type exit 1 instead of being solved."""

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
            *(
                pytest.param("exact", corrupt, id=f"exact-{name}")
                for name, (_field, corrupt) in _WRONG_TYPES.items()
            ),
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

    @pytest.mark.parametrize("field, corrupt", _WRONG_TYPES.values(), ids=_WRONG_TYPES.keys())
    def test_loader_names_the_field(self, paper_instance, field, corrupt):
        doc = instance_to_dict(paper_instance)
        corrupt(doc)
        with pytest.raises(InstanceFormatError, match=field):
            instance_from_dict(doc)

    def test_period_count_beyond_budgets_refused_before_tables(self, tmp_path, capsys):
        # a few bytes naming N = 1e9: deriving the N-long PV tables first
        # would take minutes and gigabytes
        doc = {
            "n_p": 1, "N": 10**9, "budgets": [10.0], "q_min": [0], "q_max": [1],
            "projects": [{"id": 1, "raw_cost": 1.0, "return_stream": [2.0]}],
        }
        path = tmp_path / "huge_n.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli("evaluate", str(path), "1")
        assert code == 1
        assert out == ""
        assert "budgets has 1 entries, expected N (1000000000)" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("exact",), ("evaluate", "1")])
    def test_deeply_nested_json_exits_one(self, tmp_path, capsys, argv):
        # the decoder recurses per level and raises RecursionError
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        command, *rest = argv
        code, out = run_cli(command, str(path), *rest)
        assert code == 1
        assert out == ""
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", _UNDECODABLE.values(), ids=_UNDECODABLE.keys())
    def test_undecodable_file_exits_one_naming_it(self, tmp_path, capsys, text):
        path = tmp_path / "undecodable.json"
        path.write_bytes(text)
        code, out = run_cli("exact", str(path))
        assert (code, out) == (1, "")
        assert f"error: {path}: malformed JSON: " in capsys.readouterr().err

    def test_long_integer_message_gives_no_interpreter_advice(self, tmp_path, capsys):
        path = tmp_path / "undecodable.json"
        path.write_bytes(_UNDECODABLE["long-integer"])
        assert run_cli("exact", str(path)) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed JSON: ")
        assert err.endswith("value has 5000 digits\n")

    @pytest.mark.parametrize("text", _UNDECODABLE.values(), ids=_UNDECODABLE.keys())
    def test_undecodable_file_is_a_format_error(self, tmp_path, text):
        path = tmp_path / "undecodable.json"
        path.write_bytes(text)
        with pytest.raises(InstanceFormatError, match="malformed JSON"):
            load_instance(str(path))

    @pytest.mark.parametrize("keep_cost_pv", [True, False], ids=["validator", "loader"])
    def test_rate_beyond_float_discounting_exits_one(
        self, tmp_path, capsys, paper_instance, keep_cost_pv
    ):
        # (1 + 1e300)^2 overflows: the validator discounts raw_cost to check
        # a given cost_pv, and the loader discounts it to derive a missing one
        doc = instance_to_dict(paper_instance)
        doc["rate"] = 1e300
        doc["projects"][0]["raw_cost"] = 15.0
        if not keep_cost_pv:
            del doc["projects"][0]["cost_pv"]
        path = tmp_path / "huge_rate.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli("exact", str(path))
        assert (code, out) == (1, "")
        assert "project 1: raw_cost cannot be discounted at rate 1e+300" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, table, value",
        [("raw_cost", "cost_pv", 15.0), ("return_stream", "return_pv", [13.0])],
        ids=["raw_cost", "return_stream"],
    )
    def test_negative_rate_is_refused_naming_the_field(
        self, tmp_path, capsys, paper_instance, field, table, value
    ):
        # the loader derives project 1's table by discounting `field`
        doc = instance_to_dict(paper_instance)
        doc["rate"] = -0.1
        doc["projects"][0][field] = value
        del doc["projects"][0][table]
        with pytest.raises(InstanceFormatError) as info:
            instance_from_dict(doc)
        message = f"project 1: {field} cannot be discounted: rate must be >= 0, got -0.1"
        assert str(info.value) == message
        path = tmp_path / "negative_rate.json"
        path.write_text(json.dumps(doc))
        assert run_cli("exact", str(path)) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [("solve", "--seed", "1"), ("exact",)])
    def test_budgets_summing_past_the_float_range_exit_one(
        self, tmp_path, capsys, paper_instance, argv
    ):
        # each budget is finite; divided by their infinite sum, period 3's
        # excess of 10 scored 0, and `solve` printed that schedule as its best
        doc = instance_to_dict(paper_instance)
        doc["budgets"] = [1e308, 1e308, 100]
        path = tmp_path / "budgets.json"
        path.write_text(json.dumps(doc))
        command, *flags = argv
        assert run_cli(command, str(path), *flags) == (1, "")
        assert "budgets must have a finite sum, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("exact",), ("evaluate", "1,2")])
    def test_costs_at_the_top_of_the_float_range_exit_one(self, tmp_path, capsys, argv):
        # `evaluate` called schedule 1,2 feasible with total -Infinity, and
        # `exact` found no feasible schedule
        doc = {
            "n_p": 2, "N": 2, "budgets": [1e308, 1e308], "q_min": [0, 0], "q_max": [1, 1],
            "projects": [{"id": i, "cost_pv": [1e308, 1e308], "return_pv": [0, 0]} for i in (1, 2)],
            "edges": [],
        }
        path = tmp_path / "costs.json"
        path.write_text(json.dumps(doc))
        command, *rest = argv
        assert run_cli(command, str(path), *rest) == (1, "")
        assert "budgets must have a finite sum, got inf" in capsys.readouterr().err

    def test_project_count_beyond_project_list_refused_without_id_range(self, tmp_path, capsys):
        # a few bytes naming n_p = 1e12 with no projects: listing ids 1..n_p
        # to compare them would need terabytes
        doc = {"n_p": 10**12, "N": 1, "budgets": [10.0], "q_min": [0], "q_max": [1], "projects": []}
        path = tmp_path / "huge_np.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli("exact", str(path))
        assert code == 1
        assert out == ""
        err = capsys.readouterr().err
        assert "projects list has 0 entries, expected n_p (1000000000000)" in err
        assert "project ids must be exactly 1..1000000000000, got []" in err


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


def _soft_generated():
    inst = of.generate_instance(7, 3, edge_density=0.5, seed=4)
    return replace(inst, total_dependency_mode="soft")


# funds dependents ahead of predecessors on some edges of both instances, so
# partial factors and option accruals both vary
_SCHEDULE = of.Schedule(period_of=(2, 3, 1, 2, 1, 3, 2))
_COMPILE_ONCE_CALLS = {
    "evaluate": lambda src: of.evaluate(_SCHEDULE, src),
    "run_ga": lambda src: of.run_ga(src, of.GaConfig(seed=3, max_generations=20)),
    "enumerate_optimal": of.enumerate_optimal,
}


@pytest.mark.parametrize("make", [of.load_paper_fixture, _soft_generated], ids=["paper", "soft"])
@pytest.mark.parametrize("name", sorted(_COMPILE_ONCE_CALLS))
def test_tables_pass_through_without_validation(monkeypatch, make, name):
    call = _COMPILE_ONCE_CALLS[name]
    inst = make()
    tables = of.build_tables(inst)
    assert of.build_tables(tables) is tables
    want = call(inst)
    validated = _count_calls(monkeypatch, "optfolio.model", "validate_instance")
    got = call(tables)
    assert validated == []
    assert got == want
    assert repr(got) == repr(want)
    if name == "evaluate":
        # a breakdown from either path ranks the same as one from the other
        def key(s, b):
            return of.candidate_key(s.period_of, (b.violation_score, b.total_value))

        other = of.Schedule(period_of=(1,) * 7)
        assert key(other, of.evaluate(other, inst)) == key(other, of.evaluate(other, tables))
        assert key(_SCHEDULE, want) == key(_SCHEDULE, got)


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


def test_instance_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    # JSON text is UTF-8 whatever the locale; C-locale coercion and UTF-8
    # mode are off, so the locale's encoding is ASCII
    doc = json.loads(Path(FIXTURE).read_text(encoding="utf-8"))
    doc["projects"][0]["label"] = "Caf\u00e9"
    path = tmp_path / "utf8.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(of.__file__))
    env = dict(
        os.environ, PYTHONPATH=src, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C", LANG="C"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "optfolio.cli", "exact", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli("exact", FIXTURE)[1]


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

    def test_file_named_like_a_comma_schedule_is_not_read(self, tmp_path, monkeypatch):
        # only an argument that is not digits, commas and whitespace is a path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "1,2,1,2,2,3,3").write_text("2,2,2,2,2,2,2")
        code, out = run_cli("evaluate", FIXTURE, "1,2,1,2,2,3,3")
        assert code == 0
        doc = json.loads(out)
        assert doc["total_value"] == 203
        assert doc["feasible"] is True

    def test_infeasible_schedule_exits_zero(self):
        # the breakdown reports infeasibility; evaluate exits 0 whenever it prints one
        code, out = run_cli("evaluate", FIXTURE, "1,1,1,1,1,1,1")
        assert code == 0
        assert json.loads(out)["feasible"] is False

    def test_length_mismatch_exits_one(self):
        code, _ = run_cli("evaluate", FIXTURE, "1,2")
        assert code == 1

    @pytest.mark.parametrize("command", ["solve", "exact"])
    def test_empty_schedule_of_an_empty_instance(self, tmp_path, command):
        # n_p = 0 is valid; the empty schedule solve and exact print reads back
        doc = {"n_p": 0, "N": 2, "budgets": [1, 1], "q_min": [0, 0], "q_max": [0, 0], "projects": []}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(command, str(path))
        assert code == 0
        periods = json.loads(out)["period_of"]
        assert periods == []
        code, out = run_cli("evaluate", str(path), ",".join(map(str, periods)))
        assert code == 0
        assert json.loads(out)["feasible"] is True

    def test_invalid_bit_rows_rejected_with_report(self, tmp_path, capsys):
        rows = tmp_path / "rows.txt"
        rows.write_text("110\n010\n100\n010\n010\n001\n001\n")
        code, out = run_cli("evaluate", FIXTURE, str(rows))
        assert code == 1
        assert out == ""
        assert "row 1 has 2 set bits" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("100\n000\n100\n010\n010\n001\n001", "row 2 has 0 set bits"),
            ("100\n01\n100\n010\n010\n001\n001", "equal length"),
            ("100\n0x0\n100\n010\n010\n001\n001", "non-binary characters: '0x0'"),
            ("100\n010\n100\n010\n010\n001", "bit rows are 6x3, expected 7x3"),
            ("10\n01\n10\n01\n01\n10\n10", "bit rows are 7x2, expected 7x3"),
        ],
        ids=["none-set", "unequal-width", "non-binary", "short", "narrow"],
    )
    def test_malformed_bit_rows_print_nothing(self, tmp_path, capsys, text, message):
        rows = tmp_path / "rows.txt"
        rows.write_text(text + "\n")
        code, out = run_cli("evaluate", FIXTURE, str(rows))
        assert code == 1
        assert out == ""
        assert message in capsys.readouterr().err


def test_printed_chromosome_evaluates_to_the_printed_breakdown(tmp_path):
    # the bit rows a result prints read back, through evaluate, as the same schedule
    paths = [FIXTURE]
    for i in range(24):  # desk scale: n_p 5..8, N 2..3
        paths.append(str(tmp_path / f"desk-{i:02d}.json"))
        save_instance(of.generate_instance(5 + i % 4, 2 + (i // 4) % 2, seed=i), paths[-1])
    rows = tmp_path / "rows.txt"
    checked = []
    for path in paths:
        for argv in (("solve", path, "--seed", "1"), ("exact", path)):
            _, out = run_cli(*argv)
            doc = json.loads(out)
            if doc["chromosome"] is None:  # the oracle proved no schedule feasible
                continue
            rows.write_text("\n".join(doc["chromosome"]) + "\n")
            code, evaluated = run_cli("evaluate", path, str(rows))
            assert code == 0
            assert evaluated == json.dumps(doc["breakdown"], indent=2) + "\n", argv
            checked.append(argv[0])
    assert checked.count("solve") == 25 and checked.count("exact") == 24


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
        code, out = run_cli(
            "sweep", FIXTURE, "--qmin-range", "1..2", "--qmax-range", "3..4", "--cap", "100"
        )
        assert code == 3
        # no header without its rows
        assert out == ""

    @pytest.mark.parametrize(
        "spec, message",
        [("x..2", "--qmin-range: expected a..b or a single integer, got 'x..2'"),
         ("3..1", "--qmin-range: empty range '3..1'")],
        ids=["malformed", "empty"],
    )
    def test_bad_range_exits_one(self, capsys, spec, message):
        code, out = run_cli("sweep", FIXTURE, "--qmin-range", spec, "--qmax-range", "3..3")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("method", ["exact", "ga"])
    def test_infeasible_cell(self, tmp_path, paper_instance, method):
        # every project costs more than a budget of 1 in any period
        path = tmp_path / "poor.json"
        save_instance(replace(paper_instance, budgets=(1.0, 1.0, 1.0)), str(path))
        ga_flags = ("--generations", "3") if method == "ga" else ()
        code, out = run_cli(
            "sweep", str(path), "--qmin-range", "2..2", "--qmax-range", "3..3",
            "--method", method, *ga_flags,
        )
        assert code == 0
        assert out.splitlines()[1] == "2,3,infeasible,,"

    @pytest.mark.parametrize(
        "method, flags, message",
        [
            ("exact", ("--population", "1", "--restarts", "0"),
             "--method exact takes no GA flags, got --population, --restarts"),
            ("ga", ("--population", "1"), "population_size must be >= 2"),
        ],
        ids=["exact", "ga"],
    )
    def test_refused_ga_flags_print_nothing(self, capsys, method, flags, message):
        code, out = run_cli(
            "sweep", FIXTURE, "--qmin-range", "2..2", "--qmax-range", "3..3",
            "--method", method, *flags,
        )
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_ga_sweep_builds_one_config(self, monkeypatch):
        built = []

        class Counted(of.GaConfig):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(cli, "GaConfig", Counted)
        code, _ = run_cli(
            "sweep", FIXTURE, "--qmin-range", "1..2", "--qmax-range", "3..4",
            "--method", "ga", "--generations", "3",
        )
        assert code == 0
        assert len(built) == 1

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

    @pytest.mark.parametrize("n_p, n_periods", [(7, 3), (50, 5), (200, 6)])
    def test_file_is_the_json_text_of_the_instance(self, tmp_path, n_p, n_periods):
        path = tmp_path / "g.json"
        code, _ = run_cli(
            "gen", "--projects", str(n_p), "--periods", str(n_periods), "--seed", "1",
            "--out", str(path),
        )
        assert code == 0
        inst = of.generate_instance(n_p, n_periods, seed=1)
        assert path.read_text() == json.dumps(instance_to_dict(inst), indent=2) + "\n"

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

    # 1e308 is finite, but the budgets it gives overflow
    @pytest.mark.parametrize("tightness", ["nan", "inf", "1e308"])
    def test_non_finite_budgets_exit_one(self, tmp_path, tightness):
        path = tmp_path / "x.json"
        code, _ = run_cli(
            "gen", "--projects", "5", "--periods", "2", "--budget-tightness", tightness,
            "--out", str(path),
        )
        assert code == 1
        assert not path.exists()


class _Stop(Exception):
    pass


_EVERY_GA_FLAG = (
    "--seed", "5", "--population", "7", "--generations", "9", "--mutation-rate", "0.25",
    "--crossover-rate", "0.5", "--tournament", "4", "--elites", "3", "--restarts", "2",
    "--stagnation", "6",
)
_EVERY_GA_FIELD = of.GaConfig(
    seed=5, population_size=7, max_generations=9, mutation_rate=0.25, crossover_rate=0.5,
    tournament_size=4, elite_count=3, restarts=2, stagnation_limit=6,
)


@pytest.mark.parametrize(
    "command",
    [
        ("solve", FIXTURE),
        ("sweep", FIXTURE, "--qmin-range", "2..2", "--qmax-range", "3..3", "--method", "ga"),
    ],
    ids=["solve", "sweep"],
)
@pytest.mark.parametrize(
    "flags, cfg", [((), of.GaConfig()), (_EVERY_GA_FLAG, _EVERY_GA_FIELD)], ids=["unset", "every"]
)
def test_ga_flags_forward_to_gaconfig(monkeypatch, command, flags, cfg):
    # every field differs from its default, so each flag is seen to arrive
    assert all(getattr(_EVERY_GA_FIELD, f.name) != f.default for f in fields(of.GaConfig))
    built = []

    def record(inst, cfg):
        built.append(cfg)
        raise _Stop

    monkeypatch.setattr(cli, "run_ga", record)
    with pytest.raises(_Stop):
        main([*command, *flags], out=io.StringIO())
    assert built == [cfg]


@pytest.mark.parametrize(
    "flags, kwargs",
    [
        ((), {}),
        (
            (
                "--edge-density", "0.5", "--partial-fraction", "0.1",
                "--budget-tightness", "0.9", "--seed", "4",
            ),
            dict(edge_density=0.5, partial_fraction=0.1, budget_tightness=0.9, seed=4),
        ),
    ],
    ids=["unset", "every"],
)
def test_gen_flags_forward_to_generate_instance(tmp_path, flags, kwargs):
    code, _ = run_cli(
        "gen", "--projects", "9", "--periods", "3", *flags, "--out", str(tmp_path / "cli.json")
    )
    assert code == 0
    save_instance(of.generate_instance(9, 3, **kwargs), str(tmp_path / "lib.json"))
    assert (tmp_path / "cli.json").read_bytes() == (tmp_path / "lib.json").read_bytes()


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


HELP_TEXT = Path(__file__).with_name("cli_help.txt").read_text()


class TestSharedParser:
    """One parser serves every `main` call of a process."""

    def _help(self, monkeypatch, argv) -> str:
        monkeypatch.setenv("COLUMNS", "80")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as info:
            main([*argv, "--help"])
        assert info.value.code == 0
        return f"==> optfolio {' '.join([*argv, '--help'])} <==\n" + buf.getvalue()

    def test_help_bytes(self, monkeypatch):
        commands = ([], ["solve"], ["exact"], ["evaluate"], ["sweep"], ["gen"])
        # twice: help printed by a parser that has already parsed is the same
        for _ in range(2):
            assert "".join(self._help(monkeypatch, argv) for argv in commands) == HELP_TEXT

    def test_usage_error_leaves_the_parser_usable(self, capsys):
        _, want = run_cli("evaluate", FIXTURE, "1,2,1,2,2,3,3")
        assert main(["solve"]) == 1
        assert "the following arguments are required: instance" in capsys.readouterr().err
        assert run_cli("evaluate", FIXTURE, "1,2,1,2,2,3,3") == (0, want)
        assert json.loads(want)["total_value"] == 203

    @pytest.mark.parametrize(
        "argv",
        [[], ["solve"], ["solve", FIXTURE, "--seed", "x"], ["frobnicate"], ["exact", FIXTURE, "--nope"]],
    )
    def test_usage_errors_exit_one(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("usage: optfolio")

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out == f"optfolio {of.__version__}\n"

    def test_built_once_across_calls(self):
        cli.build_parser.cache_clear()
        for _ in range(3):
            assert run_cli("exact", FIXTURE)[0] == 0
        assert run_cli("evaluate", FIXTURE, "1,1,1,1,1,1,1")[0] == 0
        assert cli.build_parser.cache_info().misses == 1
        assert cli.build_parser() is cli.build_parser()


def _json_reference(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)


class TestDumpJson:
    """dump_json writes exactly the bytes of json.dumps(doc, indent=2) + "\\n"."""

    @pytest.mark.parametrize(
        "doc",
        [
            {"nan": math.nan, "inf": math.inf, "-inf": -math.inf},
            [math.nan, math.inf, -math.inf, 1.0],
            {"overflow": sum([1e308, 1e308]), "entries": [1e308, 1e308, sum([1e308, 1e308])]},
            {"zero": -0.0, "subnormal": 1e-320, "entries": [-0.0, 1e-320, 5e-324]},
            # an option_accrued with no option edge into play is the int 0
            {"option_accrued": 0, "mixed": [0, 0.0, -1, 2.5, 10**30]},
            {"list": [], "dict": {}, "nested": [[], {}, [[]], {"x": {}}]},
            {"label": "Projekt Ü ☃ 😀", "escapes": "quote \" back \\ tab \t nl \n nul \x00"},
            {"é": [" ", "\x7f"], "": None, "t": True, "f": False},
            [],
            {},
            "just a string",
            3.5,
            ({"tuple": (1, "a")}, (math.nan,)),
            # keys json converts, and a float subclass such as numpy.float64
            {1: "int key", None: [2.5]},
            {"outer": {1.5: math.inf, True: []}},
            {"ratio": type("Ratio", (float,), {})(0.5), "count": [True, 3]},
        ],
        ids=[
            "non-finite", "non-finite-list", "overflow", "signed-zero-subnormal", "int-zero",
            "empty", "non-ascii", "keys", "empty-list", "empty-dict", "string", "float", "tuples",
            "int-and-none-keys", "float-and-bool-keys", "float-subclass",
        ],
    )
    def test_edge_cases(self, doc):
        assert dump_json(doc) == _json_reference(doc)

    def test_refuses_what_json_refuses(self):
        with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
            dump_json({"x": [object()]})

    @given(doc=_JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_any_json_value(self, doc):
        assert dump_json(doc) == _json_reference(doc)

    @given(
        n_p=st.integers(1, 7),
        n_periods=st.integers(1, 3),
        edge_density=st.sampled_from([0.0, 0.3, 0.8]),
        mode=st.sampled_from(["hard", "soft"]),
        gen_seed=st.integers(0, 10**6),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_result_documents(self, n_p, n_periods, edge_density, mode, gen_seed, rng):
        inst = replace(
            of.generate_instance(n_p, n_periods, edge_density=edge_density, seed=gen_seed),
            total_dependency_mode=mode,
        )
        starved = replace(inst, budgets=(1e-9,) * n_periods)
        schedule = of.Schedule(period_of=tuple(rng.randint(1, n_periods) for _ in range(n_p)))
        ga = of.GaConfig(seed=rng.randint(0, 100), population_size=10, max_generations=5)
        docs = [
            solve_result_to_dict(of.run_ga(inst, ga)),
            solve_result_to_dict(of.run_ga(starved, ga)),
            oracle_result_to_dict(of.enumerate_optimal(inst)),
            oracle_result_to_dict(of.enumerate_optimal(starved)),
            breakdown_to_dict(of.evaluate(schedule, inst)),
        ]
        assert docs[3]["feasible"] is False and docs[3]["value"] is None
        for doc in docs:
            assert dump_json(doc) == _json_reference(doc)
