"""Tests of the benchmark itself, at minimal input sizes.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
ALL = sorted(workloads.BUILDERS)

# end-to-end metrics each workload reports besides the gated ones
NAMED = {
    "desk-certify": {"solve_ms_p50", "exact_ms_p50", "ga_gap_pct", "ga_exact_frac", "ga_feasible_frac"},
    "large-solve": {"solve_ms_p50", "ga_feasible_frac"},
    "exact-search": {"exact_ms_p50"},
    "whatif-evaluate": {"evaluate_ms_p50"},
}


def test_spec_matches_the_code():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.GATED
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)


@pytest.mark.parametrize("workload", ALL)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result, report = run.run_workload(workload, seed=1, seconds=0, trace=False, small=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        k: unit for k, (unit, _better) in run.GATED.items()
    }
    named = report["end_to_end"]
    assert set(run.GATED) | {"failed_frac", "peak_rss_mb"} | NAMED[workload] <= set(named)
    for metric in named.values():
        assert metric["unit"] and metric["better"] in ("lower", "higher")
        assert isinstance(metric["value"], float)
    assert named["failed_frac"]["value"] == 0.0


@pytest.mark.parametrize("workload", ALL)
def test_traced_smoke_run_reports_every_per_layer_metric(workload):
    result, report = run.run_workload(workload, seed=1, seconds=0, trace=True, small=True)
    assert result["correct"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert report["absent"] == []
    assert report["stress"]["value"] is not None


@pytest.mark.parametrize("workload", ALL)
def test_a_printed_value_off_by_one_counts_as_failed(workload, monkeypatch):
    real = run.run_pass

    def corrupting(cli, calls, workdir):
        outcomes = real(cli, calls, workdir)
        doc = json.loads(outcomes[0].stdout)
        doc["total_value" if calls[0].kind == "evaluate" else "value"] += 1
        outcomes[0].stdout = json.dumps(doc)
        return outcomes

    monkeypatch.setattr(run, "run_pass", corrupting)
    result, report = run.run_workload(workload, seed=1, seconds=0, trace=False, small=True)
    assert not result["correct"] and result["failed"] == 1
    assert report["end_to_end"]["failed_frac"]["value"] == 1 / result["attempted"]
    assert "printed value" in report["problems"][0]


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([1.0] * 19) is None
    pct, value = run.tail([float(i) for i in range(100)])
    assert (pct, value) == (90.0, 89.0)


def test_missing_trace_target_is_reported_absent(monkeypatch):
    opt = run.import_optfolio()
    ga = sys.modules["optfolio.ga"]
    monkeypatch.delattr(ga, "tournament_select")
    original_score = ga.score
    with tracing.Tracer() as tr:
        assert ga.score is not original_score
    assert ga.score is original_score and opt.evaluate is sys.modules["optfolio.valuation"].evaluate
    assert tr.absent() == ["ga.select_ms"]
    assert "ga.select_ms" not in tr.pass_metrics()


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
