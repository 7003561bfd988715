"""`scripts/run_certification.py` exits 1 on every kind of wrong GA answer.

Each test replaces `optfolio.run_ga` (and, for a zero optimum,
`enumerate_optimal`) with a fake that answers relative to the true optimum,
then runs the script on its first two seeds.
"""

import runpy
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import optfolio as of

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_certification.py"


def _result(value, feasible=True):
    """The fields of a solver result the script reads."""
    return SimpleNamespace(feasible=feasible, best_breakdown=SimpleNamespace(total_value=value, feasible=feasible))


def _certify(monkeypatch, capsys):
    """Run the script on seeds 1 and 2; its exit code and seed lines."""
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--seeds", "2"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    return exit_.value.code, capsys.readouterr().out.splitlines()[:2]


def _ga_off_the_optimum(monkeypatch, shift, feasible=True):
    def run_ga(tables, cfg):
        return _result(of.enumerate_optimal(tables).best_breakdown.total_value + shift, feasible)

    monkeypatch.setattr(of, "run_ga", run_ga)


def test_near_answers_pass(monkeypatch, capsys):
    # the optima of seeds 1 and 2 are about 553 and 788, so 5.0 below is near
    _ga_off_the_optimum(monkeypatch, -5.0)
    code, lines = _certify(monkeypatch, capsys)
    assert code == 0
    assert all(line.endswith(("within 2% (gap 0.905%)", "within 2% (gap 0.634%)")) for line in lines)


def test_value_above_the_optimum_fails(monkeypatch, capsys):
    _ga_off_the_optimum(monkeypatch, 1.0)
    code, lines = _certify(monkeypatch, capsys)
    assert code == 1
    assert all(line.endswith("GA ABOVE OPTIMUM") for line in lines)


def test_infeasible_best_at_the_optimum_value_fails(monkeypatch, capsys):
    _ga_off_the_optimum(monkeypatch, 0.0, feasible=False)
    code, lines = _certify(monkeypatch, capsys)
    assert code == 1
    assert all(line.endswith("GA INFEASIBLE") for line in lines)


def test_any_shortfall_from_a_zero_optimum_fails(monkeypatch, capsys):
    monkeypatch.setattr(of, "enumerate_optimal", lambda tables: _result(0.0))
    monkeypatch.setattr(of, "run_ga", lambda tables, cfg: _result(-0.5))
    code, lines = _certify(monkeypatch, capsys)
    assert code == 1
    assert all(line.endswith("MISS (optimum 0)") for line in lines)
