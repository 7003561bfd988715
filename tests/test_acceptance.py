"""Acceptance suite: one test per release criterion, printing PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
summary.
"""

import io
import json
import random
import time

import pytest

import optfolio as of
from optfolio.cli import main
from optfolio.ga import repair
from optfolio.model import Chromosome
from optfolio.serialization import save_instance


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def corpus():
    """50 deterministic instances: seeds 1..50, n_p in 5..8, N in 2..3."""
    out = []
    for seed in range(1, 51):
        out.append(
            (seed, of.generate_instance(5 + seed % 4, 2 + seed % 2, seed=seed))
        )
    return out


@pytest.fixture(scope="module")
def certification_corpus():
    return corpus()


def test_criterion_1_oracle_certification(certification_corpus):
    """GA with defaults and restarts=5 attains the exact optimum on >= 90%
    of 50 generated instances, within 2% on the rest, in under 60 s."""
    start = time.monotonic()
    exact_hits = 0
    near_hits = 0
    for seed, inst in certification_corpus:
        oracle = of.enumerate_optimal(inst)
        ga = of.run_ga(inst, of.GaConfig(seed=seed, restarts=5))
        if not oracle.feasible:
            # nothing to attain; GA must agree that no feasible schedule exists
            exact_hits += not ga.best_breakdown.feasible
            continue
        assert ga.best_breakdown.feasible, f"seed {seed}: GA missed a feasible schedule"
        gv = ga.best_breakdown.total_value
        ov = oracle.best_breakdown.total_value
        assert gv <= ov + 1e-9, f"seed {seed}: GA value {gv} exceeds oracle {ov}"
        if abs(gv - ov) <= 1e-9:
            exact_hits += 1
        elif abs(gv - ov) <= 0.02 * abs(ov):
            near_hits += 1
        else:
            _report("criterion 1 (oracle certification)", False,
                    f"seed {seed}: GA {gv} vs oracle {ov} is off by more than 2%")
    elapsed = time.monotonic() - start
    ok = exact_hits >= 45 and exact_hits + near_hits == 50 and elapsed < 60
    _report(
        "criterion 1 (oracle certification)",
        ok,
        f"exact on {exact_hits}/50, within 2% on {near_hits}, {elapsed:.1f}s",
    )


def test_criterion_2_case_study_reproduction(paper_instance):
    """Exact optimum reproduces the published funding split and period
    costs; GA matches the oracle value for every seed 1..10. The reference
    optimum value 203 is a pinned regression value (the published headline
    portfolio value is not derivable from the published input tables)."""
    res = of.enumerate_optimal(paper_instance)
    ok = (
        res.best_schedule.period_of == (1, 2, 1, 2, 2, 3, 3)
        and res.best_breakdown.total_cost_per_period == (85, 105, 175)
        and paper_instance.budgets == (90, 125, 175)
        and res.best_breakdown.total_value == 203
    )
    ga_values = [
        of.run_ga(paper_instance, of.GaConfig(seed=seed)).best_breakdown.total_value
        for seed in range(1, 11)
    ]
    ok = ok and all(v == res.best_breakdown.total_value for v in ga_values)
    _report(
        "criterion 2 (case-study reproduction)",
        ok,
        f"oracle {res.best_schedule.period_of} value {res.best_breakdown.total_value}, "
        f"GA seeds 1..10 values {sorted(set(ga_values))}",
    )


def _incremental_delta(inst, per_before, moved, new_period):
    """Independent prediction of the value change from moving one project.

    Sums the option-value flips on edges incident to the moved project and
    the effective-return changes driven by partial factors and per-period
    PV tables; everything else is untouched by the move.
    """
    per_after = list(per_before)
    per_after[moved] = new_period

    def factor(i, per):
        f = 1.0
        for e in inst.edges:
            if e.dependent == i + 1:
                level = e.level
                if inst.total_dependency_mode == "hard" and level == 1.0:
                    continue
                if per[i] < per[e.predecessor - 1]:
                    f *= 1.0 - level
        return f

    delta = 0.0
    for e in inst.edges:
        pi, di = e.predecessor - 1, e.dependent - 1
        if moved not in (pi, di):
            continue
        before = per_before[pi] < per_before[di]
        after = per_after[pi] < per_after[di]
        delta += e.option_value * (int(after) - int(before))
    affected = {moved} | {e.dependent - 1 for e in inst.edges if e.predecessor - 1 == moved}
    for i in affected:
        p = inst.projects[i]
        before = p.return_pv[per_before[i] - 1] * factor(i, per_before) - p.cost_pv[per_before[i] - 1]
        after = p.return_pv[per_after[i] - 1] * factor(i, per_after) - p.cost_pv[per_after[i] - 1]
        delta += after - before
    return delta


def test_criterion_3_strict_precedence_option_semantics(certification_corpus):
    """Moving a dependent from its predecessor's period to a strictly later
    one changes total value by exactly the edge's option value plus the
    partial-factor (and other incident-edge) delta, vs a from-scratch
    re-evaluation, at 1e-9."""
    rng = random.Random(2024)
    checked = 0
    worst = 0.0
    for seed, inst in certification_corpus:
        if not inst.edges or inst.n_periods < 2:
            continue
        for _ in range(1000):
            edge = rng.choice(inst.edges)
            pi, di = edge.predecessor - 1, edge.dependent - 1
            per = [rng.randrange(1, inst.n_periods + 1) for _ in range(inst.n_projects)]
            # start with predecessor and dependent funded together, with
            # room to move the dependent strictly later
            per[pi] = rng.randrange(1, inst.n_periods)
            per[di] = per[pi]
            later = rng.randrange(per[pi] + 1, inst.n_periods + 1)
            before = of.evaluate(of.Schedule(period_of=tuple(per)), inst).total_value
            moved = list(per)
            moved[di] = later
            after = of.evaluate(of.Schedule(period_of=tuple(moved)), inst).total_value
            expected = _incremental_delta(inst, per, di, later)
            err = abs((after - before) - expected)
            worst = max(worst, err)
            if err > 1e-9:
                _report("criterion 3 (strict-precedence options)", False,
                        f"seed {seed}: delta mismatch {err}")
            checked += 1
    _report(
        "criterion 3 (strict-precedence options)",
        checked > 0 and worst <= 1e-9,
        f"{checked} moves checked, worst error {worst:.2e}",
    )


def test_criterion_4_relaxation_monotonicity():
    """Sweeping q_max 3..7 at q_min=1 with the exact method yields a
    non-decreasing value column."""
    out = io.StringIO()
    code = main(
        ["sweep", of.paper_fixture_path(), "--qmin-range", "1..1",
         "--qmax-range", "3..7", "--method", "exact"],
        out=out,
    )
    rows = [line.split(",") for line in out.getvalue().strip().splitlines()[1:]]
    values = [float(r[3]) for r in rows if r[2] == "ok"]
    ok = code == 0 and len(values) == 5 and values == sorted(values)
    _report("criterion 4 (relaxation monotonicity)", ok, f"values {values}")


def test_criterion_5_determinism(tmp_path):
    """cmd_solve with a fixed seed is byte-identical across 4 runs,
    result and convergence trace alike."""
    outputs = []
    traces = []
    for i in range(4):
        trace = tmp_path / f"trace{i}.csv"
        out = io.StringIO()
        code = main(
            ["solve", of.paper_fixture_path(), "--seed", "42",
             "--trace-out", str(trace)],
            out=out,
        )
        assert code == 0
        outputs.append(out.getvalue().encode())
        traces.append(trace.read_bytes())
    ok = all(o == outputs[0] for o in outputs) and all(t == traces[0] for t in traces)
    _report("criterion 5 (determinism)", ok,
            f"{len(outputs)} runs byte-identical")


def test_criterion_6_encoding_round_trip():
    """10k random schedules survive encode/decode; 10k random bit matrices
    repair to valid schedules; the case-study chromosome decodes exactly."""
    rng = random.Random(99)
    for _ in range(10_000):
        n_p, n_periods = rng.randrange(1, 9), rng.randrange(1, 5)
        s = of.Schedule(period_of=tuple(rng.randrange(1, n_periods + 1) for _ in range(n_p)))
        if of.decode_chromosome(of.encode_schedule(s, n_periods)) != s:
            _report("criterion 6 (encoding round-trip)", False, f"round trip broke on {s}")
    for _ in range(10_000):
        n_p, n_periods = rng.randrange(1, 9), rng.randrange(1, 5)
        bits = tuple(tuple(rng.randrange(2) for _ in range(n_periods)) for _ in range(n_p))
        s = repair(Chromosome(bits=bits), rng)
        if len(s.period_of) != n_p or not all(1 <= k <= n_periods for k in s.period_of):
            _report("criterion 6 (encoding round-trip)", False, f"repair produced {s}")
    chrom = Chromosome.from_text("100\n010\n100\n010\n010\n001\n001")
    ok = of.decode_chromosome(chrom).period_of == (1, 2, 1, 2, 2, 3, 3)
    _report("criterion 6 (encoding round-trip)", ok,
            "10000 round trips, 10000 repairs, case-study chromosome exact")
