import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import optfolio as of
from optfolio.valuation import build_tables, option_term, partial_factor, score


def make_instance(costs, returns, edges, budgets, q_min, q_max, mode="hard"):
    n_p, n_periods = len(costs), len(budgets)
    projects = tuple(
        of.Project(id=i + 1, label=f"P{i + 1}", cost_pv=(costs[i],) * n_periods,
                   return_pv=(returns[i],) * n_periods)
        for i in range(n_p)
    )
    return of.Instance(
        n_projects=n_p,
        n_periods=n_periods,
        projects=projects,
        edges=tuple(of.DependencyEdge(*e) for e in edges),
        budgets=tuple(budgets),
        q_min=tuple(q_min),
        q_max=tuple(q_max),
        total_dependency_mode=mode,
    )


def random_schedule(rng, n_p, n_periods):
    return of.Schedule(period_of=tuple(rng.randrange(1, n_periods + 1) for _ in range(n_p)))


@pytest.mark.parametrize(
    "entry",
    [
        lambda inst: of.evaluate(of.Schedule(period_of=(1, 2, 1, 2, 2, 3, 3)), inst),
        lambda inst: of.run_ga(inst, of.GaConfig(seed=0)),
        of.enumerate_optimal,
    ],
    ids=["evaluate", "run_ga", "enumerate_optimal"],
)
def test_every_entry_point_refuses_an_invalid_instance(paper_instance, entry):
    # sum of q_min (9) > n_p (7)
    bad = replace(paper_instance, q_min=(3, 3, 3))
    with pytest.raises(ValueError, match="invalid instance"):
        entry(bad)


class TestPartialBenefitFactor:
    def test_same_period_keeps_full_benefit(self, paper_instance):
        s = of.Schedule(period_of=(1, 2, 1, 2, 2, 3, 3))
        assert of.evaluate(s, paper_instance).partial_factors[3 - 1] == 1.0

    def test_dependent_before_predecessor_reduces(self, paper_instance):
        s = of.Schedule(period_of=(2, 2, 1, 3, 2, 3, 3))
        assert of.evaluate(s, paper_instance).partial_factors[3 - 1] == 0.75

    def test_two_unmet_partials_compose_multiplicatively(self):
        inst = make_instance(
            costs=[10, 10, 10],
            returns=[20, 20, 20],
            edges=[(1, 3, 0.25, 0), (2, 3, 0.5, 0)],
            budgets=[1000, 1000],
            q_min=[0, 0],
            q_max=[3, 3],
        )
        s = of.Schedule(period_of=(2, 2, 1))
        assert math.isclose(of.evaluate(s, inst).partial_factors[3 - 1], 0.375, abs_tol=1e-12)

    def test_no_incoming_partials_gives_one(self, paper_instance):
        s = of.Schedule(period_of=(3, 3, 3, 1, 1, 1, 2))
        assert of.evaluate(s, paper_instance).partial_factors[7 - 1] == 1.0

    def test_soft_mode_total_edge_annihilates(self, paper_instance):
        soft = replace(paper_instance, total_dependency_mode="soft")
        # dependent 2 jumps ahead of its total predecessor 1
        s = of.Schedule(period_of=(2, 1, 2, 3, 2, 3, 3))
        b = of.evaluate(s, soft)
        assert b.partial_factors[2 - 1] == 0.0
        assert b.effective_returns[1] == 0.0


class TestDcfValue:
    def test_negative_dcf_project(self, paper_instance, paper_optimum):
        assert of.evaluate(paper_optimum, paper_instance).dcf_values[1 - 1] == -2

    def test_high_value_project(self, paper_instance, paper_optimum):
        assert of.evaluate(paper_optimum, paper_instance).dcf_values[6 - 1] == 100

    def test_reduced_benefit(self, paper_instance):
        s = of.Schedule(period_of=(2, 2, 1, 3, 2, 3, 3))
        assert math.isclose(of.evaluate(s, paper_instance).dcf_values[3 - 1], -21.25, abs_tol=1e-12)


class TestOptionAccrual:
    def test_strict_precedence_accrues(self, paper_instance, paper_optimum):
        # 1 -> 2 accrues (1 < 2); 1 -> 3 does not (same period)
        assert of.evaluate(paper_optimum, paper_instance).option_accrued[1 - 1] == 10

    def test_same_period_accrues_nothing(self, paper_instance, paper_optimum):
        # 2 -> 4 with both in period 2
        assert of.evaluate(paper_optimum, paper_instance).option_accrued[2 - 1] == 0

    def test_sum_over_outgoing_edges(self, paper_instance, paper_optimum):
        # 3 -> 4 (1 < 2) and 3 -> 6 (1 < 3)
        assert of.evaluate(paper_optimum, paper_instance).option_accrued[3 - 1] == 20


class TestCheckFeasibility:
    def test_paper_optimum_feasible(self, paper_instance, paper_optimum):
        b = of.evaluate(paper_optimum, paper_instance)
        assert b.total_cost_per_period == (85, 105, 175)
        assert b.count_per_period == (2, 3, 2)
        assert b.budget_excess == (0, 0, 0)
        assert b.feasible

    def test_everything_in_period_one(self, paper_instance):
        s = of.Schedule(period_of=(1,) * 7)
        b = of.evaluate(s, paper_instance)
        assert b.budget_excess[0] == 365 - 90
        assert b.cardinality_excess[0] == 4
        assert b.cardinality_shortfall[1:] == (2, 2)
        assert not b.feasible

    def test_hard_mode_lists_precedence_violations(self, paper_instance):
        s = of.Schedule(period_of=(2, 1, 2, 3, 2, 3, 3))  # 2 before its predecessor 1
        assert (1, 2) in of.evaluate(s, paper_instance).precedence_violations

    def test_empty_instance_is_feasible(self):
        inst = of.Instance(
            n_projects=0, n_periods=1, projects=(), edges=(),
            budgets=(1.0,), q_min=(0,), q_max=(0,),
        )
        assert of.validate_instance(inst) == []
        assert of.evaluate(of.Schedule(period_of=()), inst).feasible


class TestEvaluate:
    def test_paper_optimum_breakdown(self, paper_instance, paper_optimum):
        b = of.evaluate(paper_optimum, paper_instance)
        assert sum(b.dcf_values) == 168
        assert sum(b.option_accrued) == 35
        assert b.total_value == 203
        assert b.feasible

    def test_single_project_dcf_only(self):
        inst = make_instance([10], [25], [], budgets=[100], q_min=[0], q_max=[1])
        b = of.evaluate(of.Schedule(period_of=(1,)), inst)
        assert b.total_value == 15

    def test_one_period_kills_all_options(self, paper_instance):
        inst = replace(
            paper_instance,
            n_periods=1,
            budgets=(1000.0,),
            q_min=(0,),
            q_max=(7,),
            projects=tuple(
                replace(p, cost_pv=p.cost_pv[:1], return_pv=p.return_pv[:1])
                for p in paper_instance.projects
            ),
        )
        b = of.evaluate(of.Schedule(period_of=(1,) * 7), inst)
        assert all(o == 0 for o in b.option_accrued)
        assert all(f == 1 for f in b.partial_factors)

    def test_length_mismatch_rejected(self, paper_instance):
        with pytest.raises(ValueError):
            of.evaluate(of.Schedule(period_of=(1, 2)), paper_instance)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_additivity(self, rng):
        inst = of.load_paper_fixture()
        s = random_schedule(rng, 7, 3)
        b = of.evaluate(s, inst)
        assert math.isclose(
            b.total_value, sum(b.dcf_values) + sum(b.option_accrued), abs_tol=1e-9
        )

    @given(st.randoms(use_true_random=False), st.integers(0, 5), st.floats(0.5, 30))
    @settings(max_examples=50)
    def test_option_value_bump_shifts_total_by_delta_iff_accrued(self, rng, edge_i, delta):
        inst = of.load_paper_fixture()
        s = random_schedule(rng, 7, 3)
        e = inst.edges[edge_i]
        bumped = replace(
            inst,
            edges=inst.edges[:edge_i]
            + (replace(e, option_value=e.option_value + delta),)
            + inst.edges[edge_i + 1:],
        )
        before = of.evaluate(s, inst).total_value
        after = of.evaluate(s, bumped).total_value
        accrued = s.period_of[e.predecessor - 1] < s.period_of[e.dependent - 1]
        expected = delta if accrued else 0.0
        assert math.isclose(after - before, expected, abs_tol=1e-9)

    def test_fast_score_agrees_with_evaluate(self, paper_instance):
        import random

        rng = random.Random(7)
        for _ in range(200):
            s = random_schedule(rng, 7, 3)
            viol, value = score(s.period_of, build_tables(paper_instance))
            b = of.evaluate(s, paper_instance)
            assert value == b.total_value
            assert viol == b.violation_score
            assert (viol == 0.0) == b.feasible

    def test_score_agrees_exactly_on_generated_instances(self):
        # non-integer values and many edges per project: any difference in
        # summation order between the paths shows up here. The per-project
        # rules the oracle sums must give the breakdown's values and types
        # (an option sum with nothing accrued stays the int 0)
        import random

        rng = random.Random(2806)
        partial_in_mode = set()
        for seed in range(300):
            inst = of.generate_instance(
                rng.randint(3, 60),
                rng.randint(2, 5),
                edge_density=rng.uniform(0.0, 0.3),
                partial_fraction=rng.uniform(0.0, 1.0),
                budget_tightness=rng.uniform(0.5, 1.5),
                seed=seed,
            )
            if rng.random() < 0.3:
                inst = replace(inst, total_dependency_mode="soft")
            tables = build_tables(inst)
            for _ in range(10):
                s = random_schedule(rng, inst.n_projects, inst.n_periods)
                viol, value = score(s.period_of, tables)
                b = of.evaluate(s, inst)
                assert value == b.total_value
                assert viol == b.violation_score
                assert (viol == 0.0) == b.feasible
                per = s.period_of
                for j, k in enumerate(per):
                    f = partial_factor(j, per, tables)
                    o = option_term(j, per, tables)
                    assert (f, type(f)) == (b.partial_factors[j], type(b.partial_factors[j]))
                    assert (o, type(o)) == (b.option_accrued[j], type(b.option_accrued[j]))
                    assert tables.ret[j][k - 1] * f - tables.cost[j][k - 1] == b.dcf_values[j]
                    if 0.0 < f < 1.0:
                        partial_in_mode.add(inst.total_dependency_mode)
        assert partial_in_mode == {"hard", "soft"}

    def test_no_edges_value_is_period_symmetric(self):
        # identical PV tables per period, no edges: ordering cannot matter
        inst = make_instance([10, 20], [30, 50], [], budgets=[100, 100], q_min=[0, 0], q_max=[2, 2])
        v1 = of.evaluate(of.Schedule(period_of=(1, 2)), inst).total_value
        v2 = of.evaluate(of.Schedule(period_of=(2, 1)), inst).total_value
        assert v1 == v2


class TestCompareCandidates:
    def _cand(self, inst, periods):
        return of.candidate_key(periods, score(periods, build_tables(inst)))

    def test_feasible_beats_infeasible(self, paper_instance):
        good = self._cand(paper_instance, (1, 2, 1, 2, 2, 3, 3))
        bad = self._cand(paper_instance, (1,) * 7)  # hugely over budget
        assert good < bad
        assert bad > good

    def test_higher_value_wins_among_feasible(self, paper_instance):
        a = self._cand(paper_instance, (1, 2, 1, 2, 2, 3, 3))  # 203
        b = self._cand(paper_instance, (2, 2, 1, 2, 1, 3, 3))  # 176.75
        assert -a[1] == 203
        assert -b[1] == 176.75
        assert a < b

    def test_lexicographic_tie_break(self):
        inst = make_instance([10, 10], [30, 30], [], budgets=[100, 100], q_min=[0, 0], q_max=[2, 2])
        a = self._cand(inst, (1, 2))
        b = self._cand(inst, (2, 1))
        assert a[1] == b[1]
        assert a < b
        assert a == self._cand(inst, (1, 2))

    def test_key_of_an_evaluated_schedule(self, paper_instance):
        s = of.Schedule(period_of=(2, 2, 1, 2, 1, 3, 3))
        b = of.evaluate(s, paper_instance)
        assert self._cand(paper_instance, s.period_of) == (
            b.violation_score, -b.total_value, s.period_of
        )

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_total_order_on_random_triples(self, rng):
        inst = of.load_paper_fixture()
        a, b, c = (self._cand(inst, tuple(rng.randrange(1, 4) for _ in range(7))) for _ in range(3))
        # antisymmetry
        assert (a < b) == (b > a)
        # keys are distinct unless their schedules are equal
        assert (a == b) == (a[2] == b[2])
        if a <= b and b <= c:
            assert a <= c
