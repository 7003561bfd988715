import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import optfolio as of
from optfolio.valuation import build_tables, candidate_key, dcf_term, option_term, score


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
        assert of.partial_benefit_factor(3, s, paper_instance) == 1.0

    def test_dependent_before_predecessor_reduces(self, paper_instance):
        s = of.Schedule(period_of=(2, 2, 1, 3, 2, 3, 3))
        assert of.partial_benefit_factor(3, s, paper_instance) == 0.75

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
        assert math.isclose(of.partial_benefit_factor(3, s, inst), 0.375, abs_tol=1e-12)

    def test_no_incoming_partials_gives_one(self, paper_instance):
        s = of.Schedule(period_of=(3, 3, 3, 1, 1, 1, 2))
        assert of.partial_benefit_factor(7, s, paper_instance) == 1.0

    def test_soft_mode_total_edge_annihilates(self, paper_instance):
        soft = replace(paper_instance, total_dependency_mode="soft")
        # dependent 2 jumps ahead of its total predecessor 1
        s = of.Schedule(period_of=(2, 1, 2, 3, 2, 3, 3))
        assert of.partial_benefit_factor(2, s, soft) == 0.0
        b = of.evaluate(s, soft)
        assert b.effective_returns[1] == 0.0


class TestDcfValue:
    def test_negative_dcf_project(self, paper_instance, paper_optimum):
        assert of.dcf_value(1, paper_optimum, paper_instance) == -2

    def test_high_value_project(self, paper_instance, paper_optimum):
        assert of.dcf_value(6, paper_optimum, paper_instance) == 100

    def test_reduced_benefit(self, paper_instance):
        s = of.Schedule(period_of=(2, 2, 1, 3, 2, 3, 3))
        assert math.isclose(of.dcf_value(3, s, paper_instance), -21.25, abs_tol=1e-12)


class TestOptionAccrual:
    def test_strict_precedence_accrues(self, paper_instance, paper_optimum):
        # 1 -> 2 accrues (1 < 2); 1 -> 3 does not (same period)
        assert of.option_accrual(1, paper_optimum, paper_instance) == 10

    def test_same_period_accrues_nothing(self, paper_instance, paper_optimum):
        # 2 -> 4 with both in period 2
        assert of.option_accrual(2, paper_optimum, paper_instance) == 0

    def test_sum_over_outgoing_edges(self, paper_instance, paper_optimum):
        # 3 -> 4 (1 < 2) and 3 -> 6 (1 < 3)
        assert of.option_accrual(3, paper_optimum, paper_instance) == 20


class TestCheckFeasibility:
    def test_paper_optimum_feasible(self, paper_instance, paper_optimum):
        feas = of.check_feasibility(paper_optimum, paper_instance)
        assert feas["total_cost_per_period"] == (85, 105, 175)
        assert feas["count_per_period"] == (2, 3, 2)
        assert feas["budget_excess"] == (0, 0, 0)
        assert feas["feasible"]

    def test_everything_in_period_one(self, paper_instance):
        s = of.Schedule(period_of=(1,) * 7)
        feas = of.check_feasibility(s, paper_instance)
        assert feas["budget_excess"][0] == 365 - 90
        assert feas["cardinality_excess"][0] == 4
        assert feas["cardinality_shortfall"][1:] == (2, 2)
        assert not feas["feasible"]

    def test_hard_mode_lists_precedence_violations(self, paper_instance):
        s = of.Schedule(period_of=(2, 1, 2, 3, 2, 3, 3))  # 2 before its predecessor 1
        feas = of.check_feasibility(s, paper_instance)
        assert (1, 2) in feas["precedence_violations"]

    def test_empty_instance_is_feasible(self):
        inst = of.Instance(
            n_projects=0, n_periods=1, projects=(), edges=(),
            budgets=(1.0,), q_min=(0,), q_max=(0,),
        )
        assert of.validate_instance(inst) == []
        feas = of.check_feasibility(of.Schedule(period_of=()), inst)
        assert feas["feasible"]


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
        # summation order between the paths shows up here
        import random

        rng = random.Random(2806)
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
                for j in range(inst.n_projects):
                    assert dcf_term(j, s.period_of, tables) == b.dcf_values[j]
                    assert option_term(j, s.period_of, tables) == b.option_accrued[j]

    def test_no_edges_value_is_period_symmetric(self):
        # identical PV tables per period, no edges: ordering cannot matter
        inst = make_instance([10, 20], [30, 50], [], budgets=[100, 100], q_min=[0, 0], q_max=[2, 2])
        v1 = of.evaluate(of.Schedule(period_of=(1, 2)), inst).total_value
        v2 = of.evaluate(of.Schedule(period_of=(2, 1)), inst).total_value
        assert v1 == v2


class TestCompareCandidates:
    def _cand(self, inst, periods):
        s = of.Schedule(period_of=periods)
        return (s, of.evaluate(s, inst))

    def test_feasible_beats_infeasible(self, paper_instance):
        good = self._cand(paper_instance, (1, 2, 1, 2, 2, 3, 3))
        bad = self._cand(paper_instance, (1,) * 7)  # hugely over budget
        assert of.compare_candidates(good, bad) == -1
        assert of.compare_candidates(bad, good) == 1

    def test_higher_value_wins_among_feasible(self, paper_instance):
        a = self._cand(paper_instance, (1, 2, 1, 2, 2, 3, 3))  # 203
        b = self._cand(paper_instance, (2, 2, 1, 2, 1, 3, 3))  # 176.75
        assert a[1].total_value == 203
        assert b[1].total_value == 176.75
        assert of.compare_candidates(a, b) == -1

    def test_lexicographic_tie_break(self):
        inst = make_instance([10, 10], [30, 30], [], budgets=[100, 100], q_min=[0, 0], q_max=[2, 2])
        a = self._cand(inst, (1, 2))
        b = self._cand(inst, (2, 1))
        assert a[1].total_value == b[1].total_value
        assert of.compare_candidates(a, b) == -1
        assert of.compare_candidates(a, a) == 0

    def test_rejects_different_instances(self, paper_instance):
        other = make_instance([10], [30], [], budgets=[100], q_min=[0], q_max=[1])
        a = self._cand(paper_instance, (1, 2, 1, 2, 2, 3, 3))
        b = self._cand(other, (1,))
        with pytest.raises(ValueError):
            of.compare_candidates(a, b)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_total_order_on_random_triples(self, rng):
        inst = of.load_paper_fixture()
        cands = [self._cand(inst, tuple(rng.randrange(1, 4) for _ in range(7))) for _ in range(3)]
        a, b, c = cands
        # antisymmetry
        assert of.compare_candidates(a, b) == -of.compare_candidates(b, a)
        # transitivity via the underlying key
        keys = sorted(candidate_key(s, br) for s, br in cands)
        assert keys[0] <= keys[1] <= keys[2]
        if of.compare_candidates(a, b) <= 0 and of.compare_candidates(b, c) <= 0:
            assert of.compare_candidates(a, c) <= 0
