import inspect
import itertools
import math
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import optfolio as of
from optfolio.valuation import build_tables, option_term, score


def brute_force(inst):
    """Independent oracle: plain product enumeration scored with score, no pruning.

    Returns (feasible count, (best value, best period tuple) or None); ties
    keep the lexicographically first schedule.
    """
    tables = build_tables(inst)
    best = None
    count = 0
    for per in itertools.product(range(1, inst.n_periods + 1), repeat=inst.n_projects):
        viol, value = score(per, tables)
        if viol == 0.0:
            count += 1
            if best is None or value > best[0]:
                best = (value, per)
    return count, best


def reverse_ids(inst):
    """The same problem with project i renamed n_p + 1 - i, so edges run high to low."""
    n = inst.n_projects
    return replace(
        inst,
        projects=tuple(replace(p, id=i + 1) for i, p in enumerate(reversed(inst.projects))),
        edges=tuple(
            replace(e, predecessor=n + 1 - e.predecessor, dependent=n + 1 - e.dependent)
            for e in inst.edges
        ),
    )


def budget_at_subset_sum(inst, rng):
    """One period's budget set to the id-order float sum of a random subset's costs."""
    k = rng.randrange(inst.n_periods)
    members = [p for p in inst.projects if rng.random() < 0.5] or [inst.projects[0]]
    total = 0.0
    for p in members:
        total += p.cost_pv[k]
    budgets = list(inst.budgets)
    budgets[k] = total
    return replace(inst, budgets=tuple(budgets))


class TestEnumerateOptimal:
    def test_paper_fixture_optimum(self, paper_instance):
        res = of.enumerate_optimal(paper_instance)
        assert res.best_schedule.period_of == (1, 2, 1, 2, 2, 3, 3)
        assert res.best_breakdown.total_value == 203
        assert res.best_breakdown.total_cost_per_period == (85, 105, 175)

    def test_matches_unpruned_brute_force(self, paper_instance):
        count, best = brute_force(paper_instance)
        res = of.enumerate_optimal(paper_instance)
        assert count == res.feasible_count == 2
        assert best == (res.best_breakdown.total_value, res.best_schedule.period_of)

    def test_matches_unpruned_brute_force_on_generated_instances(self):
        rng = random.Random(1006)
        # a separate stream, so drawing variants leaves the base instances as they are
        variant_rng = random.Random(2207)
        feasible_seen = 0
        for seed in range(40):
            n_p, N = rng.randint(1, 7), rng.randint(2, 3)
            inst = of.generate_instance(
                n_p,
                N,
                edge_density=rng.uniform(0.0, 0.6),
                partial_fraction=rng.uniform(0.0, 1.0),
                budget_tightness=rng.uniform(0.6, 1.6),
                seed=seed,
            )
            q_min = [0] * N
            for _ in range(rng.randint(0, n_p)):
                k = rng.randrange(N)
                if q_min[k] < inst.q_max[k]:
                    q_min[k] += 1
            mode = rng.choice(("hard", "soft"))
            inst = replace(inst, q_min=tuple(q_min), total_dependency_mode=mode)
            cases = [inst]
            # edges from a higher id to a lower one: a DCF term or option
            # sum is known only once a later project is placed
            if variant_rng.random() < 0.5:
                cases.append(reverse_ids(inst))
            # a budget that some schedules meet with equality
            if variant_rng.random() < 0.5:
                cases.append(budget_at_subset_sum(cases[-1], variant_rng))
            for case in cases:
                assert of.validate_instance(case) == []
                count, best = brute_force(case)
                res = of.enumerate_optimal(case)
                assert res.feasible_count == count, f"seed {seed}"
                if best is None:
                    assert res.best_schedule is None
                else:
                    feasible_seen += case is inst
                    assert best == (res.best_breakdown.total_value, res.best_schedule.period_of)
        assert 0 < feasible_seen < 40

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_unpruned_brute_force_at_the_budget_boundary(self, data):
        # budgets that never bind (the count-only walk memoizes), that bind
        # only for the costliest selections q_max allows, or that equal a
        # subset's cost sum; returns differ by period, so the bound has
        # subtrees to skip, and so do costs, so each budget reads its own
        # cost column
        n_p, N = data.draw(st.integers(3, 7)), data.draw(st.integers(2, 3))
        inst = of.generate_instance(
            n_p,
            N,
            edge_density=data.draw(st.floats(0.0, 0.6)),
            partial_fraction=data.draw(st.floats(0.0, 1.0)),
            seed=data.draw(st.integers(0, 10**6)),
        )
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        projects = tuple(
            replace(
                p,
                cost_pv=tuple(c * rng.uniform(0.5, 1.5) for c in p.cost_pv),
                return_pv=tuple(r * rng.uniform(0.5, 1.5) for r in p.return_pv),
            )
            for p in inst.projects
        )
        # a period's q_max largest costs bound its spend
        heaviest = [
            sum(sorted((p.cost_pv[k] for p in projects), reverse=True)[: inst.q_max[k]])
            for k in range(N)
        ]
        budget = data.draw(st.sampled_from(("slack", "tight", "subset")))
        scale = 2.0 if budget == "slack" else data.draw(st.floats(0.4, 1.1))
        q_min = tuple(data.draw(st.integers(0, hi)) for hi in inst.q_max)
        if sum(q_min) > n_p:
            q_min = (0,) * N
        inst = replace(
            inst,
            projects=projects,
            budgets=tuple(scale * h for h in heaviest),
            q_min=q_min,
            total_dependency_mode=data.draw(st.sampled_from(("hard", "soft"))),
        )
        if data.draw(st.booleans()):
            inst = reverse_ids(inst)
        if budget == "subset":
            inst = budget_at_subset_sum(inst, rng)
        assert of.validate_instance(inst) == []
        count, best = brute_force(inst)
        res = of.enumerate_optimal(inst)
        assert res.feasible_count == count
        if best is None:
            assert res.best_schedule is None
        else:
            assert best == (res.best_breakdown.total_value, res.best_schedule.period_of)

    def test_budget_equal_to_a_cost_sum_is_met(self):
        # backtracking from 0.2 + 0.4 in period 1 by subtracting 0.4 would
        # leave 0.20000000000000007, and adding 0.7 to that exceeds the
        # budget that projects 1 and 3 meet exactly
        inst = of.Instance(
            n_projects=3,
            n_periods=2,
            projects=tuple(
                of.Project(id=i + 1, label=f"P{i + 1}", cost_pv=(c, c), return_pv=(1.0, 1.0))
                for i, c in enumerate((0.2, 0.4, 0.7))
            ),
            edges=(),
            budgets=(0.2 + 0.7, 10.0),
            q_min=(0, 0),
            q_max=(3, 3),
        )
        count, best = brute_force(inst)
        res = of.enumerate_optimal(inst)
        assert count == res.feasible_count == 6
        assert best == (res.best_breakdown.total_value, res.best_schedule.period_of)

    def test_budget_margin_covers_summation_order(self):
        # the four unit costs and 1e16, added largest first, stay at 1e16,
        # under the period-1 budget; added in id order they round to
        # 1e16 + 4, over it. Without BUDGET_RTOL the walk would call the
        # budget slack and count that schedule
        returns = [(1e9, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1e16, 1e16)]
        inst = of.Instance(
            n_projects=5,
            n_periods=2,
            projects=tuple(
                of.Project(id=i + 1, label=f"P{i + 1}", cost_pv=(c, c), return_pv=r)
                for i, (c, r) in enumerate(zip((1.0, 1.0, 1.0, 1.0, 1e16), returns))
            ),
            edges=(),
            budgets=(1e16 + 2, 1e17),
            q_min=(0, 0),
            q_max=(5, 5),
        )
        count, best = brute_force(inst)
        res = of.enumerate_optimal(inst)
        assert count == res.feasible_count == 27
        assert best == (res.best_breakdown.total_value, res.best_schedule.period_of)

    def test_scores_only_leaves_that_can_beat_the_incumbent(self, monkeypatch):
        import optfolio.oracle as oracle

        calls = []

        def counting_score(periods, tables):
            calls.append(periods)
            return score(periods, tables)

        monkeypatch.setattr(oracle, "score", counting_score)
        inst = of.generate_instance(8, 3, edge_density=0.2, budget_tightness=3.0, seed=5)
        res = of.enumerate_optimal(inst)
        assert res.feasible_count > 1000
        assert len(calls) < res.feasible_count / 10
        assert res.best_schedule.period_of in calls

    def test_bound_writes_off_option_edges_that_cannot_accrue(self, monkeypatch):
        # the pinned 13x3 chain document: with every option edge counted in
        # full until its term joins, the search takes 2,093 option terms
        import optfolio.oracle as oracle
        from test_pinned_output import chain_instance

        calls = 0

        def counting_option_term(j, per, tables):
            nonlocal calls
            calls += 1
            return option_term(j, per, tables)

        monkeypatch.setattr(oracle, "option_term", counting_option_term)
        res = of.enumerate_optimal(chain_instance())
        assert res.feasible_count == 20178
        assert calls <= 600

    def test_budget_forces_period(self):
        inst = of.Instance(
            n_projects=1,
            n_periods=2,
            projects=(of.Project(id=1, label="a", cost_pv=(1, 1), return_pv=(2, 2)),),
            edges=(),
            budgets=(0.5, 10.0),
            q_min=(0, 0),
            q_max=(1, 1),
        )
        res = of.enumerate_optimal(inst)
        assert res.best_schedule.period_of == (2,)
        assert res.feasible_count == 1

    def test_infeasible_when_q_min_sum_exceeds_projects(self, paper_instance):
        # q_min sum > n_p is caught by validation, so tighten budgets instead
        starved = replace(paper_instance, budgets=(1.0, 1.0, 1.0))
        res = of.enumerate_optimal(starved)
        assert not res.feasible
        assert res.feasible_count == 0
        assert res.best_schedule is None

    def test_q_max_zero_everywhere_rejected_by_validation(self, paper_instance):
        bad = replace(paper_instance, q_max=(0, 0, 0), q_min=(0, 0, 0))
        with pytest.raises(ValueError, match="q_max"):
            of.enumerate_optimal(bad)

    def test_cap_refusal_names_size(self, paper_instance):
        with pytest.raises(of.SearchSpaceCapExceeded) as info:
            of.enumerate_optimal(paper_instance, cap=1000)
        assert str(info.value) == "search space N^n_p = 2187 exceeds enumeration cap 1000"

    def test_solves_with_few_frames_left_below_the_recursion_limit(self, paper_instance):
        # the 7-project search needs about 13 frames; it is called with 38
        # left, so only running out of them would refuse it
        tables = build_tables(paper_instance)

        def at(depth):
            if depth < sys.getrecursionlimit() - 38:
                return at(depth + 1)
            return of.enumerate_optimal(tables)

        res = at(len(inspect.stack(0)) + 1)
        assert res.best_breakdown.total_value == 203

    def test_lexicographic_tie_break(self):
        # two identical projects, no constraints binding: 4 schedules tie
        inst = of.Instance(
            n_projects=2,
            n_periods=2,
            projects=(
                of.Project(id=1, label="a", cost_pv=(10, 10), return_pv=(30, 30)),
                of.Project(id=2, label="b", cost_pv=(10, 10), return_pv=(30, 30)),
            ),
            edges=(),
            budgets=(100.0, 100.0),
            q_min=(0, 0),
            q_max=(2, 2),
        )
        res = of.enumerate_optimal(inst)
        assert res.best_schedule.period_of == (1, 1)
        assert res.feasible_count == 4


class TestCountFeasible:
    def test_unconstrained_two_by_two(self):
        inst = of.Instance(
            n_projects=2,
            n_periods=2,
            projects=(
                of.Project(id=1, label="a", cost_pv=(1, 1), return_pv=(2, 2)),
                of.Project(id=2, label="b", cost_pv=(1, 1), return_pv=(2, 2)),
            ),
            edges=(),
            budgets=(1000.0, 1000.0),
            q_min=(0, 0),
            q_max=(2, 2),
        )
        assert of.enumerate_optimal(inst).feasible_count == 4

    @staticmethod
    def period_valued(n_p, N, q_max, edges=()):
        """Equal costs and period-dependent returns: few leaves tie, and budgets never bind."""
        return of.Instance(
            n_projects=n_p,
            n_periods=N,
            projects=tuple(
                of.Project(
                    id=j + 1,
                    label=f"P{j + 1}",
                    cost_pv=(10.0,) * N,
                    return_pv=tuple(20.0 + (7 * j + 3 * k) % 11 for k in range(N)),
                )
                for j in range(n_p)
            ),
            edges=edges,
            budgets=(10.0 * n_p + 1.0,) * N,
            q_min=(0,) * N,
            q_max=q_max,
        )

    def test_closed_form_without_edges(self):
        # period counts (5, 5, 4) in any order: 3 * 14! / (5! 5! 4!)
        inst = self.period_valued(14, 3, (5, 5, 5))
        f = math.factorial
        assert of.enumerate_optimal(inst).feasible_count == 3 * f(14) // (f(5) * f(5) * f(4)) == 756756

    def test_closed_form_with_hard_chains(self):
        # a chain of L projects takes a non-decreasing period sequence,
        # C(L + 2, 2) of them over three periods
        lengths, edges, first = (3, 3, 3, 3, 2), [], 1
        for length in lengths:
            for pred in range(first, first + length - 1):
                edges.append(of.DependencyEdge(pred, pred + 1, 1.0, 5.0))
            first += length
        inst = self.period_valued(14, 3, (14, 14, 14), tuple(edges))
        res = of.enumerate_optimal(inst)
        assert res.feasible_count == math.prod(math.comb(n + 2, 2) for n in lengths) == 60000
        assert res.best_breakdown.feasible

    def test_paper_fixture_regression_value(self, paper_instance):
        # pinned at first computation: exactly two feasible schedules
        assert of.enumerate_optimal(paper_instance).feasible_count == 2


_TOP = sys.float_info.max
# mostly small amounts, some near the top of the float range, where two of
# them can sum past it
_AMOUNT = st.one_of(*[st.floats(1.0, 100.0)] * 4, st.sampled_from([1e307, 1e308, _TOP / 2, _TOP]))


@st.composite
def instances_at_every_magnitude(draw):
    """Instances of at most 81 schedules whose amounts reach the top of the float range."""
    N = draw(st.integers(1, 3))
    n_p = draw(st.integers(1, 6 if N < 3 else 4))

    def amounts(zero_ok):
        return tuple(draw(st.just(0.0) | _AMOUNT if zero_ok else _AMOUNT) for _ in range(N))

    pairs = draw(st.lists(
        st.tuples(st.integers(1, n_p), st.integers(1, n_p)).filter(lambda e: e[0] < e[1]),
        unique=True,
        max_size=3,
    ))
    return of.Instance(
        n_projects=n_p,
        n_periods=N,
        projects=tuple(
            of.Project(id=i, label=f"P{i}", cost_pv=amounts(False), return_pv=amounts(True))
            for i in range(1, n_p + 1)
        ),
        edges=tuple(
            of.DependencyEdge(a, b, draw(st.sampled_from([1.0, 0.5])), draw(st.just(0.0) | _AMOUNT))
            for a, b in pairs
        ),
        budgets=amounts(False),
        q_min=(0,) * N,
        # the last period can take every project, so q_max never faults
        q_max=tuple(draw(st.integers(0, n_p)) for _ in range(N - 1)) + (n_p,),
        total_dependency_mode=draw(st.sampled_from(["hard", "soft"])),
    )


def nothing_violated(b) -> bool:
    """Feasibility read from a breakdown's per-period and per-edge fields alone."""
    return (
        not any(b.budget_excess)
        and not any(b.cardinality_shortfall)
        and not any(b.cardinality_excess)
        and not b.precedence_violations
    )


class TestOracleProperties:
    @given(inst=instances_at_every_magnitude())
    # period 1's excess of one ulp, divided by a budget total of 1e308,
    # rounds to 0.0, yet (1,) is infeasible
    @example(inst=of.Instance(
        n_projects=1,
        n_periods=3,
        projects=(of.Project(1, "P1", cost_pv=(1.0000000000000002, 1.0, 1.0), return_pv=(0.0,) * 3),),
        edges=(),
        budgets=(1.0, 1.0, 1e308),
        q_min=(0, 0, 0),
        q_max=(1, 0, 1),
        total_dependency_mode="hard",
    ))
    @settings(max_examples=100, deadline=None)
    def test_valid_instances_agree_at_every_magnitude(self, inst):
        # a budget sum that overflowed scored every excess 0, and costs or
        # returns summing past the float range valued schedules at -inf or inf
        assume(not of.validate_instance(inst))
        tables = build_tables(inst)
        for per in itertools.product(range(1, inst.n_periods + 1), repeat=inst.n_projects):
            b = of.evaluate(of.Schedule(per), tables)
            assert (score(per, tables)[0] == 0.0) == nothing_violated(b)
            assert b.feasible == nothing_violated(b)
            assert math.isfinite(b.total_value) or not b.feasible
        ga = of.run_ga(tables, of.GaConfig(population_size=6, max_generations=4, seed=1))
        assert ga.best_breakdown.feasible == nothing_violated(ga.best_breakdown)
        count, best = brute_force(inst)
        res = of.enumerate_optimal(tables)
        assert res.feasible_count == count
        if best is None:
            assert res.best_schedule is None
        else:
            assert best == (res.best_breakdown.total_value, res.best_schedule.period_of)

    def test_optimum_dominates_sampled_schedules(self, paper_instance):
        res = of.enumerate_optimal(paper_instance)
        rng = random.Random(11)
        for _ in range(500):
            s = tuple(rng.randrange(1, 4) for _ in range(7))
            viol, value = score(s, build_tables(paper_instance))
            if viol == 0.0:
                assert value <= res.best_breakdown.total_value

    def test_relabeling_equivariance(self, paper_instance):
        base = of.enumerate_optimal(paper_instance)
        perm = [3, 1, 7, 2, 5, 4, 6]  # new id of old project i is perm[i-1]
        inv = {perm[i]: i + 1 for i in range(7)}
        projects = tuple(
            replace(paper_instance.projects[inv[new_id] - 1], id=new_id, label=f"P{new_id}")
            for new_id in range(1, 8)
        )
        edges = tuple(
            replace(e, predecessor=perm[e.predecessor - 1], dependent=perm[e.dependent - 1])
            for e in paper_instance.edges
        )
        permuted = replace(paper_instance, projects=projects, edges=edges)
        assert of.validate_instance(permuted) == []
        res = of.enumerate_optimal(permuted)
        assert res.best_breakdown.total_value == base.best_breakdown.total_value
        # the optimal schedule maps through the permutation
        mapped = tuple(
            base.best_schedule.period_of[inv[new_id] - 1] for new_id in range(1, 8)
        )
        assert res.best_schedule.period_of == mapped

    def test_widening_constraints_never_hurts(self, paper_instance):
        base = of.enumerate_optimal(paper_instance).best_breakdown.total_value

        wider_budget = replace(paper_instance, budgets=(120.0, 125.0, 175.0))
        assert of.enumerate_optimal(wider_budget).best_breakdown.total_value >= base

        wider_qmax = replace(paper_instance, q_max=(4, 4, 4))
        assert of.enumerate_optimal(wider_qmax).best_breakdown.total_value >= base

        lower_qmin = replace(paper_instance, q_min=(1, 1, 1))
        assert of.enumerate_optimal(lower_qmin).best_breakdown.total_value >= base

    def test_soft_mode_also_picks_paper_optimum(self, paper_instance):
        # the objective alone sequences this instance correctly
        soft = replace(paper_instance, total_dependency_mode="soft")
        res = of.enumerate_optimal(soft)
        assert res.best_schedule.period_of == (1, 2, 1, 2, 2, 3, 3)
        assert res.best_breakdown.total_value == 203
