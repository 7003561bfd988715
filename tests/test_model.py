import math

import pytest
from hypothesis import given, settings, strategies as st

import optfolio as of
from optfolio.serialization import bit_rows, parse_schedule_arg


# The 7x3 one-hot matrix for the case-study optimum, in bit-row text form.
BEST_CHROMOSOME_TEXT = "100\n010\n100\n010\n010\n001\n001"


class TestCostPresentValue:
    def test_period_one_is_identity(self):
        assert of.cost_present_value(100, 0.1, 1) == 100

    def test_one_period_discount(self):
        assert math.isclose(of.cost_present_value(110, 0.1, 2), 100, abs_tol=1e-9)

    def test_zero_rate_identity(self):
        assert of.cost_present_value(100, 0.0, 3) == 100

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            of.cost_present_value(100, 0.1, 0)

    @given(st.floats(0.01, 0.5), st.integers(1, 10))
    def test_strictly_decreasing_in_k_for_positive_rate(self, rate, k):
        assert of.cost_present_value(100, rate, k + 1) < of.cost_present_value(100, rate, k)

    @given(st.integers(1, 10))
    def test_constant_in_k_for_zero_rate(self, k):
        assert of.cost_present_value(100, 0.0, k) == 100


class TestReturnPresentValue:
    def test_single_term(self):
        assert math.isclose(of.return_present_value([110], 0.1, 1), 100, abs_tol=1e-9)

    def test_zero_rate_sums_stream(self):
        assert of.return_present_value([100, 100], 0.0, 1) == 200

    def test_later_funding_discounts_again(self):
        # 110/1.1 discounted one more period
        assert math.isclose(of.return_present_value([110], 0.1, 2), 1000 / 11, abs_tol=1e-9)

    def test_rejects_empty_stream(self):
        with pytest.raises(ValueError):
            of.return_present_value([], 0.1, 1)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError, match="period index must be >= 1, got 0"):
            of.return_present_value([110], 0.1, 0)


@pytest.mark.parametrize("bad", [0, -1, 1.0, True])
def test_schedule_refuses_period_that_is_not_a_positive_integer(bad):
    # True is an int subclass, which evaluate would value as period 1
    with pytest.raises(ValueError, match="periods must be integers >= 1"):
        of.Schedule(period_of=(bad, 2, 1, 2, 2, 3, 3))


class TestChromosomeCodec:
    """Bit-row text: written by `bit_rows`, read by `parse_schedule_arg`."""

    def test_best_chromosome_decodes(self):
        assert parse_schedule_arg(BEST_CHROMOSOME_TEXT, 7, 3).period_of == (1, 2, 1, 2, 2, 3, 3)

    def test_encode_reproduces_bit_rows(self):
        assert "\n".join(bit_rows((1, 2, 1, 2, 2, 3, 3), 3)) == BEST_CHROMOSOME_TEXT

    def test_single_project_single_period(self):
        assert bit_rows((1,), 1) == ["1"]

    def test_multi_set_row_rejected(self):
        with pytest.raises(ValueError) as exc:
            parse_schedule_arg("110\n010", 2, 3)
        assert str(exc.value) == "invalid chromosome: row 1 has 2 set bits"

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError) as exc:
            parse_schedule_arg("000\n010", 2, 3)
        assert str(exc.value) == "invalid chromosome: row 1 has 0 set bits"

    def test_non_binary_entries_rejected(self):
        with pytest.raises(ValueError, match="non-binary"):
            parse_schedule_arg("20", 1, 2)

    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n), min_size=1, max_size=8))
    ))
    def test_round_trip(self, n_and_periods):
        n_periods, periods = n_and_periods
        text = "\n".join(bit_rows(tuple(periods), n_periods))
        assert parse_schedule_arg(text, len(periods), n_periods).period_of == tuple(periods)

    @given(st.integers(1, 8), st.integers(1, 4), st.randoms(use_true_random=False))
    def test_decode_then_encode_identity(self, n_p, n_periods, rng):
        cols = [rng.randrange(n_periods) for _ in range(n_p)]
        rows = ["".join("1" if c == cols[r] else "0" for c in range(n_periods)) for r in range(n_p)]
        s = parse_schedule_arg("\n".join(rows), n_p, n_periods)
        assert bit_rows(s.period_of, n_periods) == rows

    def test_text_round_trip(self):
        s = parse_schedule_arg(BEST_CHROMOSOME_TEXT, 7, 3)
        assert "\n".join(bit_rows(s.period_of, 3)) == BEST_CHROMOSOME_TEXT


_PAPER = of.load_paper_fixture()


def _first_project(**change) -> dict:
    from dataclasses import replace

    return dict(projects=(replace(_PAPER.projects[0], **change),) + _PAPER.projects[1:])


class TestValidateInstance:
    def test_paper_fixture_is_valid(self, paper_instance):
        assert of.validate_instance(paper_instance) == []

    def test_projects_out_of_id_order(self, paper_instance):
        from dataclasses import replace

        bad = replace(paper_instance, projects=paper_instance.projects[::-1])
        msgs = of.validate_instance(bad)
        assert any("listed in id order" in m for m in msgs)
        with pytest.raises(ValueError, match="id order"):
            of.evaluate(of.Schedule(period_of=(1, 2, 1, 2, 2, 3, 3)), bad)

    def test_self_loop_edge(self, paper_instance):
        from dataclasses import replace

        bad = replace(
            paper_instance,
            edges=(of.DependencyEdge(predecessor=1, dependent=1, level=0.5, option_value=1),),
        )
        msgs = of.validate_instance(bad)
        assert any("predecessor equals dependent (1)" in m for m in msgs)

    def test_pigeonhole_q_max(self, paper_instance):
        from dataclasses import replace

        bad = replace(paper_instance, q_max=(2, 2, 2))
        msgs = of.validate_instance(bad)
        assert any("sum of q_max (6) < n_p (7)" in m for m in msgs)

    def test_cycle_detected(self, paper_instance):
        from dataclasses import replace

        bad = replace(
            paper_instance,
            edges=(
                of.DependencyEdge(1, 2, 1.0, 0),
                of.DependencyEdge(2, 3, 1.0, 0),
                of.DependencyEdge(3, 1, 1.0, 0),
            ),
        )
        assert any("cycle" in m for m in of.validate_instance(bad))

    def test_cycle_through_a_long_chain_is_named(self, paper_instance):
        from dataclasses import replace

        n = 3000
        projects = tuple(replace(paper_instance.projects[0], id=i) for i in range(1, n + 1))
        chain = tuple(of.DependencyEdge(i, i + 1, 0.5, 0) for i in range(1, n))
        inst = replace(paper_instance, n_projects=n, projects=projects, q_max=(n,) * 3)
        assert of.validate_instance(replace(inst, edges=chain)) == []
        back = of.DependencyEdge(n, 1, 0.5, 0)
        cycle = " -> ".join(map(str, list(range(1, n + 1)) + [1]))
        msgs = of.validate_instance(replace(inst, edges=chain + (back,)))
        assert msgs == [f"dependency graph contains a cycle: {cycle}"]

    @given(st.integers(1, 9), st.booleans(), st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_cycle_named_exactly_when_one_exists(self, paper_instance, n, unknown_ids, ringed, data):
        # checked against the transitive closure; the edges may name unknown ids
        from dataclasses import replace

        ids = st.integers(-1, n + 2) if unknown_ids else st.integers(1, n)
        ends = data.draw(st.lists(st.tuples(ids, ids), max_size=30))
        if ringed:  # a cycle among known ids
            ring = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
            ends += list(zip(ring, ring[1:] + ring[:1]))
        ends = data.draw(st.permutations(ends))
        edges = tuple(of.DependencyEdge(p, d, 0.5, 0) for p, d in ends)
        projects = tuple(replace(paper_instance.projects[0], id=i) for i in range(1, n + 1))
        inst = replace(paper_instance, n_projects=n, projects=projects, edges=edges, q_max=(n,) * 3)
        reach = {p: {d for q, d in ends if q == p} for p, _ in ends}
        for _ in ends:  # after len(ends) rounds every path is counted
            reach = {p: ds.union(*(reach.get(d, ()) for d in ds)) for p, ds in reach.items()}
        named = [m for m in of.validate_instance(inst) if "cycle" in m]
        assert len(named) == any(p in ds for p, ds in reach.items())
        if named:
            prefix = "dependency graph contains a cycle: "
            assert named[0].startswith(prefix)
            cycle = [int(i) for i in named[0][len(prefix):].split(" -> ")]
            assert cycle[0] == cycle[-1]
            assert len(set(cycle[:-1])) == len(cycle) - 1
            assert set(zip(cycle, cycle[1:])) <= set(ends)

    def test_duplicate_edge(self, paper_instance):
        from dataclasses import replace

        bad = replace(
            paper_instance,
            edges=(of.DependencyEdge(1, 2, 1.0, 0), of.DependencyEdge(1, 2, 0.5, 0)),
        )
        assert any("duplicate edge" in m for m in of.validate_instance(bad))

    def test_bad_level_and_option_value(self, paper_instance):
        from dataclasses import replace

        bad = replace(
            paper_instance,
            edges=(
                of.DependencyEdge(1, 2, 0.0, 0),
                of.DependencyEdge(1, 3, 0.5, -2),
            ),
        )
        msgs = of.validate_instance(bad)
        assert any("level" in m for m in msgs)
        assert any("option_value" in m for m in msgs)

    def test_raw_cost_consistency_checked(self, paper_instance):
        from dataclasses import replace

        p0 = paper_instance.projects[0]
        inconsistent = replace(p0, raw_cost=99.0)
        bad = replace(paper_instance, projects=(inconsistent,) + paper_instance.projects[1:])
        assert any("does not match" in m for m in of.validate_instance(bad))

    @pytest.mark.parametrize("bad_number", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["budgets", "rate", "cost_pv", "return_pv", "level", "option_value"]
    )
    def test_non_finite_numbers_rejected(self, paper_instance, field, bad_number):
        from dataclasses import replace

        inst = paper_instance
        p0, e0 = inst.projects[0], inst.edges[0]
        if field == "budgets":
            bad = replace(inst, budgets=(bad_number,) + inst.budgets[1:])
        elif field == "rate":
            bad = replace(inst, rate=bad_number)
        elif field in ("cost_pv", "return_pv"):
            table = (bad_number,) + getattr(p0, field)[1:]
            bad = replace(inst, projects=(replace(p0, **{field: table}),) + inst.projects[1:])
        else:
            bad = replace(inst, edges=(replace(e0, **{field: bad_number}),) + inst.edges[1:])
        assert any(field in m for m in of.validate_instance(bad))

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(n_projects=-1), "n_p must be >= 0, got -1"),
            (dict(n_periods=0), "N must be >= 1, got 0"),
            (dict(projects=_PAPER.projects[:6]), "projects list has 6 entries, expected n_p (7)"),
            (dict(budgets=(90.0, 125.0)), "budgets has 2 entries, expected N (3)"),
            (dict(q_min=(2, 2)), "q_min has 2 entries, expected N (3)"),
            (dict(q_max=(3, 3)), "q_max has 2 entries, expected N (3)"),
            (
                _first_project(cost_pv=(15.0, 15.0)),
                "project 1: cost_pv has 2 entries, expected N (3)",
            ),
            (
                _first_project(return_pv=(13.0,)),
                "project 1: return_pv has 1 entries, expected N (3)",
            ),
            (
                dict(total_dependency_mode="loose"),
                "total_dependency_mode must be one of ('hard', 'soft')",
            ),
            (dict(budgets=(90.0, 0.0, 175.0)), "budgets[2] must be > 0, got 0.0"),
            (
                _first_project(cost_pv=(15.0, -1.0, 15.0)),
                "project 1: cost_pv[2] must be > 0, got -1.0",
            ),
            (_first_project(cost_pv=(15.0, 15.0, 0.0)), "project 1: cost_pv[3] must be > 0, got 0.0"),
            (
                _first_project(return_pv=(13.0, 13.0, -0.5)),
                "project 1: return_pv[3] must be >= 0, got -0.5",
            ),
            (_first_project(id=9), "project ids must be exactly 1..7, got [2, 3, 4, 5, 6, 7, 9]"),
            (dict(q_max=(3.0, 3, 3)), "q_max[1] must be an integer, got 3.0"),
            (dict(q_max=(3, 3, 3.5)), "q_max[3] must be an integer, got 3.5"),
            (dict(q_min=(2, True, 2)), "q_min[2] must be an integer, got True"),
            (dict(q_min=(None, 2, 2)), "q_min[1] must be an integer, got None"),
            (dict(q_max=("3", 3, 3)), "q_max[1] must be an integer, got '3'"),
            (
                _first_project(return_stream=()),
                "project 1: return_stream must be non-empty when given",
            ),
        ],
        ids=[
            "n_p", "N", "projects-length", "budgets-length", "q_min-length", "q_max-length",
            "cost_pv-length", "return_pv-length", "mode", "budget", "cost", "zero-cost", "return",
            "ids", "q_max-float", "q_max-fraction", "q_min-bool", "q_min-none", "q_max-string",
            "empty-return-stream",
        ],
    )
    def test_each_invariant_is_reported(self, paper_instance, change, message):
        from dataclasses import replace

        assert message in of.validate_instance(replace(paper_instance, **change))

    def test_table_faults_are_reported_in_entry_order(self, paper_instance):
        from dataclasses import replace

        p0 = replace(
            paper_instance.projects[0],
            cost_pv=(-2.0, math.inf, 15.0),
            return_pv=(-1.0, 13.0, math.nan),
        )
        bad = replace(
            paper_instance,
            budgets=(math.nan, -1.0, math.inf),
            projects=(p0,) + paper_instance.projects[1:],
        )
        assert of.validate_instance(bad) == [
            "budgets[1] must be finite, got nan",
            "budgets[2] must be > 0, got -1.0",
            "budgets[3] must be finite, got inf",
            "project 1: cost_pv[1] must be > 0, got -2.0",
            "project 1: cost_pv[2] must be finite, got inf",
            "project 1: return_pv[1] must be >= 0, got -1.0",
            "project 1: return_pv[3] must be finite, got nan",
        ]

    @pytest.mark.parametrize(
        "change",
        [
            # each table sums to inf, though every entry is finite
            _first_project(cost_pv=(1e308,) * 3),
            _first_project(return_pv=(1e308,) * 3),
            _first_project(return_pv=(0.0, -0.0, 0.0)),
            _first_project(cost_pv=(5e-324, 15.0, 15.0)),
        ],
        ids=["cost-overflow", "return-overflow", "zero-returns", "tiny-cost"],
    )
    def test_boundary_tables_are_valid(self, paper_instance, change):
        from dataclasses import replace

        assert of.validate_instance(replace(paper_instance, **change)) == []

    @pytest.mark.parametrize("second", ["return", "option"])
    def test_values_whose_sum_overflows_are_reported(self, paper_instance, second):
        # project 1 returns 1e308, and so does a second return or option
        # value: a schedule earning both would be valued inf
        from dataclasses import replace

        projects, edges = list(paper_instance.projects), list(paper_instance.edges)
        projects[0] = replace(projects[0], return_pv=(1e308,) * 3)
        if second == "return":
            projects[1] = replace(projects[1], return_pv=(1e308,) * 3)
        else:
            edges[0] = replace(edges[0], option_value=1e308)
        inst = replace(paper_instance, projects=tuple(projects), edges=tuple(edges))
        assert of.validate_instance(inst) == [
            "the projects' largest returns and the option values must have a finite sum, got inf"
        ]

    @pytest.mark.parametrize("case", ["paper", "generated"])
    def test_fractional_q_bound_is_never_solved(self, paper_instance, case):
        # the oracle raised TypeError on q_max 3.0; on the 30-project
        # instance `score` compared counts with 10.5 while the batch
        # truncated it to 10, and they scored one genome differently
        from dataclasses import replace

        from optfolio.valuation import build_tables

        if case == "paper":
            inst = replace(paper_instance, q_max=(3.0, 3, 3))
        else:
            inst = replace(of.generate_instance(30, 3, seed=1), q_max=(10.5, 11, 11))
        with pytest.raises(of.InvalidInstanceError, match=r"q_max\[1\] must be an integer"):
            build_tables(inst)

    @pytest.mark.parametrize("case", ["budgets-overflow", "paper", "two-projects"])
    def test_overflowing_budget_sum_is_never_solved(self, paper_instance, case):
        # each budget is finite, but the violation score divides by their sum
        from dataclasses import replace

        if case == "budgets-overflow":
            inst = replace(paper_instance, budgets=(1e308,) * 3)
        elif case == "paper":
            # one period's excess of 10 divided by an infinite budget sum
            # scored 0: the GA returned an over-budget schedule as its best
            inst = replace(paper_instance, budgets=(1e308, 1e308, 100.0))
        else:
            # costs summing to -inf: `evaluate` called a schedule feasible
            # that the oracle did not count
            inst = of.Instance(
                n_projects=2,
                n_periods=2,
                projects=tuple(
                    of.Project(id=i, label=f"P{i}", cost_pv=(1e308, 1e308), return_pv=(0.0, 0.0))
                    for i in (1, 2)
                ),
                edges=(),
                budgets=(1e308, 1e308),
                q_min=(0, 0),
                q_max=(1, 1),
            )
        assert of.validate_instance(inst) == ["budgets must have a finite sum, got inf"]
        for solve in (of.enumerate_optimal, of.run_ga):
            with pytest.raises(of.InvalidInstanceError, match="finite sum"):
                solve(inst)
        with pytest.raises(of.InvalidInstanceError, match="finite sum"):
            of.evaluate(of.Schedule(period_of=(1,) * inst.n_projects), inst)

    def test_nan_table_entry_does_not_match(self, paper_instance):
        # the match tolerance scales with the entry, and a NaN entry must not
        # scale it out of the test
        from dataclasses import replace

        p0 = replace(paper_instance.projects[0], raw_cost=15.0, cost_pv=(15.0, math.nan, 15.0))
        bad = replace(paper_instance, projects=(p0,) + paper_instance.projects[1:])
        msgs = of.validate_instance(bad)
        assert "project 1: cost_pv[2] = nan does not match raw_cost discounted to period 2 (15.0)" in msgs

    def test_negative_rate_with_raw_cost_is_reported(self, paper_instance):
        from dataclasses import replace

        p0 = replace(paper_instance.projects[0], raw_cost=10.0)
        bad = replace(paper_instance, rate=-0.1, projects=(p0,) + paper_instance.projects[1:])
        assert "rate must be >= 0, got -0.1" in of.validate_instance(bad)

    @pytest.mark.parametrize(
        "field, raw", [("raw_cost", 15.0), ("return_stream", (13.0,))], ids=["cost", "return"]
    )
    def test_rate_too_large_to_discount_is_reported(self, paper_instance, field, raw):
        # (1 + 1e300)^(k - 1) overflows at period 3: a violation, not an exception
        from dataclasses import replace

        p0 = replace(paper_instance.projects[0], **{field: raw})
        bad = replace(paper_instance, rate=1e300, projects=(p0,) + paper_instance.projects[1:])
        msgs = of.validate_instance(bad)
        assert f"project 1: {field} cannot be discounted at rate 1e+300" in msgs

    def test_nan_raw_cost_does_not_match(self, paper_instance):
        from dataclasses import replace

        p0 = replace(paper_instance.projects[0], raw_cost=math.nan)
        bad = replace(paper_instance, projects=(p0,) + paper_instance.projects[1:])
        assert any("does not match" in m for m in of.validate_instance(bad))
