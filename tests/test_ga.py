import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import optfolio as of
from optfolio.ga import greedy_seed, mutate, crossover, tournament_select, repair
from optfolio.model import Chromosome
from optfolio.valuation import candidate_key, evaluate


class TestRepair:
    def test_valid_chromosome_passes_through(self):
        chrom = Chromosome.from_text("100\n010\n100\n010\n010\n001\n001")
        s = repair(chrom, random.Random(0))
        assert s.period_of == (1, 2, 1, 2, 2, 3, 3)

    def test_multi_set_row_keeps_one_set_bit(self):
        chrom = Chromosome(bits=((1, 1, 1),))
        rng = random.Random(0)
        picks = {repair(chrom, rng).period_of[0] for _ in range(200)}
        assert picks == {1, 2, 3}

    def test_forced_choice(self):
        class Forced(random.Random):
            def choice(self, seq):
                return seq[0]

        chrom = Chromosome(bits=((1, 1, 1),))
        assert repair(chrom, Forced()).period_of == (1,)

    @given(st.integers(1, 8), st.integers(1, 4), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_random_matrices_repair_to_valid_schedules(self, n_p, n_periods, rng):
        bits = tuple(
            tuple(rng.randrange(2) for _ in range(n_periods)) for _ in range(n_p)
        )
        s = repair(Chromosome(bits=bits), rng)
        assert len(s.period_of) == n_p
        assert all(1 <= k <= n_periods for k in s.period_of)


class TestCrossover:
    def test_known_cut(self):
        class ForcedCut(random.Random):
            def random(self):
                return 0.0  # always cross

            def randrange(self, *a):
                return 1

        a, b = (1, 2, 3), (3, 2, 1)
        c1, c2 = crossover(a, b, 0.8, ForcedCut())
        assert c1 == (1, 2, 1)
        assert c2 == (3, 2, 3)

    def test_rate_zero_is_identity(self):
        rng = random.Random(1)
        a, b = (1, 2, 3), (3, 2, 1)
        assert crossover(a, b, 0.0, rng) == (a, b)

    def test_single_gene_degrades_to_identity(self):
        rng = random.Random(1)
        a, b = (1,), (2,)
        assert crossover(a, b, 1.0, rng) == (a, b)

    @given(st.integers(2, 8), st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_per_position_multiset_preserved(self, n_p, rng):
        a = tuple(rng.randrange(1, 4) for _ in range(n_p))
        b = tuple(rng.randrange(1, 4) for _ in range(n_p))
        c1, c2 = crossover(a, b, 1.0, rng)
        for i in range(n_p):
            assert {a[i], b[i]} == {c1[i], c2[i]}


class TestMutate:
    def test_rate_zero_is_identity(self):
        s = (1, 2, 3)
        assert mutate(s, 0.0, 3, random.Random(0)) == s

    def test_rate_one_two_periods_flips_every_gene(self):
        s = (1, 2, 1, 2)
        assert mutate(s, 1.0, 2, random.Random(0)) == (2, 1, 2, 1)

    def test_expected_changes_about_one_per_individual(self):
        n_p = 7
        rng = random.Random(42)
        s = (1,) * n_p
        trials = 10_000
        changed = sum(
            sum(g != 1 for g in mutate(s, 1 / n_p, 3, rng)) for _ in range(trials)
        )
        mean = changed / trials
        # binomial(n_p, 1/n_p): mean 1, sigma ~ sqrt(6/7)/100 per-trial average
        sigma = (n_p * (1 / n_p) * (1 - 1 / n_p) / trials) ** 0.5
        assert abs(mean - 1.0) < 3 * sigma


class TestTournamentSelect:
    def _pop_with_keys(self, inst, periods_list):
        pop = [of.Schedule(period_of=p) for p in periods_list]
        keys = [candidate_key(s, evaluate(s, inst)) for s in pop]
        return pop, keys

    def test_full_tournament_returns_global_best(self, paper_instance):
        pop, keys = self._pop_with_keys(
            paper_instance, [(1, 2, 1, 2, 2, 3, 3), (2, 2, 1, 2, 1, 3, 3), (1,) * 7]
        )
        rng = random.Random(0)
        best = min(zip(keys, pop))[1]
        # k = population size: global best is reachable and frequent
        seen = {tournament_select(pop, keys, len(pop), rng) for _ in range(100)}
        assert best in seen

    def test_feasible_always_beats_infeasible(self, paper_instance):
        pop, keys = self._pop_with_keys(paper_instance, [(1, 2, 1, 2, 2, 3, 3), (1,) * 7])

        class BothDrawn(random.Random):
            # force the tournament to contain the feasible/infeasible pair
            def __init__(self):
                super().__init__()
                self._next = 0

            def randrange(self, *a):
                self._next ^= 1
                return self._next

        rng = BothDrawn()
        for _ in range(100):
            assert tournament_select(pop, keys, 2, rng).period_of == (1, 2, 1, 2, 2, 3, 3)

    def test_selection_pressure_exceeds_uniform(self, paper_instance):
        rng = random.Random(3)
        periods = [tuple(rng.randrange(1, 4) for _ in range(7)) for _ in range(50)]
        pop, keys = self._pop_with_keys(paper_instance, periods)
        best = min(zip(keys, pop))[1]
        draws = Counter(
            tournament_select(pop, keys, 3, rng).period_of for _ in range(10_000)
        )
        assert draws[best.period_of] / 10_000 > 1 / len(pop)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            tournament_select([], [], 3, random.Random(0))


class TestGaConfig:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            of.GaConfig(population_size=1)
        with pytest.raises(ValueError):
            of.GaConfig(elite_count=100, population_size=100)
        with pytest.raises(ValueError):
            of.GaConfig(crossover_rate=1.5)
        with pytest.raises(ValueError):
            of.GaConfig(tournament_size=0)


class TestRunGa:
    def test_finds_paper_optimum(self, paper_instance):
        res = of.run_ga(paper_instance, of.GaConfig(seed=1))
        assert res.best_breakdown.feasible
        assert res.best_breakdown.total_value == 203
        assert res.best_schedule.period_of == (1, 2, 1, 2, 2, 3, 3)

    def test_search_space_of_size_one(self):
        inst = of.Instance(
            n_projects=2,
            n_periods=1,
            projects=(
                of.Project(id=1, label="a", cost_pv=(10,), return_pv=(20,)),
                of.Project(id=2, label="b", cost_pv=(10,), return_pv=(30,)),
            ),
            edges=(),
            budgets=(100.0,),
            q_min=(2,),
            q_max=(2,),
        )
        res = of.run_ga(inst, of.GaConfig(seed=0, max_generations=1, stagnation_limit=1))
        assert res.best_schedule.period_of == (1, 1)
        assert res.best_breakdown.total_value == 30

    def test_same_seed_identical_traces(self, paper_instance):
        a = of.run_ga(paper_instance, of.GaConfig(seed=9))
        b = of.run_ga(paper_instance, of.GaConfig(seed=9))
        assert a.trace == b.trace
        assert a.best_schedule == b.best_schedule

    def test_trace_shape_and_monotonicity(self, paper_instance):
        res = of.run_ga(paper_instance, of.GaConfig(seed=2))
        assert len(res.trace) == res.generations_run
        assert res.terminated_by in ("max_generations", "stagnation")
        for prev, cur in zip(res.trace, res.trace[1:]):
            assert cur.best_violation <= prev.best_violation
            if cur.best_violation == prev.best_violation:
                assert cur.best_value >= prev.best_value

    def test_infeasible_instance_reports_violations(self):
        # budget too small for any assignment
        inst = of.Instance(
            n_projects=1,
            n_periods=2,
            projects=(of.Project(id=1, label="a", cost_pv=(10, 10), return_pv=(5, 5)),),
            edges=(),
            budgets=(1.0, 1.0),
            q_min=(0, 0),
            q_max=(1, 1),
        )
        res = of.run_ga(inst, of.GaConfig(seed=0, max_generations=5, stagnation_limit=3))
        assert not res.best_breakdown.feasible
        assert res.best_breakdown.violation_score > 0

    def test_rejects_invalid_instance(self, paper_instance):
        bad = replace(paper_instance, q_max=(2, 2, 2))
        with pytest.raises(ValueError, match="q_max"):
            of.run_ga(bad, of.GaConfig(seed=0))

    def test_population_individuals_always_valid(self, paper_instance):
        # indirect: the result of a short noisy run is a valid schedule
        res = of.run_ga(
            paper_instance,
            of.GaConfig(seed=3, max_generations=5, stagnation_limit=5, mutation_rate=0.5),
        )
        assert len(res.best_schedule.period_of) == 7
        assert all(1 <= k <= 3 for k in res.best_schedule.period_of)


def test_greedy_seed_is_a_valid_schedule(paper_instance):
    s = greedy_seed(paper_instance)
    assert len(s) == 7
    assert all(1 <= k <= 3 for k in s)
