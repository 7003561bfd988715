import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import optfolio as of
from optfolio.ga import _random_periods, greedy_seed, mutate, crossover, tournament_select
from optfolio.valuation import build_tables, candidate_key, score


class TestCrossover:
    def test_known_cut(self):
        class ForcedCut(random.Random):
            def __init__(self, cut):
                super().__init__()
                self.cut = cut

            def random(self):
                return 0.0  # always cross

            def getrandbits(self, k):
                assert k == 2  # the cut is 1 + a draw below 3
                return self.cut - 1

        # each cut gives different children
        a, b = (1, 1, 1, 1), (2, 2, 2, 2)
        assert crossover(a, b, 0.8, ForcedCut(1)) == ((1, 2, 2, 2), (2, 1, 1, 1))
        assert crossover(a, b, 0.8, ForcedCut(2)) == ((1, 1, 2, 2), (2, 2, 1, 1))
        assert crossover(a, b, 0.8, ForcedCut(3)) == ((1, 1, 1, 2), (2, 2, 2, 1))

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
        assert mutate(s, 0.0, 3, random.Random(0)) is s

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
        t = build_tables(inst)
        pop = list(periods_list)
        keys = [candidate_key(p, score(p, t)) for p in pop]
        return pop, keys

    def test_full_tournament_returns_global_best(self, paper_instance):
        pop, keys = self._pop_with_keys(
            paper_instance, [(1, 2, 1, 2, 2, 3, 3), (2, 2, 1, 2, 1, 3, 3), (1,) * 7]
        )
        rng = random.Random(0)
        best = min(zip(keys, pop))[1]
        # k = population size: global best is reachable and frequent
        seen = {tournament_select(keys, len(pop), rng) for _ in range(100)}
        assert best in seen

    def test_feasible_always_beats_infeasible(self, paper_instance):
        pop, keys = self._pop_with_keys(paper_instance, [(1, 2, 1, 2, 2, 3, 3), (1,) * 7])

        class BothDrawn(random.Random):
            # force each tournament to draw the feasible/infeasible pair, in
            # both orders: (1, 0), then (0, 1)
            def __init__(self):
                super().__init__()
                self._next = itertools.cycle((1, 0, 0, 1))

            def getrandbits(self, k):
                assert k == 2  # an index below 2
                return next(self._next)

        rng = BothDrawn()
        for _ in range(100):
            assert tournament_select(keys, 2, rng) == (1, 2, 1, 2, 2, 3, 3)

    def test_selection_pressure_exceeds_uniform(self, paper_instance):
        rng = random.Random(3)
        periods = [tuple(rng.randrange(1, 4) for _ in range(7)) for _ in range(50)]
        pop, keys = self._pop_with_keys(paper_instance, periods)
        best = min(zip(keys, pop))[1]
        draws = Counter(
            tournament_select(keys, 3, rng) for _ in range(10_000)
        )
        assert draws[best] / 10_000 > 1 / len(pop)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            tournament_select([], 3, random.Random(0))


def _randrange_crossover(a, b, rate, rng):
    if len(a) < 2 or rng.random() >= rate:
        return a, b
    cut = rng.randrange(1, len(a))
    return a[:cut] + b[cut:], b[:cut] + a[cut:]


def _randrange_mutate(genes, rate, n_periods, rng):
    if n_periods < 2:
        return genes
    out = list(genes)
    for i, g in enumerate(genes):
        if rng.random() < rate:
            new = rng.randrange(1, n_periods)
            out[i] = new if new < g else new + 1
    return tuple(out)


def _randrange_tournament(keys, k, rng):
    best_i = rng.randrange(len(keys))
    for _ in range(k - 1):
        i = rng.randrange(len(keys))
        if keys[i] < keys[best_i]:
            best_i = i
    return keys[best_i][2]


class _Keys:
    """n candidate keys, made on demand: key i ranks by (i * 7919) mod n."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (0.0, (i * 7919) % self.n, (i,))


def _bounds(hi):
    """Integers in 1..hi, with every power of two and its neighbours likely."""
    edges = sorted({2**k + d for k in range(hi.bit_length()) for d in (-1, 0, 1)} & set(range(1, hi + 1)))
    return st.one_of(st.sampled_from(edges), st.integers(1, hi))


class TestDrawsMatchRandrange:
    """Each index draw takes the same Mersenne Twister words as `randrange`.

    The GA draws an index below n as getrandbits(n.bit_length()), redrawn
    while it is >= n. These compare each GA function with its definition in
    terms of `randrange`, draw for draw, and the generator states after.
    """

    SEEDS = st.integers(0, 2**64)

    @given(SEEDS, _bounds(2**20), st.integers(1, 30))
    @settings(max_examples=200, deadline=None)
    def test_index_below_n(self, seed, n, draws):
        rng, ref = random.Random(seed), random.Random(seed)
        keys = _Keys(n)
        for _ in range(draws):
            assert tournament_select(keys, 1, rng) == (ref.randrange(n),)
        assert rng.getstate() == ref.getstate()

    @given(SEEDS, _bounds(2**20), st.integers(1, 30))
    @settings(max_examples=200, deadline=None)
    def test_random_periods(self, seed, n_periods, n_projects):
        rng, ref = random.Random(seed), random.Random(seed)
        want = tuple(ref.randrange(1, n_periods + 1) for _ in range(n_projects))
        assert _random_periods(n_projects, n_periods, rng) == want
        assert rng.getstate() == ref.getstate()

    @given(SEEDS, _bounds(2**20), st.integers(1, 6), st.integers(1, 20))
    @settings(max_examples=200, deadline=None)
    def test_tournament(self, seed, n, k, draws):
        rng, ref = random.Random(seed), random.Random(seed)
        keys = _Keys(n)
        for _ in range(draws):
            assert tournament_select(keys, k, rng) == _randrange_tournament(keys, k, ref)
        assert rng.getstate() == ref.getstate()

    @given(SEEDS, _bounds(2**20), st.integers(1, 12), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_mutate(self, seed, n_periods, n_genes, rate):
        rng, ref = random.Random(seed), random.Random(seed)
        genes = tuple(random.Random(seed + 1).randint(1, n_periods) for _ in range(n_genes))
        for _ in range(5):
            assert mutate(genes, rate, n_periods, rng) == _randrange_mutate(genes, rate, n_periods, ref)
        assert rng.getstate() == ref.getstate()

    @given(SEEDS, _bounds(2**12), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_crossover(self, seed, n, rate):
        rng, ref = random.Random(seed), random.Random(seed)
        a, b = tuple(range(n)), tuple(range(n, 2 * n))
        for _ in range(5):
            assert crossover(a, b, rate, rng) == _randrange_crossover(a, b, rate, ref)
        assert rng.getstate() == ref.getstate()


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

    @pytest.mark.parametrize("limit", [0, -3])
    def test_stagnation_limit_below_one_refused(self, limit):
        with pytest.raises(ValueError, match="stagnation_limit"):
            of.GaConfig(stagnation_limit=limit)


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
    s = greedy_seed(of.build_tables(paper_instance))
    assert len(s) == 7
    assert all(1 <= k <= 3 for k in s)
