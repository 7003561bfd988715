"""Genetic algorithm over project-period assignments.

Individuals are integer gene vectors (one period per project, as plain
tuples), which keeps crossover and mutation closed over valid schedules;
a Schedule is built only for the returned best. Constraint handling is
feasibility-first comparison rather than penalty weights: any feasible
individual dominates any infeasible one.

Each generation is scored and ranked in one step. Its distinct genomes
not yet in the score memo are valued in one statement: one numpy batch
(`batch.score_batch`, bit-identical to `valuation.score`) when they hold
at least BATCH_MIN_GENES genes, else one `score` call each. numpy is
imported on the first batch, so a solve too small to batch never loads
it. Each member's `candidate_key` (violation, -value, genome) encodes the
feasibility-first order: the generation's best is `min(keys)`, the
elites are the first sorted keys (equal keys hold equal genomes), and a
tournament returns the genome of its least key.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, partial

from .model import Instance, Schedule
from .valuation import EvaluationBreakdown, Tables, _breakdown, build_tables, candidate_key, score

# A generation's new genomes are scored in one numpy batch when they hold at
# least this many genes (genomes x n_p), else one by one with `score`. A
# batch beats the loop from about 90-500 genes on, but the first one in a
# process also imports numpy (about 170 ms), which a desk-scale solve never
# earns back; at 2048 a population of 100 batches from n_p=21 up.
BATCH_MIN_GENES = 2048


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 100
    max_generations: int = 200
    stagnation_limit: int = 50
    tournament_size: int = 3
    crossover_rate: float = 0.8
    mutation_rate: float | None = None  # None resolves to 1/n_p per gene
    elite_count: int = 2
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not (0 <= self.elite_count < self.population_size):
            raise ValueError("elite_count must be < population_size")
        for name in ("crossover_rate", "mutation_rate"):
            r = getattr(self, name)
            if r is not None and not (0.0 <= r <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        if self.stagnation_limit < 1:
            raise ValueError("stagnation_limit must be >= 1")


@dataclass(frozen=True)
class TraceEntry:
    generation: int
    best_value: float
    mean_feasible_value: float | None  # None when the generation has no feasible member
    feasible_count: int
    best_violation: float


@dataclass(frozen=True)
class SolveResult:
    best_schedule: Schedule
    best_breakdown: EvaluationBreakdown
    generations_run: int
    trace: tuple[TraceEntry, ...]
    terminated_by: str  # "max_generations" | "stagnation"


def crossover(
    a: tuple[int, ...], b: tuple[int, ...], rate: float, rng: random.Random
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Single-point crossover on period tuples, applied with probability rate."""
    n = len(a)
    if len(b) != n:
        raise ValueError("parents must have equal length")
    if n < 2 or rng.random() >= rate:
        return a, b
    cut = rng.randrange(1, n)
    return a[:cut] + b[cut:], b[:cut] + a[cut:]


def mutate(
    genes: tuple[int, ...], rate: float, n_periods: int, rng: random.Random
) -> tuple[int, ...]:
    """Per-gene mutation: reassign to a uniformly random *different* period."""
    if n_periods < 2:
        return genes
    out = list(genes)
    draw = rng.random
    for i, g in enumerate(genes):
        if draw() < rate:
            new = rng.randrange(1, n_periods)  # shift-skip the current value
            out[i] = new if new < g else new + 1
    return tuple(out)


def tournament_select(keys: list[tuple], k: int, rng: random.Random) -> tuple[int, ...]:
    """Draw k candidate keys with replacement, return the genome of the least."""
    if not keys:
        raise ValueError("population must be non-empty")
    best_i = rng.randrange(len(keys))
    for _ in range(k - 1):
        i = rng.randrange(len(keys))
        if keys[i] < keys[best_i]:
            best_i = i
    return keys[best_i][2]


def greedy_seed(t: Tables) -> tuple[int, ...]:
    """Cheapest-first fill into earliest periods under budget and q_max.

    Used to seed one individual per restart; may be infeasible (the GA
    repairs that through search).
    """
    order = sorted(range(t.n_projects), key=lambda i: (t.cost[i][0], i))
    periods = [t.n_periods] * t.n_projects
    spent = [0.0] * t.n_periods
    count = [0] * t.n_periods
    for i in order:
        for k in range(t.n_periods):
            c = t.cost[i][k]
            if count[k] < t.q_max[k] and spent[k] + c <= t.budgets[k]:
                periods[i] = k + 1
                spent[k] += c
                count[k] += 1
                break
    return tuple(periods)


def _random_periods(n_projects: int, n_periods: int, rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randrange(1, n_periods + 1) for _ in range(n_projects))


def run_ga(inst: Instance | Tables, cfg: GaConfig = GaConfig()) -> SolveResult:
    """Run the GA, returning the best individual ever seen across restarts.

    Deterministic: identical (instance, config incl. seed) gives an
    identical result and trace (evaluation is pure and RNG-free; all
    randomness is drawn from one sequential stream per restart).
    """
    tables = build_tables(inst)
    n_p, N = tables.n_projects, tables.n_periods
    mut_rate = cfg.mutation_rate if cfg.mutation_rate is not None else (1.0 / n_p if n_p else 0.0)
    seed_genome = greedy_seed(tables)
    # memoized (violation, value) per period tuple; evaluation is pure
    scores: dict[tuple[int, ...], tuple[float, float]] = {}

    @cache  # built on the first batch, so a solve that never batches never imports numpy
    def batch_scorer():
        from . import batch
        return partial(batch.score_batch, bt=batch.compile_tables(tables))

    best_key: tuple | None = None
    trace: list[TraceEntry] = []
    terminated_by = "max_generations"

    for restart in range(cfg.restarts):
        rng = random.Random(f"{cfg.seed}:{restart}")
        population = [seed_genome] + [
            _random_periods(n_p, N, rng) for _ in range(cfg.population_size - 1)
        ]
        restart_best_key: tuple | None = None
        stagnant = 0
        terminated_by = "max_generations"

        for _gen in range(cfg.max_generations):
            new = [p for p in dict.fromkeys(population) if p not in scores]
            scores.update(
                zip(new, batch_scorer()(new))
                if len(new) * n_p >= BATCH_MIN_GENES
                else ((p, score(p, tables)) for p in new)
            )
            keys = [candidate_key(p, scores[p]) for p in population]

            gen_best = min(keys)
            if restart_best_key is None or gen_best < restart_best_key:
                restart_best_key, stagnant = gen_best, 0
            else:
                stagnant += 1
            best_key = gen_best if best_key is None else min(best_key, gen_best)

            feas_vals = [-key[1] for key in keys if key[0] == 0.0]
            trace.append(
                TraceEntry(
                    generation=len(trace),
                    best_value=-best_key[1],
                    mean_feasible_value=sum(feas_vals) / len(feas_vals) if feas_vals else None,
                    feasible_count=len(feas_vals),
                    best_violation=best_key[0],
                )
            )

            if stagnant >= cfg.stagnation_limit:
                terminated_by = "stagnation"
                break

            # elites carry over unchanged (monotone best within a restart)
            next_pop = [key[2] for key in sorted(keys)[: cfg.elite_count]]
            while len(next_pop) < cfg.population_size:
                p1 = tournament_select(keys, cfg.tournament_size, rng)
                p2 = tournament_select(keys, cfg.tournament_size, rng)
                c1, c2 = crossover(p1, p2, cfg.crossover_rate, rng)
                next_pop.append(mutate(c1, mut_rate, N, rng))
                if len(next_pop) < cfg.population_size:
                    next_pop.append(mutate(c2, mut_rate, N, rng))
            population = next_pop

    assert best_key is not None
    return SolveResult(
        best_schedule=Schedule(period_of=best_key[2]),
        best_breakdown=_breakdown(best_key[2], tables),
        generations_run=len(trace),
        trace=tuple(trace),
        terminated_by=terminated_by,
    )
