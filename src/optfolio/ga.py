"""Genetic algorithm over project-period assignments.

Individuals are integer gene vectors (one period per project, as plain
tuples), which keeps crossover and mutation closed over valid schedules;
a Schedule is built only for the returned best. The bit-matrix
chromosome remains the interchange format (model.encode/decode, plus
repair here for raw bit matrices). Constraint handling is feasibility-
first comparison rather than penalty weights: any feasible individual
dominates any infeasible one.

Each generation's genomes not yet in the score memo are valued together:
one numpy batch (`batch.score_batch`, bit-identical to `valuation.score`)
when they hold at least BATCH_MIN_GENES genes, else one `score` call each.
numpy is imported on the first batch, so a solve too small to batch never
loads it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from .model import Chromosome, Instance, Schedule
from .valuation import EvaluationBreakdown, _breakdown, build_tables, score

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


def repair(c: Chromosome, rng: random.Random) -> Schedule:
    """Turn any bit matrix into a valid schedule.

    One-set-bit rows map directly; multi-set rows keep one set bit chosen
    uniformly; empty rows get a uniformly random period.
    """
    periods = []
    n_periods = c.n_periods
    for row in c.bits:
        set_cols = [j for j, b in enumerate(row) if b]
        if len(set_cols) == 1:
            periods.append(set_cols[0] + 1)
        elif set_cols:
            periods.append(rng.choice(set_cols) + 1)
        else:
            periods.append(rng.randrange(n_periods) + 1)
    return Schedule(period_of=tuple(periods))


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


def tournament_select(
    population: list,
    keys: list[tuple],
    k: int,
    rng: random.Random,
):
    """Draw k individuals with replacement, return the feasibility-first best."""
    if not population:
        raise ValueError("population must be non-empty")
    best_i = rng.randrange(len(population))
    for _ in range(k - 1):
        i = rng.randrange(len(population))
        if keys[i] < keys[best_i]:
            best_i = i
    return population[best_i]


def greedy_seed(inst: Instance) -> tuple[int, ...]:
    """Cheapest-first fill into earliest periods under budget and q_max.

    Used to seed one individual per restart; may be infeasible (the GA
    repairs that through search).
    """
    order = sorted(range(inst.n_projects), key=lambda i: (inst.projects[i].cost_pv[0], i))
    periods = [inst.n_periods] * inst.n_projects
    spent = [0.0] * inst.n_periods
    count = [0] * inst.n_periods
    for i in order:
        for k in range(inst.n_periods):
            c = inst.projects[i].cost_pv[k]
            if count[k] < inst.q_max[k] and spent[k] + c <= inst.budgets[k]:
                periods[i] = k + 1
                spent[k] += c
                count[k] += 1
                break
    return tuple(periods)


def _random_periods(n_projects: int, n_periods: int, rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randrange(1, n_periods + 1) for _ in range(n_projects))


def run_ga(inst: Instance, cfg: GaConfig = GaConfig()) -> SolveResult:
    """Run the GA, returning the best individual ever seen across restarts.

    Deterministic: identical (instance, config incl. seed) gives an
    identical result and trace (evaluation is pure and RNG-free; all
    randomness is drawn from one sequential stream per restart).
    """
    tables = build_tables(inst)
    n_p, N = inst.n_projects, inst.n_periods
    mut_rate = cfg.mutation_rate if cfg.mutation_rate is not None else (1.0 / n_p if n_p else 0.0)
    # memoized (violation, value) per period tuple; evaluation is pure
    scores: dict[tuple[int, ...], tuple[float, float]] = {}
    score_batch = None  # built on first use, so a solve that never batches never imports numpy

    best_key: tuple | None = None
    trace: list[TraceEntry] = []
    terminated_by = "max_generations"
    gen_index = 0

    for restart in range(cfg.restarts):
        rng = random.Random(f"{cfg.seed}:{restart}")
        population = [greedy_seed(inst)] + [
            _random_periods(n_p, N, rng) for _ in range(cfg.population_size - 1)
        ]
        restart_best_key: tuple | None = None
        stagnant = 0
        terminated_by = "max_generations"

        for _gen in range(cfg.max_generations):
            new = [p for p in population if p not in scores]
            if len(new) * n_p >= BATCH_MIN_GENES:
                if score_batch is None:
                    from . import batch

                    score_batch = partial(batch.score_batch, bt=batch.compile_tables(tables))
                scores.update(zip(new, score_batch(new)))
            else:
                for p in new:
                    if p not in scores:  # a genome can occur twice in a population
                        scores[p] = score(p, tables)
            sc = [scores[p] for p in population]
            keys = [(v, -val, p) for p, (v, val) in zip(population, sc)]

            improved = False
            for key in keys:
                if restart_best_key is None or key < restart_best_key:
                    restart_best_key = key
                    improved = True
                if best_key is None or key < best_key:
                    best_key = key
            stagnant = 0 if improved else stagnant + 1

            feas_vals = [val for (v, val) in sc if v == 0.0]
            trace.append(
                TraceEntry(
                    generation=gen_index,
                    best_value=-best_key[1],
                    mean_feasible_value=sum(feas_vals) / len(feas_vals) if feas_vals else None,
                    feasible_count=len(feas_vals),
                    best_violation=best_key[0],
                )
            )
            gen_index += 1

            if stagnant >= cfg.stagnation_limit:
                terminated_by = "stagnation"
                break

            # elites carry over unchanged (monotone best within a restart)
            elite_order = sorted(range(len(population)), key=lambda i: keys[i])
            next_pop = [population[i] for i in elite_order[: cfg.elite_count]]
            while len(next_pop) < cfg.population_size:
                p1 = tournament_select(population, keys, cfg.tournament_size, rng)
                p2 = tournament_select(population, keys, cfg.tournament_size, rng)
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
