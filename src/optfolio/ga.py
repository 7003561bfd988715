"""Genetic algorithm over project-period assignments.

Individuals are integer gene vectors, one period per project, which
keeps crossover and mutation closed over valid schedules. A genome is
`bytes` when every period fits a byte (N <= 255, the limit the batch
already has) and a tuple of ints otherwise; for equal lengths both
compare in the same lexicographic order, so the tie-break is the same
either way. Bytes hash, slice and join faster than tuples of Python ints.
The returned best is turned back into a tuple. Constraint handling is
feasibility-first comparison rather than penalty weights: any feasible
individual dominates any infeasible one.

Each generation is scored and ranked in one step. Its distinct genomes
not yet in the memo are valued in one statement: one numpy batch
(`batch.score_batch`, bit-identical to `valuation.score`) when they hold
at least BATCH_MIN_GENES genes and every period fits the batch's byte
(N <= 255), else one `score` call each. numpy is imported on the first
batch, so a solve too small to batch never loads it. The memo keeps each
genome's `candidate_key` (violation, -value, genome), computed once,
which encodes the feasibility-first order: the generation's best is
`min(keys)`, the elites are the least keys (equal keys hold equal
genomes), and a tournament returns the genome of its least key.

Random draws. Each restart r seeds its own `random.Random(f"{seed}:{r}")`
and draws, in this order:

1. the first generation: for each of population_size - 1 genomes, one
   period per project, each `randrange(1, N + 1)` (the greedy seed
   genome draws nothing). When N <= 255 all of them are drawn in a few
   calls, by the word rule below;
2. after scoring each generation that another one follows (a restart's
   last generation, ended by stagnation or max_generations, breeds
   nothing, and the elites draw nothing), per pair of children:
   `tournament_size` indices for each of two tournaments, each
   `randrange(population_size)`; when n_p >= 2, one `random()` against
   the crossover rate and, when it crosses, a cut `randrange(1, n_p)`;
   then per child, per gene, one `random()` against the mutation rate and
   for a mutating gene its new period `randrange(1, N)`, shift-skipping
   the current one. Mutation draws nothing when N < 2, and the second
   child of a pair that does not fit the population is never mutated.

Every index draw `randrange(a, a + n)` is made as `a + r`, with
`r = getrandbits(n.bit_length())` drawn again while `r >= n`: the
rejection rule of `Random._randbelow` behind `randrange` (CPython
3.10-3.13), so the same Mersenne Twister words give the same results.

The word rule. `getrandbits(w)` for w <= 32 is the top w bits of the next
32-bit word, and `getrandbits(32 * m)` returns the next m words, least
significant first. So, for N <= 255, the top byte of each of those words
shifted right by 8 - N.bit_length() is the draw that word would give, and
a first generation short of m periods takes the next m words in one call:
each word gives at most one period, so the per-draw loop would take all m
too. `bytes.translate` maps the accepted top bytes to periods and deletes
the rejected ones, and the shortfall is drawn again the same way.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from functools import cache, partial

from .model import Instance, left_sum
from .valuation import EvaluationBreakdown, Tables, _breakdown, build_tables, candidate_key, score

# A generation's new genomes are scored in one numpy batch when they hold at
# least this many genes (genomes x n_p), else one by one with `score`. A
# batch beats the loop from about 60-200 genes on (n_p 7-200, one core of
# a shared 2-vCPU x86 machine), but the first one in a process also imports
# numpy (about 170 ms), which a desk-scale solve never earns back; at 2048 a
# population of 100 batches from n_p=21 up.
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
        for name in (
            "population_size", "max_generations", "stagnation_limit",
            "tournament_size", "elite_count", "restarts",
        ):
            n = getattr(self, name)
            # bool is an int subclass, refused as the loader refuses it
            if isinstance(n, bool) or not isinstance(n, int):
                raise ValueError(f"{name} must be an integer, got {n!r}")
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not (0 <= self.elite_count < self.population_size):
            raise ValueError("elite_count must be < population_size")
        for name in ("crossover_rate", "mutation_rate"):
            r = getattr(self, name)
            if r is None and name == "mutation_rate":
                continue
            # NaN fails the range test
            if isinstance(r, bool) or not isinstance(r, (int, float)) or not 0 <= r <= 1:
                raise ValueError(f"{name} must be a number in [0, 1], got {r!r}")
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
    best_periods: tuple[int, ...]
    best_breakdown: EvaluationBreakdown
    generations_run: int
    trace: tuple[TraceEntry, ...]
    terminated_by: str  # "max_generations" | "stagnation"


def crossover(
    a: bytes | tuple[int, ...], b: bytes | tuple[int, ...], rate: float, rng: random.Random
) -> tuple:
    """Single-point crossover on two genomes of one type, applied with probability rate."""
    n = len(a)
    if len(b) != n:
        raise ValueError("parents must have equal length")
    if n < 2 or rng.random() >= rate:
        return a, b
    # cut = randrange(1, n): one plus a draw below n - 1
    bits, width = rng.getrandbits, (n - 1).bit_length()
    cut = bits(width)
    while cut >= n - 1:
        cut = bits(width)
    cut += 1
    return a[:cut] + b[cut:], b[:cut] + a[cut:]


def mutate(
    genes: bytes | tuple[int, ...], rate: float, n_periods: int, rng: random.Random
) -> bytes | tuple[int, ...]:
    """Per-gene mutation: reassign to a uniformly random *different* period.

    Returns genes itself when no gene mutates, else a genome of its type
    (bytes or tuple).
    """
    if n_periods < 2:
        return genes
    out = None
    draw, bits = rng.random, rng.getrandbits
    others = n_periods - 1  # a mutated gene takes one of the other periods
    width = others.bit_length()
    for i, g in enumerate(genes):
        if draw() < rate:
            # new = randrange(1, n_periods), then shift-skip the current value
            new = bits(width)
            while new >= others:
                new = bits(width)
            new += 1
            if out is None:
                out = list(genes)
            out[i] = new if new < g else new + 1
    return genes if out is None else type(genes)(out)


def tournament_select(keys: list[tuple], k: int, rng: random.Random) -> bytes | tuple[int, ...]:
    """Draw k candidate keys with replacement, return the genome of the least."""
    n = len(keys)
    if not n:
        raise ValueError("population must be non-empty")
    bits, width = rng.getrandbits, n.bit_length()
    # each index is randrange(n)
    i = bits(width)
    while i >= n:
        i = bits(width)
    best = keys[i]
    for _ in range(k - 1):
        i = bits(width)
        while i >= n:
            i = bits(width)
        if keys[i] < best:
            best = keys[i]
    return best[2]


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
    """n_projects draws of randrange(1, n_periods + 1)."""
    bits, width = rng.getrandbits, n_periods.bit_length()
    out = []
    for _ in range(n_projects):
        r = bits(width)
        while r >= n_periods:
            r = bits(width)
        out.append(r + 1)
    return tuple(out)


def _random_genomes(count: int, n_projects: int, n_periods: int, rng: random.Random) -> list:
    """count genomes of n_projects draws of randrange(1, n_periods + 1) each.

    bytes, drawn by the module docstring's word rule, when a period fits a
    byte (n_periods <= 255); else tuples, drawn one period at a time.
    """
    if n_periods > 255:
        return [_random_periods(n_projects, n_periods, rng) for _ in range(count)]
    shift = 8 - n_periods.bit_length()
    limit = n_periods << shift  # top bytes below this give a draw below n_periods
    table = bytes((x >> shift) + 1 for x in range(limit)).ljust(256, b"\0")
    rejected = bytes(range(limit, 256))
    need = count * n_projects
    periods = b""
    while len(periods) < need:
        m = need - len(periods)
        words = rng.getrandbits(32 * m).to_bytes(4 * m, "little")
        periods += words[3::4].translate(table, rejected)
    return [periods[i * n_projects : (i + 1) * n_projects] for i in range(count)]


def run_ga(inst: Instance | Tables, cfg: GaConfig = GaConfig()) -> SolveResult:
    """Run the GA, returning the best individual ever seen across restarts.

    Deterministic: identical (instance, config incl. seed) gives an
    identical result and trace (evaluation is pure and RNG-free; all
    randomness is drawn from one sequential stream per restart).
    """
    tables = build_tables(inst)
    n_p, N = tables.n_projects, tables.n_periods
    mut_rate = cfg.mutation_rate if cfg.mutation_rate is not None else (1.0 / n_p if n_p else 0.0)
    size, k, cx_rate = cfg.population_size, cfg.tournament_size, cfg.crossover_rate
    seed_genome = greedy_seed(tables)
    if N <= 255:  # every period fits a byte: genomes are bytes
        seed_genome = bytes(seed_genome)
    # memoized candidate_key per genome; evaluation is pure
    keyed: dict[bytes | tuple[int, ...], tuple] = {}

    @cache  # built on the first batch, so a solve that never batches never imports numpy
    def batch_scorer():
        from . import batch
        return partial(batch.score_batch, bt=batch.compile_tables(tables))

    best_key: tuple | None = None
    trace: list[TraceEntry] = []
    terminated_by = "max_generations"

    for restart in range(cfg.restarts):
        rng = random.Random(f"{cfg.seed}:{restart}")
        population = [seed_genome, *_random_genomes(size - 1, n_p, N, rng)]
        restart_best_key: tuple | None = None
        stagnant = 0
        terminated_by = "max_generations"

        for gen in range(1, cfg.max_generations + 1):
            new = [p for p in dict.fromkeys(population) if p not in keyed]
            scored = (
                batch_scorer()(new)
                if len(new) * n_p >= BATCH_MIN_GENES and N <= 255
                else [score(p, tables) for p in new]
            )
            keyed.update((p, candidate_key(p, s)) for p, s in zip(new, scored))
            keys = list(map(keyed.__getitem__, population))

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
                    mean_feasible_value=left_sum(feas_vals) / len(feas_vals) if feas_vals else None,
                    feasible_count=len(feas_vals),
                    best_violation=best_key[0],
                )
            )

            if stagnant >= cfg.stagnation_limit:
                terminated_by = "stagnation"
                break
            if gen == cfg.max_generations:
                break  # the last generation breeds no successor

            # elites carry over unchanged (monotone best within a restart)
            next_pop = [key[2] for key in heapq.nsmallest(cfg.elite_count, keys)]
            while len(next_pop) < size:
                p1 = tournament_select(keys, k, rng)
                p2 = tournament_select(keys, k, rng)
                c1, c2 = crossover(p1, p2, cx_rate, rng)
                next_pop.append(mutate(c1, mut_rate, N, rng))
                if len(next_pop) < size:
                    next_pop.append(mutate(c2, mut_rate, N, rng))
            population = next_pop

    assert best_key is not None
    best = tuple(best_key[2])
    return SolveResult(
        best_periods=best,
        best_breakdown=_breakdown(best, tables),
        generations_run=len(trace),
        trace=tuple(trace),
        terminated_by=terminated_by,
    )
