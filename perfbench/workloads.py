"""Benchmark inputs: the four workloads and the CLI calls each one makes.

Every input is derived from the benchmark seed. optfolio sees only the JSON
documents written here and the command lines built here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# The command whose per-call time is the gated `call_ms_p50` of each workload.
PRIMARY = {
    "desk-certify": "solve",
    "large-solve": "solve",
    "exact-search": "exact",
    "whatif-evaluate": "evaluate",
}

# What the traced run should show for each workload: (claim, figure from
# the per-layer metrics, test the figure passes when the claim holds).
STRESS = {
    "desk-certify": (
        "ga.score_ms is a small share of ga.run_ms",
        lambda m: m["ga.score_ms"] / m["ga.run_ms"],
        lambda share: share < 0.5,
    ),
    "large-solve": (
        "ga.score_ms is the majority of ga.run_ms",
        lambda m: m["ga.score_ms"] / m["ga.run_ms"],
        lambda share: share > 0.5,
    ),
    "exact-search": (
        "oracle.leaves_per_call is at least 1e4",
        lambda m: m["oracle.leaves_per_call"],
        lambda leaves: leaves >= 1e4,
    ),
    "whatif-evaluate": (
        "valuation.evaluate time is the majority of cli.main_ms",
        lambda m: m["valuation.evaluate_us"] * m["valuation.evaluate_calls"] / 1e3 / m["cli.main_ms"],
        lambda share: share > 0.5,
    ),
}

# exact-search: projects 1..n_p are split, in id order, into chains of hard
# dependencies of these lengths. Budgets never bind and q_max is the
# generator's, so every seed gives exactly the same number of feasible
# leaves per size (28518, 20178 and 25218) and the same DFS tree shape.
# Generator instances at edge density 0.1 range from 4e3 to 2e5 leaves
# (0.15 s to 5.3 s per call), which no run of tens of seconds can average.
EXACT_CHAINS = {
    12: (2, 2, 2, 2, 2),
    13: (3, 3, 3, 2, 2),
    14: (3, 3, 3, 3, 2),
}


@dataclass(frozen=True)
class Call:
    """One `optfolio` command line: `kind INSTANCE *options`."""

    kind: str  # "solve" | "exact" | "evaluate"
    instance: str  # file name of the instance document
    options: tuple[str, ...] = ()
    schedule: tuple[int, ...] | None = None  # the schedule an evaluate call passes


@dataclass
class Inputs:
    documents: dict[str, str]  # file name -> JSON text, in write order
    calls: list[Call]


def _text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def desk_certify(opt, seed: int, small: bool) -> Inputs:
    """Certification-corpus shape: n_p 5..8 and N 2..3 in equal shares."""
    docs, calls = {}, []
    for i in range(2 if small else 24):
        n_p, n_periods = 5 + i % 4, 2 + (i // 4) % 2
        name = f"desk-{i:02d}.json"
        inst = opt.generate_instance(n_p, n_periods, seed=seed * 1000 + i)
        docs[name] = _text(opt.instance_to_dict(inst))
        calls.append(Call("solve", name, ("--seed", str(seed), "--restarts", "5")))
        calls.append(Call("exact", name))
    return Inputs(docs, calls)


def large_solve(opt, seed: int, small: bool) -> Inputs:
    """A fixed number of GA generations at n_p=200, N=6, edge density 0.05."""
    n_p, n_periods, count, generations = (30, 3, 1, 2) if small else (200, 6, 3, 10)
    gens = str(generations)
    docs, calls = {}, []
    for i in range(count):
        name = f"large-{i}.json"
        inst = opt.generate_instance(n_p, n_periods, edge_density=0.05, seed=seed * 1000 + 100 + i)
        docs[name] = _text(opt.instance_to_dict(inst))
        options = ("--seed", str(seed), "--generations", gens, "--stagnation", gens)
        calls.append(Call("solve", name, options))
    return Inputs(docs, calls)


def _exact_document(opt, n_p: int, chains: tuple[int, ...], gen_seed: int) -> dict:
    doc = opt.instance_to_dict(opt.generate_instance(n_p, 3, edge_density=0.0, seed=gen_seed))
    rng = random.Random(f"exact-edges:{gen_seed}")
    costs = sorted((max(p["cost_pv"]) for p in doc["projects"]), reverse=True)
    doc["budgets"] = [sum(costs[: max(doc["q_max"])]) + 1.0] * 3
    edges, first = [], 1
    for length in chains:
        for pred in range(first, first + length - 1):
            edges.append(
                {"predecessor": pred, "dependent": pred + 1, "level": 1.0,
                 "option_value": rng.uniform(0.0, 20.0)}
            )
        first += length
    # partial edges scale benefits but never prune the search
    pairs = {(e["predecessor"], e["dependent"]) for e in edges}
    hard = len(edges)
    while len(edges) < hard + n_p // 2:
        pred, dep = sorted(rng.sample(range(1, n_p + 1), 2))
        if (pred, dep) not in pairs:
            pairs.add((pred, dep))
            edges.append(
                {"predecessor": pred, "dependent": dep, "level": rng.uniform(0.05, 0.95),
                 "option_value": rng.uniform(0.0, 20.0)}
            )
    doc["edges"] = edges
    return doc


def exact_search(opt, seed: int, small: bool) -> Inputs:
    """The DFS oracle on one instance each of n_p 12, 13 and 14 with N=3."""
    sizes = {8: (2, 2)} if small else EXACT_CHAINS
    docs, calls = {}, []
    for n_p, chains in sizes.items():
        name = f"exact-{n_p}.json"
        docs[name] = _text(_exact_document(opt, n_p, chains, seed * 1000 + 200 + n_p))
        calls.append(Call("exact", name))
    return Inputs(docs, calls)


def whatif_evaluate(opt, seed: int, small: bool) -> Inputs:
    """Random schedules on one n_p=50, N=5 instance; each call reloads the file."""
    n_p, n_periods, count = (8, 3, 3) if small else (50, 5, 80)
    name = "whatif.json"
    inst = opt.generate_instance(n_p, n_periods, seed=seed * 1000 + 300)
    rng = random.Random(f"whatif:{seed}")
    calls = []
    for _ in range(count):
        schedule = tuple(rng.randint(1, n_periods) for _ in range(n_p))
        calls.append(Call("evaluate", name, (",".join(map(str, schedule)),), schedule))
    return Inputs({name: _text(opt.instance_to_dict(inst))}, calls)


BUILDERS = {
    "desk-certify": desk_certify,
    "large-solve": large_solve,
    "exact-search": exact_search,
    "whatif-evaluate": whatif_evaluate,
}
