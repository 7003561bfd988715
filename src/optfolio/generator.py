"""Random instance generation for certification and benchmarking.

Instances are acyclic by construction (edges only run from lower to higher
project id) and always pass validate_instance. Generation is deterministic
per seed.
"""

from __future__ import annotations

import math
import random

from .model import DependencyEdge, Instance, Project, left_sum


def generate_instance(
    n_projects: int,
    n_periods: int,
    edge_density: float = 0.3,
    partial_fraction: float = 0.3,
    budget_tightness: float = 1.25,
    seed: int = 0,
) -> Instance:
    """Sample a valid random instance.

    Costs are uniform in [10, 150] (constant across periods, as in simple
    PV tables), returns uniform in [0.5*cost, 3*cost]. Each lower-to-higher
    id pair carries an edge with probability edge_density; the edge is
    total with probability (1 - partial_fraction), otherwise its level is
    uniform in (0, 1). Per-period budgets are budget_tightness times the
    average per-period cost load.
    """
    for name, n in (("n_projects", n_projects), ("n_periods", n_periods)):
        # bool is an int subclass, refused as the loader refuses it
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"{name} must be an integer, got {n!r}")
    if n_projects < 1:
        raise ValueError("n_projects must be >= 1")
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    if not (0.0 <= edge_density <= 1.0):
        raise ValueError("edge_density must be in [0, 1]")
    if not (0.0 <= partial_fraction <= 1.0):
        raise ValueError("partial_fraction must be in [0, 1]")
    if budget_tightness <= 0:
        raise ValueError("budget_tightness must be > 0")

    rng = random.Random(f"optfolio-gen:{seed}")
    projects = []
    for pid in range(1, n_projects + 1):
        cost = rng.uniform(10.0, 150.0)
        ret = rng.uniform(0.5 * cost, 3.0 * cost)
        projects.append(
            Project(
                id=pid,
                label=f"P{pid}",
                cost_pv=(cost,) * n_periods,
                return_pv=(ret,) * n_periods,
            )
        )

    edges = []
    for j in range(1, n_projects + 1):
        for i in range(j + 1, n_projects + 1):
            if rng.random() < edge_density:
                if rng.random() < partial_fraction:
                    level = rng.random()
                    while not (0.0 < level < 1.0):
                        level = rng.random()
                else:
                    level = 1.0
                edges.append(
                    DependencyEdge(
                        predecessor=j,
                        dependent=i,
                        level=level,
                        option_value=rng.uniform(0.0, 20.0),
                    )
                )

    total_cost = left_sum(p.cost_pv[0] for p in projects)
    budget = budget_tightness * total_cost / n_periods
    # a NaN or infinite factor, or one large enough to overflow, passes the check above
    if not math.isfinite(budget):
        raise ValueError(f"budget_tightness {budget_tightness} gives non-finite budgets")
    q_max_val = min(n_projects, math.ceil(n_projects / n_periods) + 1)
    return Instance(
        n_projects=n_projects,
        n_periods=n_periods,
        projects=tuple(projects),
        edges=tuple(edges),
        budgets=(budget,) * n_periods,
        q_min=(0,) * n_periods,
        q_max=(q_max_val,) * n_periods,
        rate=0.0,
        total_dependency_mode="hard",
    )
