"""Domain types for multi-period project portfolios.

A portfolio instance is a set of projects, each with a present-value cost
and return for every candidate funding period, plus directed dependency
edges carrying an option value and a dependency level. A schedule assigns
every project to exactly one period, as a period-per-project vector.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

MONEY_TOL = 1e-9

TOTAL_DEPENDENCY_MODES = ("hard", "soft")


def left_sum(values) -> float:
    """The float sum of values, added one at a time from 0.0, left to right.

    Every total the package prints or divides by is summed this way, not
    with builtin sum(): from Python 3.12 that sum is compensated, so its
    digits would change with the interpreter.
    """
    return functools.reduce(operator.add, values, 0.0)


def cost_present_value(raw_cost: float, rate: float, k: int) -> float:
    """Discount a cost funded at the start of period k back to time zero.

    Period 1 means funding at time zero, so the divisor is (1+rate)^(k-1).
    """
    if k < 1:
        raise ValueError(f"period index must be >= 1, got {k}")
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    return raw_cost / (1.0 + rate) ** (k - 1)


def return_present_value(stream: list[float], rate: float, k: int) -> float:
    """Present value at time zero of a return stream for funding in period k.

    The stream pays at the end of periods 1..x measured from the funding
    date; the discounted sum is then brought back to time zero by another
    (1+rate)^(k-1) so values are comparable across funding periods.
    """
    if not stream:
        raise ValueError("return stream must be non-empty")
    if k < 1:
        raise ValueError(f"period index must be >= 1, got {k}")
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    at_funding = left_sum(r / (1.0 + rate) ** t for t, r in enumerate(stream, start=1))
    return at_funding / (1.0 + rate) ** (k - 1)


@dataclass(frozen=True)
class Project:
    """One candidate project with per-period present values.

    cost_pv[k-1] / return_pv[k-1] are the PV of cost and return if the
    project is funded in period k. raw_cost / return_stream are optional
    undiscounted inputs; when present they must reproduce the PV tables
    under the discounting functions above, each entry within MONEY_TOL
    relative to the entry (absolute below 1). Across an instance, the
    budgets must have a finite sum, and so must each project's largest
    return plus every option value.
    """

    id: int
    label: str
    cost_pv: tuple[float, ...]
    return_pv: tuple[float, ...]
    raw_cost: float | None = None
    return_stream: tuple[float, ...] | None = None


@dataclass(frozen=True)
class DependencyEdge:
    """Directed dependency: the predecessor generates an option on the dependent.

    level 1 is a total dependency (the dependent requires the predecessor),
    level in (0,1) is partial (funding the dependent first reduces its
    benefit by that fraction). option_value accrues to the predecessor only
    when it is funded strictly before the dependent.
    """

    predecessor: int
    dependent: int
    level: float
    option_value: float


@dataclass(frozen=True)
class Instance:
    """A full portfolio problem: projects, edges, budgets, cardinality bounds."""

    n_projects: int
    n_periods: int
    projects: tuple[Project, ...]
    edges: tuple[DependencyEdge, ...]
    budgets: tuple[float, ...]
    q_min: tuple[int, ...]
    q_max: tuple[int, ...]
    rate: float = 0.0
    total_dependency_mode: str = "hard"


@dataclass(frozen=True)
class Schedule:
    """One period (1-based) per project; kept only as perfbench builds one for `evaluate`."""

    period_of: tuple[int, ...]

    def __post_init__(self):
        # bool is an int subclass, refused as the loader refuses it
        if any(isinstance(k, bool) or not isinstance(k, int) or k < 1 for k in self.period_of):
            raise ValueError(f"periods must be integers >= 1, got {self.period_of}")


def validate_instance(inst: Instance) -> list[str]:
    """Check every instance invariant; returns one message per violation.

    An empty list means the instance is valid. Violations are data, not
    exceptions: callers decide whether to refuse. A dependency graph with
    cycles gets one message, naming one of them, last.
    """
    v: list[str] = []
    n_p, N = inst.n_projects, inst.n_periods
    if n_p < 0:
        v.append(f"n_p must be >= 0, got {n_p}")
    if N < 1:
        v.append(f"N must be >= 1, got {N}")
    if len(inst.projects) != n_p:
        v.append(f"projects list has {len(inst.projects)} entries, expected n_p ({n_p})")
    if len(inst.budgets) != N:
        v.append(f"budgets has {len(inst.budgets)} entries, expected N ({N})")
    if len(inst.q_min) != N:
        v.append(f"q_min has {len(inst.q_min)} entries, expected N ({N})")
    if len(inst.q_max) != N:
        v.append(f"q_max has {len(inst.q_max)} entries, expected N ({N})")
    # the discounting functions refuse any other rate
    rate_ok = math.isfinite(inst.rate) and inst.rate >= 0
    if not math.isfinite(inst.rate):
        v.append(f"rate must be finite, got {inst.rate}")
    elif inst.rate < 0:
        v.append(f"rate must be >= 0, got {inst.rate}")
    if inst.total_dependency_mode not in TOTAL_DEPENDENCY_MODES:
        v.append(f"total_dependency_mode must be one of {TOTAL_DEPENDENCY_MODES}")

    for k, b in enumerate(inst.budgets, start=1):
        if not math.isfinite(b):
            v.append(f"budgets[{k}] must be finite, got {b}")
        elif b <= 0:
            v.append(f"budgets[{k}] must be > 0, got {b}")
    # summed as build_tables sums them: the violation score divides by this
    # sum, and an infinite one would score any excess 0
    budget_total = left_sum(b for b in inst.budgets if 0 < b < math.inf)
    if math.isinf(budget_total):
        v.append(f"budgets must have a finite sum, got {budget_total}")
    # the solvers count against these and slice by them; bool is an int
    # subclass, refused as the loader refuses it
    q_ints = True
    for name, bounds in (("q_min", inst.q_min), ("q_max", inst.q_max)):
        for k, q in enumerate(bounds, start=1):
            if isinstance(q, bool) or not isinstance(q, int):
                v.append(f"{name}[{k}] must be an integer, got {q!r}")
                q_ints = False
    # the order and sum rules compare entries, which needs every one an int
    if q_ints and len(inst.q_min) == len(inst.q_max) == N:
        for k in range(N):
            lo, hi = inst.q_min[k], inst.q_max[k]
            if not (0 <= lo <= hi <= n_p):
                v.append(f"q bounds for period {k + 1} violate 0 <= q_min <= q_max <= n_p: ({lo}, {hi})")
        if sum(inst.q_max) < n_p:
            v.append(f"sum of q_max ({sum(inst.q_max)}) < n_p ({n_p}): no schedule can place every project")
        if sum(inst.q_min) > n_p:
            v.append(f"sum of q_min ({sum(inst.q_min)}) > n_p ({n_p}): no schedule can satisfy the minima")

    ids = [p.id for p in inst.projects]
    # the length test comes first, so a short list naming a huge n_p costs
    # nothing here (its length fault is reported above)
    if len(ids) != n_p or sorted(ids) != list(range(1, n_p + 1)):
        v.append(f"project ids must be exactly 1..{n_p}, got {sorted(ids)}")
    elif ids != sorted(ids):
        # schedules and solvers index project id i at position i - 1
        v.append(f"projects must be listed in id order 1..{n_p}, got {ids}")

    # bounds every schedule's value from above; a feasible schedule's costs
    # are bounded by the budgets' sum
    value_max = 0.0
    for p in inst.projects:
        if len(p.cost_pv) != N:
            v.append(f"project {p.id}: cost_pv has {len(p.cost_pv)} entries, expected N ({N})")
        if len(p.return_pv) != N:
            v.append(f"project {p.id}: return_pv has {len(p.return_pv)} entries, expected N ({N})")
        for k, c in enumerate(p.cost_pv, start=1):
            if not math.isfinite(c):
                v.append(f"project {p.id}: cost_pv[{k}] must be finite, got {c}")
            elif c <= 0:
                v.append(f"project {p.id}: cost_pv[{k}] must be > 0, got {c}")
        top = 0.0
        for k, r in enumerate(p.return_pv, start=1):
            if not math.isfinite(r):
                v.append(f"project {p.id}: return_pv[{k}] must be finite, got {r}")
            elif r < 0:
                v.append(f"project {p.id}: return_pv[{k}] must be >= 0, got {r}")
            elif r > top:
                top = r
        value_max += top
        if p.raw_cost is not None and len(p.cost_pv) == N and rate_ok:
            _match_discounted(v, p, inst.rate, "cost_pv", "raw_cost", cost_present_value)
        if p.return_stream is not None and len(p.return_pv) == N and rate_ok:
            if not p.return_stream:
                v.append(f"project {p.id}: return_stream must be non-empty when given")
            else:
                _match_discounted(v, p, inst.rate, "return_pv", "return_stream", return_present_value)

    id_set = set(ids)
    seen_pairs = set()
    # the dependency graph, over every id an edge names, known or not
    succ: dict[int, list[int]] = {}
    indegree: dict[int, int] = {}
    for e in inst.edges:
        pred, dep = pair = e.predecessor, e.dependent
        if pred == dep:
            v.append(f"edge predecessor equals dependent ({pred})")
        if pred not in id_set:
            v.append(f"edge references unknown predecessor {pred}")
        if dep not in id_set:
            v.append(f"edge references unknown dependent {dep}")
        if pair in seen_pairs:
            v.append(f"duplicate edge for pair {pair}")
        seen_pairs.add(pair)
        # also refuses NaN, which fails every comparison
        if not (0 < e.level <= 1):
            v.append(f"edge {pair}: level must be in (0, 1], got {e.level}")
        if not math.isfinite(e.option_value):
            v.append(f"edge {pair}: option_value must be finite, got {e.option_value}")
        elif e.option_value < 0:
            v.append(f"edge {pair}: option_value must be >= 0, got {e.option_value}")
        else:
            value_max += e.option_value
        succ.setdefault(pred, []).append(dep)
        indegree.setdefault(pred, 0)
        indegree[dep] = indegree.get(dep, 0) + 1

    if math.isinf(value_max):
        v.append(
            f"the projects' largest returns and the option values must have a finite sum, got {value_max}"
        )

    cycle = _find_cycle(succ, indegree)
    if cycle:
        v.append(f"dependency graph contains a cycle: {' -> '.join(map(str, cycle))}")
    return v


def _match_discounted(
    v: list[str], p: Project, rate: float, table: str, source: str, present_value
) -> None:
    """Report each entry of p's PV table `table` that `source` discounted misses.

    present_value(source value, rate, k) gives period k's entry. The
    tolerance is MONEY_TOL relative to the entry, and absolute below 1, so
    a table in the millions may differ in its last digits by the order the
    discounting is written in. The test is written so that a NaN counts as
    a mismatch, and a rate whose discount factor (1 + rate)^t overflows is
    a violation.
    """
    given = getattr(p, source)
    try:
        for k, have in enumerate(getattr(p, table), start=1):
            expect = present_value(given, rate, k)
            if not abs(expect - have) <= MONEY_TOL * max(1.0, abs(have)):
                v.append(
                    f"project {p.id}: {table}[{k}] = {have} does not match "
                    f"{source} discounted to period {k} ({expect})"
                )
    except OverflowError:
        v.append(f"project {p.id}: {source} cannot be discounted at rate {rate}")


def _find_cycle(succ: dict[int, list[int]], indegree: dict[int, int]) -> list[int] | None:
    """Return one directed cycle of the graph, or None if it has none.

    succ maps a node to its successors, indegree every node to its count
    of in-edges (counted down in place). Kahn's algorithm removes each node
    whose predecessors are all removed, so the nodes left are those on a
    cycle or behind one, and each has a predecessor that is left too.
    Walking back through such predecessors must repeat a node: the loop it
    closes, read forwards, is a cycle.
    """
    order = [i for i, d in indegree.items() if not d]
    for i in order:  # appending while iterating makes order its own queue
        for dep in succ.get(i, ()):
            indegree[dep] -= 1
            if not indegree[dep]:
                order.append(dep)
    if len(order) == len(indegree):
        return None
    # a node left has only successors that are left, so back maps every
    # node left, and only those, to a predecessor that is left
    back = {dep: i for i, d in indegree.items() if d for dep in succ.get(i, ())}
    at: dict[int, int] = {}  # the walk so far, node -> step
    node = min(back)  # the smallest id left, so the cycle named is fixed
    while node not in at:
        at[node] = len(at)
        node = back[node]
    # the walk from node's first step back to node runs against the edges
    return (list(at)[at[node]:] + [node])[::-1]
