"""Exact reference solver by exhaustive enumeration.

Depth-first over all N^n_p period assignments with incremental pruning on
budgets, cardinality bounds and (hard mode) precedence. Deliberately
unsophisticated: its job is to certify the GA on desk-scale instances and
to ground expected values in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Instance, Schedule, validate_instance
from .valuation import EvaluationBreakdown, build_tables, evaluate, score

DEFAULT_CAP = 10**7


class SearchSpaceCapExceeded(ValueError):
    """Instance is too large for exhaustive enumeration."""

    def __init__(self, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(f"search space N^n_p = {size} exceeds enumeration cap {cap}")


@dataclass(frozen=True)
class OracleResult:
    best_schedule: Schedule | None  # None when no feasible schedule exists
    best_breakdown: EvaluationBreakdown | None
    feasible_count: int

    @property
    def feasible(self) -> bool:
        return self.best_schedule is not None


def _check_instance(inst: Instance, cap: int) -> None:
    violations = validate_instance(inst)
    if violations:
        raise ValueError("invalid instance: " + "; ".join(violations))
    size = inst.n_periods**inst.n_projects
    if size > cap:
        raise SearchSpaceCapExceeded(size, cap)


def enumerate_optimal(inst: Instance, cap: int = DEFAULT_CAP) -> OracleResult:
    """Best feasible schedule by exhaustive search.

    Ties break to the lexicographically smallest period vector (guaranteed
    by enumerating in lexicographic order and keeping strict improvements
    only), so the result is independent of any search-order partitioning.
    """
    _check_instance(inst, cap)
    n_p, N = inst.n_projects, inst.n_periods
    tables = build_tables(inst)
    cost = tables.cost
    budgets, q_min, q_max = inst.budgets, inst.q_min, inst.q_max

    # hard precedence edges indexed by the later-assigned endpoint so each
    # pair is checked exactly once, as soon as both endpoints have periods
    edges_at: list[list[tuple[int, bool]]] = [[] for _ in range(n_p)]
    for pi, di in tables.hard_edges:
        later, other = max(pi, di), min(pi, di)
        # dependent must not precede predecessor
        edges_at[later].append((other, later == di))

    best_per: tuple[int, ...] | None = None
    best_value = float("-inf")
    feasible_count = 0

    per = [0] * n_p
    spent = [0.0] * N
    count = [0] * N

    def dfs(i: int) -> None:
        nonlocal best_per, best_value, feasible_count
        if i == n_p:
            viol, value = score(tuple(per), tables)
            if viol == 0.0:
                feasible_count += 1
                if value > best_value:
                    best_value = value
                    best_per = tuple(per)
            return
        remaining = n_p - i - 1
        for k in range(1, N + 1):
            c = cost[i][k - 1]
            if count[k - 1] >= q_max[k - 1] or spent[k - 1] + c > budgets[k - 1]:
                continue
            ok = True
            for other, i_is_dependent in edges_at[i]:
                if i_is_dependent:
                    if k < per[other]:
                        ok = False
                        break
                elif per[other] < k:
                    ok = False
                    break
            if not ok:
                continue
            per[i] = k
            count[k - 1] += 1
            spent[k - 1] += c
            shortfall = sum(max(0, q_min[j] - count[j]) for j in range(N))
            if shortfall <= remaining:
                dfs(i + 1)
            count[k - 1] -= 1
            spent[k - 1] -= c
            per[i] = 0

    dfs(0)
    if best_per is None:
        return OracleResult(best_schedule=None, best_breakdown=None, feasible_count=0)
    s = Schedule(period_of=best_per)
    return OracleResult(
        best_schedule=s, best_breakdown=evaluate(s, inst), feasible_count=feasible_count
    )


def count_feasible(inst: Instance, cap: int = DEFAULT_CAP) -> int:
    """Exact number of schedules with zero violations."""
    return enumerate_optimal(inst, cap=cap).feasible_count
