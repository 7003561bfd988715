"""Exact reference solver by exhaustive enumeration.

Depth-first over all N^n_p period assignments, pruning on budgets,
cardinality bounds and (hard mode) precedence. The pruning is exact: a
period's spend is the same left-to-right float sum that `score` computes,
restored by value on backtracking, and the q_min shortfall is an integer
counter. So every leaf the search reaches is feasible and is counted
without a kernel call. A running value is carried down the recursion,
each project's DCF term and option sum added once the periods they read
are placed; `score` values only the leaves whose running value can beat
the incumbent, and its value is the one reported. The recursion is one
level per project, so an instance with more projects than the interpreter's
remaining stack allows is refused like one over the cap. Deliberately
unsophisticated otherwise: its job is to certify the GA and to ground
expected values in tests.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .model import Instance, Schedule
from .valuation import (
    EvaluationBreakdown,
    Tables,
    _breakdown,
    build_tables,
    dcf_term,
    option_term,
    score,
)

DEFAULT_CAP = 10**7

# relative tolerance between the running value and `score`'s, which sum the
# same terms in different orders
VALUE_RTOL = 1e-9


# frames a leaf needs above the search's own: `score` and what it calls,
# plus any wrapper a caller installs around them
_STACK_MARGIN = 50


class SearchSpaceCapExceeded(ValueError):
    """Instance is too large for exhaustive enumeration."""

    def __init__(
        self, size: int, cap: int, what: str = "search space N^n_p", limit: str = "enumeration cap"
    ):
        self.size = size
        self.cap = cap
        super().__init__(f"{what} = {size} exceeds {limit} {cap}")


def _recursion_headroom() -> int:
    """Frames the calling thread can still push before RecursionError, less a margin."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return sys.getrecursionlimit() - depth - _STACK_MARGIN


@dataclass(frozen=True)
class OracleResult:
    best_schedule: Schedule | None  # None when no feasible schedule exists
    best_breakdown: EvaluationBreakdown | None
    feasible_count: int

    @property
    def feasible(self) -> bool:
        return self.best_schedule is not None


def enumerate_optimal(inst: Instance | Tables, cap: int = DEFAULT_CAP) -> OracleResult:
    """Best feasible schedule by exhaustive search.

    Ties break to the lexicographically smallest period vector (guaranteed
    by enumerating in lexicographic order and keeping strict improvements
    only), so the result is independent of any search-order partitioning.
    """
    tables = build_tables(inst)
    n_p, N = tables.n_projects, tables.n_periods
    size = N**n_p
    if size > cap:
        raise SearchSpaceCapExceeded(size, cap)
    # the search recurses once per project (N=1 passes any cap)
    headroom = _recursion_headroom()
    if n_p > headroom:
        raise SearchSpaceCapExceeded(n_p, headroom, "search depth n_p", "recursion headroom")
    cost = tables.cost
    budgets, q_min, q_max = tables.budgets, tables.q_min, tables.q_max

    # hard precedence edges indexed by the later-assigned endpoint so each
    # pair is checked exactly once, as soon as both endpoints have periods
    edges_at: list[list[tuple[int, bool]]] = [[] for _ in range(n_p)]
    for pi, di in tables.hard_edges:
        later, other = max(pi, di), min(pi, di)
        # dependent must not precede predecessor
        edges_at[later].append((other, later == di))

    # each term of the value joins the running value at the depth where the
    # last period it reads is placed; a project without option edges has no
    # option term
    dcf_at: list[list[int]] = [[] for _ in range(n_p)]
    option_at: list[list[int]] = [[] for _ in range(n_p)]
    for j in range(n_p):
        dcf_at[max([j] + [pi for pi, _keep in tables.factor_in[j]])].append(j)
        if tables.options_out[j]:
            option_at[max([j] + [di for di, _val in tables.options_out[j]])].append(j)

    # scaled by a bound on the summed magnitude of all terms, which bounds
    # the rounding error of either sum
    tol = VALUE_RTOL * (
        1
        + sum(
            max(map(abs, r)) + max(map(abs, c)) + sum(val for _di, val in o)
            for r, c, o in zip(tables.ret, cost, tables.options_out)
        )
    )

    best_per: tuple[int, ...] | None = None
    best_value = float("-inf")
    feasible_count = 0

    per = [0] * n_p
    spent = [0.0] * N
    count = [0] * N

    def dfs(i: int, value: float, shortfall: int) -> None:
        nonlocal best_per, best_value, feasible_count
        if i == n_p:
            feasible_count += 1
            if value + tol > best_value:
                periods = tuple(per)
                viol, exact = score(periods, tables)
                if viol != 0.0 or abs(exact - value) > tol:
                    raise RuntimeError(
                        f"oracle invariant broken at {periods}: violation {viol}, "
                        f"value {exact} against running value {value}"
                    )
                if exact > best_value:
                    best_value = exact
                    best_per = periods
            return
        remaining = n_p - i - 1
        cost_i, pairs = cost[i], edges_at[i]
        dcf_js, option_js = dcf_at[i], option_at[i]
        for k in range(1, N + 1):
            old, n = spent[k - 1], count[k - 1]
            if n >= q_max[k - 1] or old + cost_i[k - 1] > budgets[k - 1]:
                continue
            short = shortfall - (n < q_min[k - 1])
            if short > remaining:
                continue
            ok = True
            for other, i_is_dependent in pairs:
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
            count[k - 1] = n + 1
            spent[k - 1] = old + cost_i[k - 1]
            v = value
            for j in dcf_js:
                v += dcf_term(j, per, tables)
            for j in option_js:
                v += option_term(j, per, tables)
            dfs(i + 1, v, short)
            count[k - 1] = n
            # restored by value: subtracting the cost back can drift the sum
            spent[k - 1] = old

    dfs(0, 0.0, sum(q_min))
    if best_per is None:
        return OracleResult(best_schedule=None, best_breakdown=None, feasible_count=0)
    return OracleResult(
        best_schedule=Schedule(period_of=best_per),
        best_breakdown=_breakdown(best_per, tables),
        feasible_count=feasible_count,
    )
