"""Exact reference solver: depth-first branch and bound over all N^n_p period assignments.

Projects are placed in id order. The search prunes on budgets, cardinality
bounds and (hard mode) precedence, and that pruning is exact: a period's
spend is the same left-to-right float sum that `score` computes, restored
by value on backtracking, and the q_min shortfall is an integer counter.
So every leaf the search reaches is feasible and is counted without a
kernel call.

A running value is carried down the recursion: each project's DCF term
(return times `partial_factor`, less cost) and `option_term` join once the
periods they read are placed, so each term is the kernel's. An admissible
bound on the terms still to join (Land and Doig, Econometrica 28, 1960)
skips every subtree in which no leaf can beat the incumbent; a subtree
that could tie it is searched. `score` values each leaf whose running value
can beat the incumbent, and must agree with that value; the value it
returns is the one reported, and the breakdown of the reported schedule is
the kernel's.

One walk does both jobs: it returns the number of feasible completions
of the placed prefix. Below a child the bound skips it carries no running
value, so that subtree's leaves pass the same tests and are counted, and
none is valued. Below such a node where no budget can bind any more, the
count depends only on the per-period counts and on the periods of the
placed endpoints of hard edges crossing the depth, so it is memoized on
them.

The recursion is one level per project, so a search the interpreter's
recursion limit stops (RecursionError) is refused like one over the cap.
Its job is to certify the GA and to ground expected values in tests.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import accumulate
from operator import sub

from .model import Instance, Schedule
from .valuation import (
    EvaluationBreakdown,
    Tables,
    _breakdown,
    build_tables,
    option_term,
    partial_factor,
    score,
)

DEFAULT_CAP = 10**7

# relative tolerance between the running value and `score`'s, which sum the
# same terms in different orders
VALUE_RTOL = 1e-9

# relative margin below a budget that a period's spend plus its largest
# possible remaining spend must stay under before the walk below a skipped
# child stops testing budgets; a float sum of n positive costs is within
# n * 2**-53 of its exact value, relatively, so this covers any n below 10**6
BUDGET_RTOL = 1e-9


class SearchSpaceCapExceeded(ValueError):
    """Instance is too large for exhaustive enumeration."""


@dataclass(frozen=True)
class OracleResult:
    best_schedule: Schedule | None  # None when no feasible schedule exists
    best_breakdown: EvaluationBreakdown | None
    feasible_count: int

    @property
    def feasible(self) -> bool:
        return self.best_schedule is not None


def enumerate_optimal(inst: Instance | Tables, cap: int = DEFAULT_CAP) -> OracleResult:
    """Best feasible schedule, and the number of feasible schedules, by branch and bound.

    Ties break to the lexicographically smallest period vector (guaranteed
    by enumerating in lexicographic order and keeping strict improvements
    only), so the result is independent of any search-order partitioning.
    """
    tables = build_tables(inst)
    n_p, N = tables.n_projects, tables.n_periods
    size = N**n_p
    if size > cap:
        raise SearchSpaceCapExceeded(f"search space N^n_p = {size} exceeds enumeration cap {cap}")
    cost, ret = tables.cost, tables.ret
    budgets, q_min, q_max = tables.budgets, tables.q_min, tables.q_max

    # hard precedence edges indexed by the later-assigned endpoint: project
    # i may take the periods from the latest of its placed predecessors
    # (after_at) to the earliest of its placed dependents (before_at)
    after_at: list[list[int]] = [[] for _ in range(n_p)]
    before_at: list[list[int]] = [[] for _ in range(n_p)]
    for pi, di in tables.hard_edges:
        # dependent must not precede predecessor
        if pi < di:
            after_at[di].append(pi)
        else:
            before_at[pi].append(di)

    # each term of the value joins the running value at the depth where the
    # last period it reads is placed; a project without option edges has no
    # option term. term_max[d] bounds the terms joining at depth d: returns
    # are >= 0 and factors in [0, 1], so a DCF term is at most return - cost
    # in some period, and an option term at most the sum of its option values
    dcf_at: list[list[int]] = [[] for _ in range(n_p)]
    option_at: list[list[int]] = [[] for _ in range(n_p)]
    term_max = [0.0] * n_p
    for j in range(n_p):
        d = max([j] + [pi for pi, _keep in tables.factor_in[j]])
        dcf_at[d].append(j)
        term_max[d] += max(map(sub, tables.ret[j], cost[j]))
        if tables.options_out[j]:
            d = max([j] + [di for di, _val in tables.options_out[j]])
            option_at[d].append(j)
            term_max[d] += sum(val for _di, val in tables.options_out[j])

    # scaled by a bound on the summed magnitude of all terms, which bounds
    # the rounding error of either sum
    tol = VALUE_RTOL * (
        1
        + sum(
            max(map(abs, r)) + max(map(abs, c)) + sum(val for _di, val in o)
            for r, c, o in zip(tables.ret, cost, tables.options_out)
        )
    )
    # a leaf is scored when its running value + tol beats the incumbent. The
    # running value of a leaf below a node at depth i is within tol of the
    # node's value plus the terms joining at depth >= i, so no leaf below a
    # node whose value + reach[i] is at most the incumbent is scored
    reach = [2 * tol] * (n_p + 1)
    for i in range(n_p - 1, -1, -1):
        reach[i] = reach[i + 1] + term_max[i]

    best_per: tuple[int, ...] | None = None
    best_value = float("-inf")

    per = [0] * n_p
    spent = [0.0] * N
    count = [0] * N

    def consider(value: float) -> None:
        """Score the complete schedule in `per`, whose running value can beat the incumbent."""
        nonlocal best_per, best_value
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

    memo: dict[tuple, int] = {}
    # built by `is_slack` at the first depth that needs them:
    # limits[i][k - 1][c] is the period-k spend below which a node at depth
    # i with c projects in period k cannot reach its budget, even with the
    # largest period-k costs of the projects still to place, as many as
    # q_max allows. crossing[i] lists the placed endpoints of the hard edges
    # with one endpoint on each side of depth i. Built eagerly, they would
    # add 2.4% to exact-search's oracle time and 17.6% to desk-certify's
    limits: list[list[list[float]] | None] = [None] * n_p
    crossing: list[list[int]] = []

    def walk(i: int, value: float | None, shortfall: int, slack: bool) -> int:
        """Feasible completions of `per[:i]`, scoring those that can beat the incumbent.

        `value` is the running value of `per[:i]`, or None below a child the
        bound skips: there leaves are counted and none is valued. Only such
        a node can be `slack` (see `is_slack`); below it the budget tests
        always pass, so they are skipped and each count is memoized. The
        last depth is not memoized, as counting its periods costs less than
        a lookup.
        """
        remaining = n_p - i - 1
        memoize = slack and remaining
        if memoize:
            key = (i, *count, *[per[e] for e in crossing[i]])
            known = memo.get(key)
            if known is not None:
                return known
        cost_i = cost[i]
        dcf_js, option_js = dcf_at[i], option_at[i]
        reach_next = reach[i + 1]
        total = 0
        lo, hi = 1, N
        for other in after_at[i]:
            if per[other] > lo:
                lo = per[other]
        for other in before_at[i]:
            if per[other] < hi:
                hi = per[other]
        for k in range(lo, hi + 1):
            old, n = spent[k - 1], count[k - 1]
            if n >= q_max[k - 1] or (not slack and old + cost_i[k - 1] > budgets[k - 1]):
                continue
            short = shortfall - (n < q_min[k - 1])
            if short > remaining:
                continue
            per[i] = k
            v = value
            if v is not None:
                for j in dcf_js:
                    v += ret[j][per[j] - 1] * partial_factor(j, per, tables) - cost[j][per[j] - 1]
                for j in option_js:
                    v += option_term(j, per, tables)
            if not remaining:
                total += 1
                if v is not None and v + tol > best_value:
                    consider(v)
                continue
            count[k - 1] = n + 1
            spent[k - 1] = old + cost_i[k - 1]
            if v is not None and v + reach_next <= best_value:
                total += walk(i + 1, None, short, is_slack(i + 1))
            else:
                total += walk(i + 1, v, short, slack)
            count[k - 1] = n
            # restored by value: subtracting the cost back can drift the sum
            spent[k - 1] = old
        if memoize:
            memo[key] = total
        return total

    def is_slack(i: int) -> bool:
        """True when no completion of `per[:i]` can bring a period's spend to its budget.

        Then the same holds at every node below, whose spend has grown by
        costs the bound already counted. The last depth is not tested:
        `walk` does not memoize it. Builds `limits[i]`, and `crossing` for
        the memo, on first use.
        """
        if i == n_p - 1:
            return False
        lim = limits[i]
        if lim is None:
            # the float sums of the m largest costs and of a path's costs
            # differ in order; each is within n_p * 2**-53 of the exact sum,
            # relative to the budget it is compared with, which BUDGET_RTOL
            # covers
            rest = n_p - i
            lim = limits[i] = []
            for k in range(N):
                top = [0.0, *accumulate(sorted((cost[j][k] for j in range(i, n_p)), reverse=True))]
                room = budgets[k] * (1 - BUDGET_RTOL)
                lim.append([room - top[min(q_max[k] - c, rest)] for c in range(q_max[k] + 1)])
            if not crossing:
                ends = [sorted(e) for e in tables.hard_edges]
                crossing.extend(sorted({a for a, b in ends if a < d <= b}) for d in range(n_p))
        for s, lim_k, c in zip(spent, lim, count):
            if s >= lim_k[c]:
                return False
        return True

    if n_p:
        try:
            feasible_count = walk(0, 0.0, sum(q_min), False)
        except RecursionError:
            # one frame per project: the depth, not the space, is too large
            raise SearchSpaceCapExceeded(
                f"search depth n_p = {n_p} exceeds the recursion limit {sys.getrecursionlimit()}"
            ) from None
    else:
        # the empty schedule is the one leaf
        feasible_count = 1
        consider(0.0)
    if best_per is None:
        return OracleResult(best_schedule=None, best_breakdown=None, feasible_count=0)
    return OracleResult(
        best_schedule=Schedule(period_of=best_per),
        best_breakdown=_breakdown(best_per, tables),
        feasible_count=feasible_count,
    )
