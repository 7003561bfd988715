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
skips every subtree in which no leaf can beat the incumbent. It counts
each DCF term at its best period and each option edge at its value, less
the edges that can no longer accrue. An edge pays only when its dependent
is funded strictly later than its predecessor, so until the predecessor's
option term joins, the bound writes off all of its edges once it sits in
period N, and each edge whose dependent is placed in its period or
earlier. Option values are >= 0, so the bound stays admissible; it keeps
a float margin above the best leaf, so a subtree that could tie the
incumbent is searched. `score` values each leaf whose running value can
beat the incumbent, and must agree with that value; the value it returns
is the one reported, and the breakdown of the reported schedule is the
kernel's.

One walk does both jobs: it returns the number of feasible completions
of the placed prefix. Below a child the bound skips it carries no running
value, so that subtree's leaves pass the same tests and are counted, and
none is valued. Whether any budget can bind is decided once, before the
walk: none can when, in every period, the largest costs q_max allows sum
below the budget. Then the walk tests no budget, and the count below a
valueless node depends only on the per-period counts and on the periods
of the placed endpoints of hard edges crossing the depth, so it is
memoized on them. Otherwise every budget is tested and nothing is
memoized.

The recursion is one level per project, so a search the interpreter's
recursion limit stops (RecursionError) is refused like one over the cap.
Its job is to certify the GA and to ground expected values in tests.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from operator import sub

from .model import Instance, Schedule, left_sum
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

# relative margin below a budget that the sum of a period's largest costs,
# as many as q_max allows, must stay under before the walk stops testing
# budgets. That sum and a schedule's id-order spend add in different
# orders; a float sum of n positive costs is within n * 2**-53 of its exact
# value, relatively, so this covers any n below 10**6
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

    Only the walk is guarded against the recursion limit: a `RecursionError`
    there becomes `SearchSpaceCapExceeded`. The set-up before it (building
    the tables, summing the tolerance, testing the budgets) is not, so a
    caller with a few frames left below the limit gets the bare
    `RecursionError`. No CLI path calls it that deep.
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
    # an option edge p -> d accrues only if p is funded before d, so until
    # p's option term joins the bound writes off each edge that no longer
    # can: all of p's edges once p is in period N, and p -> d once both
    # are placed with per[d] <= per[p]. own_at[i] lists project i's edges
    # and in_at[i] the edges into i from a placed owner, each only while
    # its owner's term is still to join; leave_at[i] lists the owners whose
    # term, with its written-off edges, joins at depth i
    own_at: list[tuple[tuple[int, float], ...]] = [()] * n_p
    in_at: list[list[tuple[int, float]]] = [[] for _ in range(n_p)]
    leave_at: list[list[int]] = [[] for _ in range(n_p)]
    for j in range(n_p):
        d = max([j] + [pi for pi, _keep in tables.factor_in[j]])
        dcf_at[d].append(j)
        term_max[d] += max(map(sub, tables.ret[j], cost[j]))
        if tables.options_out[j]:
            d = max([j] + [di for di, _val in tables.options_out[j]])
            option_at[d].append(j)
            term_max[d] += sum(val for _di, val in tables.options_out[j])
            if d > j:
                own_at[j] = tables.options_out[j]
                leave_at[d].append(j)
                for di, val in tables.options_out[j]:
                    if j < di < d:
                        in_at[di].append((j, val))

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
    # node whose value + reach[i] is at most the incumbent is scored.
    # Below a valued node the walk also subtracts `dead`, the values of the
    # edges written off so far: each is >= 0 and accrues nothing, so the
    # bound stays admissible in exact arithmetic. With E option edges, the
    # running value takes at most n_p + E roundings and `dead`, which adds
    # and removes each edge's value at most once, at most 2 * E, each within
    # 2**-53 of the magnitude tol scales. The tol in reach that covers the
    # running value's error so covers both while n_p + 3 * E < 9 * 10**6,
    # and a subtree that can tie the incumbent is still searched
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

    # the spend of a period is the id-order sum of at most q_max of its
    # costs, so it stays below the budget when the q_max largest do
    slack = all(
        left_sum(sorted((c[k] for c in cost), reverse=True)[: q_max[k]]) < budgets[k] * (1 - BUDGET_RTOL)
        for k in range(N)
    )
    memo: dict[tuple, int] = {}
    # crossing[i] lists the placed endpoints of the hard edges with one
    # endpoint on each side of depth i
    ends = [sorted(e) for e in tables.hard_edges]
    crossing = [sorted({a for a, b in ends if a < d <= b}) for d in range(n_p)]

    def walk(i: int, value: float | None, shortfall: int, dead: float) -> int:
        """Feasible completions of `per[:i]`, scoring those that can beat the incumbent.

        `value` is the running value of `per[:i]`, or None below a child the
        bound skips: there leaves are counted and none is valued. `dead` is
        the option value the bound writes off below a valued node. When no
        budget can bind (`slack`), no budget is tested and each count-only
        node is memoized. The last depth is not memoized, as counting its
        periods costs less than a lookup.
        """
        remaining = n_p - i - 1
        memoize = slack and value is None and remaining
        if memoize:
            key = (i, *count, *[per[e] for e in crossing[i]])
            known = memo.get(key)
            if known is not None:
                return known
        cost_i = cost[i]
        dcf_js, option_js = dcf_at[i], option_at[i]
        reach_next = reach[i + 1]
        own_i, in_i, leave_i = own_at[i], in_at[i], leave_at[i]
        book = value is not None and (own_i or in_i or leave_i)
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
            if v is None:
                total += walk(i + 1, None, short, 0.0)
            else:
                w = dead
                if book:
                    # a term joining here takes its written-off edges out of
                    # `dead`; then the edges this placement kills go in
                    for j in leave_i:
                        pj = per[j]
                        for d, val in own_at[j]:
                            if pj == N or (d < i and per[d] <= pj):
                                w -= val
                    for d, val in own_i:
                        if k == N or (d < i and per[d] <= k):
                            w += val
                    for p, val in in_i:
                        if k <= per[p] < N:
                            w += val
                if v + reach_next - w <= best_value:
                    v = None
                total += walk(i + 1, v, short, w)
            count[k - 1] = n
            # restored by value: subtracting the cost back can drift the sum
            spent[k - 1] = old
        if memoize:
            memo[key] = total
        return total

    if n_p:
        try:
            feasible_count = walk(0, 0.0, sum(q_min), 0.0)
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
