"""Portfolio valuation for a given schedule.

Per-project value is the DCF term (period-specific return PV, scaled by a
partial-dependency benefit factor, minus period-specific cost PV) plus the
option values accrued on outgoing edges whose dependents are funded
strictly later. Feasibility covers per-period budgets, cardinality bounds
and, in hard mode, total-dependency precedence.

`build_tables` is the one gate: it refuses an instance that
`validate_instance` faults and compiles a valid one into `Tables`, and
passes `Tables` through unchanged. Every entry point (`evaluate`, the GA
and the oracle) takes an `Instance` or its `Tables` and starts with
`build_tables`, so a caller that values or solves one instance many
times compiles it once and passes the `Tables` on. `score` is the
hot-path kernel the solvers call on plain period tuples; `evaluate`, and
each solver for the schedule it returns, report the same accounting in
full. All run `_account`, whose per-project rules `partial_factor` and
`option_term` the oracle also calls, so they agree exactly. `candidate_key`
ranks scored period tuples feasibility-first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Instance, Schedule, validate_instance


class InvalidInstanceError(ValueError):
    """The instance fails `validate_instance`; the message lists every violation."""


@dataclass(frozen=True)
class EvaluationBreakdown:
    """Full per-project and per-period accounting for one schedule.

    Per-project tuples hold project j at index j - 1, per-period tuples
    period k at index k - 1.
    """

    # return PV after the partial factor, minus cost PV, in the funded period
    dcf_values: tuple[float, ...]
    # product of (1 - level) over incoming partial edges whose predecessor is
    # funded strictly later; same-period funding keeps full benefit. In soft
    # mode total edges join the product, so a dependent funded ahead of its
    # total predecessor gets factor 0
    partial_factors: tuple[float, ...]
    # option values of outgoing edges whose dependent is funded strictly
    # later; same-period funding accrues nothing
    option_accrued: tuple[float, ...]
    effective_returns: tuple[float, ...]  # return PV in the funded period x partial factor
    total_value: float  # DCF values plus accrued options
    total_cost_per_period: tuple[float, ...]
    count_per_period: tuple[int, ...]
    budget_excess: tuple[float, ...]
    cardinality_shortfall: tuple[int, ...]
    cardinality_excess: tuple[int, ...]
    # hard mode: total edges whose dependent is funded before its predecessor
    precedence_violations: tuple[tuple[int, int], ...]  # (predecessor, dependent)
    feasible: bool
    violation_score: float  # 0 exactly when feasible


@dataclass(frozen=True)
class Tables:
    """A validated instance compiled into index-based views for tight loops.

    Obtain one only from `build_tables`, once per instance, and pass it to
    `evaluate`, `run_ga` or `enumerate_optimal` in place of the instance.
    It is never validated again, so a hand-built `Tables` would skip the
    gate. Project i (0-based) is the project with id i + 1; build_tables
    refuses an instance whose projects are not listed in that order.
    """

    n_projects: int
    n_periods: int
    cost: tuple[tuple[float, ...], ...]      # [i][k-1]
    ret: tuple[tuple[float, ...], ...]       # [i][k-1]
    # factor edges per dependent: (predecessor index, 1 - level)
    factor_in: tuple[tuple[tuple[int, float], ...], ...]
    # option edges per predecessor: (dependent index, option value)
    options_out: tuple[tuple[tuple[int, float], ...], ...]
    # hard-mode precedence edges as (pred index, dep index)
    hard_edges: tuple[tuple[int, int], ...]
    budgets: tuple[float, ...]
    q_min: tuple[int, ...]
    q_max: tuple[int, ...]
    budget_total: float


def build_tables(inst: Instance | Tables) -> Tables:
    """Compile a valid instance for scoring; refuse an invalid one, listing its violations.

    Given `Tables`, returns them unchanged: they were validated and compiled
    when built, so an instance is compiled once, not once per call.
    """
    if isinstance(inst, Tables):
        return inst
    violations = validate_instance(inst)
    if violations:
        raise InvalidInstanceError("invalid instance: " + "; ".join(violations))
    n = inst.n_projects
    soft = inst.total_dependency_mode == "soft"
    factor_in: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    options_out: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    hard_edges: list[tuple[int, int]] = []
    for e in inst.edges:
        pi, di = e.predecessor - 1, e.dependent - 1
        if e.level < 1.0 or soft:
            factor_in[di].append((pi, 1.0 - e.level))
        if e.level == 1.0 and not soft:
            hard_edges.append((pi, di))
        options_out[pi].append((di, e.option_value))
    budget_total = 0.0
    for b in inst.budgets:
        budget_total += b
    return Tables(
        n_projects=n,
        n_periods=inst.n_periods,
        cost=tuple(p.cost_pv for p in inst.projects),
        ret=tuple(p.return_pv for p in inst.projects),
        factor_in=tuple(tuple(x) for x in factor_in),
        options_out=tuple(tuple(x) for x in options_out),
        hard_edges=tuple(hard_edges),
        budgets=inst.budgets,
        q_min=inst.q_min,
        q_max=inst.q_max,
        budget_total=budget_total,
    )


def _account(per: tuple[int, ...], t: Tables, rows: list | None = None):
    """One pass over projects and periods, shared by score and evaluate.

    Returns (cost per period, count per period, precedence violations as
    index pairs, total budget excess, total cardinality violation, total
    value). When `rows` is given, one (factor, effective return, dcf,
    option sum) tuple per project is appended to it.

    Floats are summed with explicit loops in a fixed order (DCF terms left
    to right, then each project's option sum, then the two totals added),
    so every caller sees bit-identical values.
    """
    cost_k = [0.0] * t.n_periods
    cnt_k = [0] * t.n_periods
    dcf_total = 0.0
    opt_total = 0.0
    for j, (k, cost_i, ret_i) in enumerate(zip(per, t.cost, t.ret)):
        f = partial_factor(j, per, t)
        c = cost_i[k - 1]
        eff = ret_i[k - 1] * f
        dcf = eff - c
        o = option_term(j, per, t)
        dcf_total += dcf
        opt_total += o
        cost_k[k - 1] += c
        cnt_k[k - 1] += 1
        if rows is not None:
            rows.append((f, eff, dcf, o))
    prec = [(pi, di) for pi, di in t.hard_edges if per[di] < per[pi]]
    budget = 0.0
    card = 0
    for k in range(t.n_periods):
        budget += max(0.0, cost_k[k] - t.budgets[k])
        card += max(0, t.q_min[k] - cnt_k[k]) + max(0, cnt_k[k] - t.q_max[k])
    return cost_k, cnt_k, prec, budget, card, dcf_total + opt_total


def partial_factor(j: int, per, t: Tables) -> float:
    """Product of (1 - level) over project j's factor edges whose predecessor is funded strictly later.

    Reads only the periods of j and of its factor predecessors, so a
    search can apply it as soon as those are placed.
    """
    k = per[j]
    f = 1.0
    for pi, keep in t.factor_in[j]:
        if k < per[pi]:
            f *= keep
    return f


def option_term(j: int, per, t: Tables) -> float:
    """Option value project j accrues: its option edges whose dependent is funded strictly later.

    Reads only the periods of j and of its option dependents. Stays the
    int 0 when nothing accrues, so the breakdown prints 0.
    """
    k = per[j]
    o = 0
    for di, val in t.options_out[j]:
        if k < per[di]:
            o += val
    return o


def _violation(budget: float, card: int, n_prec: int, t: Tables) -> float:
    # Scale-free mix: feasibility only needs zero-vs-nonzero plus a
    # consistent order among infeasibles.
    return budget / t.budget_total + card / max(1, t.n_projects) + n_prec


def score(periods: tuple[int, ...], t: Tables) -> tuple[float, float]:
    """Fast (violation_score, total_value) of a period tuple.

    Agrees exactly with evaluate(); the GA and oracle inner loops use this
    path with tables built once per solve.
    """
    _cost_k, _cnt_k, prec, budget, card, total = _account(periods, t)
    return _violation(budget, card, len(prec), t), total


def evaluate(s: Schedule, inst: Instance | Tables) -> EvaluationBreakdown:
    """Full evaluation: per-project values, totals, violations, feasibility.

    An `Instance` is validated and compiled on every call; to value many
    schedules of one instance, compile it once with `build_tables` and pass
    the `Tables`. Raises InvalidInstanceError (a ValueError) on an invalid
    instance and ValueError on a schedule that does not fit it.
    """
    t = build_tables(inst)
    if len(s.period_of) != t.n_projects:
        raise ValueError(f"schedule length {len(s.period_of)} != n_p ({t.n_projects})")
    if any(k > t.n_periods for k in s.period_of):
        raise ValueError("schedule references a period beyond N")
    return _breakdown(s.period_of, t)


def _breakdown(per: tuple[int, ...], t: Tables) -> EvaluationBreakdown:
    """Full accounting of a period tuple that fits the tables' instance."""
    rows: list[tuple[float, float, float, float]] = []
    cost_k, cnt_k, prec, budget, card, total = _account(per, t, rows)
    factors, effs, dcfs, options = zip(*rows) if rows else ((), (), (), ())
    N = t.n_periods
    return EvaluationBreakdown(
        dcf_values=dcfs,
        partial_factors=factors,
        option_accrued=options,
        effective_returns=effs,
        total_value=total,
        total_cost_per_period=tuple(cost_k),
        count_per_period=tuple(cnt_k),
        budget_excess=tuple(max(0.0, cost_k[k] - t.budgets[k]) for k in range(N)),
        cardinality_shortfall=tuple(max(0, t.q_min[k] - cnt_k[k]) for k in range(N)),
        cardinality_excess=tuple(max(0, cnt_k[k] - t.q_max[k]) for k in range(N)),
        precedence_violations=tuple((pi + 1, di + 1) for pi, di in prec),
        feasible=budget == 0.0 and card == 0 and not prec,
        violation_score=_violation(budget, card, len(prec), t),
    )


def candidate_key(periods: tuple[int, ...], scored: tuple[float, float]) -> tuple:
    """Feasibility-first sort key of a period tuple and its `score`; smaller is better.

    Lower violation wins; among equals higher value wins; among equals the
    lexicographically smaller period tuple wins. Keys order the schedules
    of one instance only.
    """
    violation, value = scored
    return (violation, -value, periods)
