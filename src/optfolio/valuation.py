"""Portfolio valuation for a given schedule.

Per-project value is the DCF term (period-specific return PV, scaled by a
partial-dependency benefit factor, minus period-specific cost PV) plus the
option values accrued on outgoing edges whose dependents are funded
strictly later. Feasibility covers per-period budgets, cardinality bounds
and, in hard mode, total-dependency precedence.

`build_tables` is the one gate: it refuses an instance that
`validate_instance` faults and compiles a valid one into `Tables`, once
per `evaluate` call or solve. `score` is the hot-path kernel the solvers
call on plain period tuples; `evaluate`, and each solver for the schedule
it returns, report the same accounting in full. All run `_account`, so
they agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import Instance, Schedule, validate_instance

# Partial-dependency reduction and option accrual both key off strict
# precedence: funding in the same period counts as "together with" the
# predecessor, so it neither reduces benefit nor accrues the option.


class InvalidInstanceError(ValueError):
    """The instance fails `validate_instance`; the message lists every violation."""


@dataclass(frozen=True)
class EvaluationBreakdown:
    """Full per-project and per-period accounting for one schedule."""

    dcf_values: tuple[float, ...]
    partial_factors: tuple[float, ...]
    option_accrued: tuple[float, ...]
    effective_returns: tuple[float, ...]
    total_value: float
    total_cost_per_period: tuple[float, ...]
    count_per_period: tuple[int, ...]
    budget_excess: tuple[float, ...]
    cardinality_shortfall: tuple[int, ...]
    cardinality_excess: tuple[int, ...]
    precedence_violations: tuple[tuple[int, int], ...]  # (predecessor, dependent)
    feasible: bool
    violation_score: float
    instance: Instance = field(repr=False)


@dataclass(frozen=True)
class Tables:
    """Index-based views of an instance for tight evaluation loops.

    Project i (0-based) is the project with id i + 1; build_tables
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
    instance: Instance = field(repr=False)


def build_tables(inst: Instance) -> Tables:
    """Compile a valid instance for scoring; refuse an invalid one, listing its violations."""
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
        instance=inst,
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
    for k, cost_i, ret_i, fin, oout in zip(per, t.cost, t.ret, t.factor_in, t.options_out):
        f = 1.0
        for pi, keep in fin:
            if k < per[pi]:
                f *= keep
        c = cost_i[k - 1]
        eff = ret_i[k - 1] * f
        dcf = eff - c
        # stays the int 0 when nothing accrues, so the breakdown prints 0
        o = 0
        for di, val in oout:
            if k < per[di]:
                o += val
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


def dcf_term(j: int, per, t: Tables) -> float:
    """Project j's DCF term under `per`, bit-identical to `_account`'s.

    Reads only the periods of j and of its factor predecessors, so a
    search can add it as soon as those are placed.
    """
    k = per[j]
    f = 1.0
    for pi, keep in t.factor_in[j]:
        if k < per[pi]:
            f *= keep
    return t.ret[j][k - 1] * f - t.cost[j][k - 1]


def option_term(j: int, per, t: Tables) -> float:
    """Option value project j accrues under `per`, bit-identical to `_account`'s.

    Reads only the periods of j and of its option dependents.
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


def evaluate(s: Schedule, inst: Instance) -> EvaluationBreakdown:
    """Full evaluation: per-project values, totals, violations, feasibility.

    Raises InvalidInstanceError (a ValueError) on an invalid instance and
    ValueError on a schedule that does not fit it.
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
        instance=t.instance,
    )


def check_feasibility(s: Schedule, inst: Instance) -> dict:
    """Violation quantities for budgets, cardinality and hard precedence."""
    b = evaluate(s, inst)
    return {
        "total_cost_per_period": b.total_cost_per_period,
        "count_per_period": b.count_per_period,
        "budget_excess": b.budget_excess,
        "cardinality_shortfall": b.cardinality_shortfall,
        "cardinality_excess": b.cardinality_excess,
        "precedence_violations": b.precedence_violations,
        "feasible": b.feasible,
    }


def partial_benefit_factor(project_id: int, s: Schedule, inst: Instance) -> float:
    """Benefit multiplier for a project given unmet incoming dependencies.

    Each incoming partial edge whose predecessor is funded strictly later
    contributes a factor (1 - level); same-period funding keeps full
    benefit. In soft mode, total edges join the product (factor 0 when
    the dependent jumps ahead of its predecessor).
    """
    return evaluate(s, inst).partial_factors[project_id - 1]


def dcf_value(project_id: int, s: Schedule, inst: Instance) -> float:
    """Return PV (after benefit reduction) minus cost PV for the funded period."""
    return evaluate(s, inst).dcf_values[project_id - 1]


def option_accrual(project_id: int, s: Schedule, inst: Instance) -> float:
    """Option value the project earns from dependents funded strictly later."""
    return evaluate(s, inst).option_accrued[project_id - 1]


def candidate_key(s: Schedule, b: EvaluationBreakdown) -> tuple:
    """Sort key realizing feasibility-first order; smaller is better."""
    return (b.violation_score, -b.total_value, s.period_of)


def compare_candidates(
    a: tuple[Schedule, EvaluationBreakdown],
    b: tuple[Schedule, EvaluationBreakdown],
) -> int:
    """Feasibility-first comparison: -1 if a is better, 1 if b is, 0 on ties.

    Lower total violation wins; among equals higher value wins; among
    equals the lexicographically smaller period vector wins.
    """
    if a[1].instance != b[1].instance:
        raise ValueError("cannot compare breakdowns from different instances")
    ka, kb = candidate_key(*a), candidate_key(*b)
    return -1 if ka < kb else (1 if ka > kb else 0)
