"""File formats: instance JSON documents, bit-row text, result JSON, CSV.

All emitters are byte-stable for identical inputs (fixed key order, fixed
numeric formatting) so golden tests and determinism checks can compare
output verbatim.
"""

from __future__ import annotations

import json

from .ga import SolveResult, TraceEntry
from .model import (
    Chromosome,
    DependencyEdge,
    Instance,
    Project,
    Schedule,
    cost_present_value,
    encode_schedule,
    return_present_value,
)
from .oracle import OracleResult
from .valuation import EvaluationBreakdown


class InstanceFormatError(ValueError):
    """Raised when an instance document cannot be parsed into an Instance."""


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise InstanceFormatError(f"{context}: missing required key {key!r}")
    return obj[key]


def _integer(value, context: str) -> int:
    # bool is an int subclass, and int() would truncate floats and parse strings
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceFormatError(f"{context} must be an integer, got {value!r}")
    return value


def instance_from_dict(doc: dict) -> Instance:
    """Parse an instance document; unknown keys (e.g. comments) are ignored."""
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    n_p = _integer(_require(doc, "n_p", "instance"), "n_p")
    n_periods = _integer(_require(doc, "N", "instance"), "N")
    rate = float(doc.get("rate", 0.0))
    budgets = tuple(float(b) for b in _require(doc, "budgets", "instance"))
    q_min = tuple(_integer(q, "q_min entry") for q in _require(doc, "q_min", "instance"))
    q_max = tuple(_integer(q, "q_max entry") for q in _require(doc, "q_max", "instance"))
    mode = doc.get("total_dependency_mode", "hard")

    projects = []
    for pd in _require(doc, "projects", "instance"):
        pid = _integer(_require(pd, "id", "project"), "project id")
        ctx = f"project {pid}"
        label = str(pd.get("label", f"P{pid}"))
        raw_cost = pd.get("raw_cost")
        stream = pd.get("return_stream")
        if "cost_pv" in pd:
            cost_pv = tuple(float(c) for c in pd["cost_pv"])
        elif raw_cost is not None:
            cost_pv = tuple(
                cost_present_value(float(raw_cost), rate, k) for k in range(1, n_periods + 1)
            )
        else:
            raise InstanceFormatError(f"{ctx}: needs cost_pv or raw_cost")
        if "return_pv" in pd:
            return_pv = tuple(float(r) for r in pd["return_pv"])
        elif stream is not None:
            if not stream:
                raise InstanceFormatError(f"{ctx}: return_stream must be non-empty")
            return_pv = tuple(
                return_present_value([float(r) for r in stream], rate, k)
                for k in range(1, n_periods + 1)
            )
        else:
            raise InstanceFormatError(f"{ctx}: needs return_pv or return_stream")
        projects.append(
            Project(
                id=pid,
                label=label,
                cost_pv=cost_pv,
                return_pv=return_pv,
                raw_cost=float(raw_cost) if raw_cost is not None else None,
                return_stream=tuple(float(r) for r in stream) if stream is not None else None,
            )
        )

    # schedules index project id i at position i - 1
    projects.sort(key=lambda p: p.id)

    edges = tuple(
        DependencyEdge(
            predecessor=_integer(_require(ed, "predecessor", "edge"), "edge predecessor"),
            dependent=_integer(_require(ed, "dependent", "edge"), "edge dependent"),
            level=float(_require(ed, "level", "edge")),
            option_value=float(_require(ed, "option_value", "edge")),
        )
        for ed in doc.get("edges", [])
    )

    return Instance(
        n_projects=n_p,
        n_periods=n_periods,
        projects=tuple(projects),
        edges=edges,
        budgets=budgets,
        q_min=q_min,
        q_max=q_max,
        rate=rate,
        total_dependency_mode=str(mode),
    )


def instance_to_dict(inst: Instance) -> dict:
    doc = {
        "n_p": inst.n_projects,
        "N": inst.n_periods,
        "rate": inst.rate,
        "budgets": list(inst.budgets),
        "q_min": list(inst.q_min),
        "q_max": list(inst.q_max),
        "total_dependency_mode": inst.total_dependency_mode,
        "projects": [],
        "edges": [
            {
                "predecessor": e.predecessor,
                "dependent": e.dependent,
                "level": e.level,
                "option_value": e.option_value,
            }
            for e in inst.edges
        ],
    }
    for p in inst.projects:
        pd = {"id": p.id, "label": p.label, "cost_pv": list(p.cost_pv), "return_pv": list(p.return_pv)}
        if p.raw_cost is not None:
            pd["raw_cost"] = p.raw_cost
        if p.return_stream is not None:
            pd["return_stream"] = list(p.return_stream)
        doc["projects"].append(pd)
    return doc


def load_instance(path: str) -> Instance:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"{path}: malformed JSON: {exc}") from exc
    return instance_from_dict(doc)


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")


def breakdown_to_dict(b: EvaluationBreakdown) -> dict:
    return {
        "projects": [
            {
                "id": i + 1,
                "dcf_value": b.dcf_values[i],
                "partial_factor": b.partial_factors[i],
                "option_accrued": b.option_accrued[i],
                "effective_return": b.effective_returns[i],
            }
            for i in range(len(b.dcf_values))
        ],
        "total_value": b.total_value,
        "total_cost_per_period": list(b.total_cost_per_period),
        "count_per_period": list(b.count_per_period),
        "budget_excess": list(b.budget_excess),
        "cardinality_shortfall": list(b.cardinality_shortfall),
        "cardinality_excess": list(b.cardinality_excess),
        "precedence_violations": [
            {"predecessor": p, "dependent": d} for p, d in b.precedence_violations
        ],
        "feasible": b.feasible,
    }


def _schedule_doc(s: Schedule, n_periods: int) -> dict:
    return {
        "period_of": list(s.period_of),
        "chromosome": encode_schedule(s, n_periods).to_text().splitlines(),
    }


def solve_result_to_dict(res: SolveResult, inst: Instance) -> dict:
    doc = {"method": "ga"}
    doc.update(_schedule_doc(res.best_schedule, inst.n_periods))
    doc.update(
        {
            "value": res.best_breakdown.total_value,
            "feasible": res.best_breakdown.feasible,
            "generations_run": res.generations_run,
            "terminated_by": res.terminated_by,
            "breakdown": breakdown_to_dict(res.best_breakdown),
        }
    )
    return doc


def oracle_result_to_dict(res: OracleResult, inst: Instance) -> dict:
    doc = {"method": "exact", "feasible_count": res.feasible_count}
    if res.best_schedule is not None:
        doc.update(_schedule_doc(res.best_schedule, inst.n_periods))
        doc["value"] = res.best_breakdown.total_value
        doc["feasible"] = True
        doc["breakdown"] = breakdown_to_dict(res.best_breakdown)
    else:
        doc["period_of"] = None
        doc["chromosome"] = None
        doc["value"] = None
        doc["feasible"] = False
    return doc


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


TRACE_HEADER = "generation,best_value,mean_feasible_value,feasible_count,best_violation"


def trace_to_csv(trace: tuple[TraceEntry, ...]) -> str:
    lines = [TRACE_HEADER]
    for e in trace:
        mean = "nan" if e.mean_feasible_value is None else f"{e.mean_feasible_value:.6f}"
        lines.append(
            f"{e.generation},{e.best_value:.6f},{mean},{e.feasible_count},{e.best_violation:.6f}"
        )
    return "\n".join(lines) + "\n"


def parse_schedule_arg(arg: str, n_projects: int, n_periods: int) -> Schedule:
    """Parse a comma-separated period list or a bit-rows text blob."""
    text = arg.strip()
    # single-project schedules have no comma; a lone period number is only
    # mistakable for a bit row when its length equals N, where "1" means
    # the same thing under both readings
    comma_form = "," in text or (
        n_projects == 1 and "\n" not in text and text.isdigit() and len(text) != n_periods
    )
    if comma_form:
        parts = [p.strip() for p in text.split(",")]
        try:
            periods = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"schedule entries must be integers: {arg!r}") from exc
        if len(periods) != n_projects:
            raise ValueError(f"schedule has {len(periods)} entries, expected n_p ({n_projects})")
        if any(not (1 <= k <= n_periods) for k in periods):
            raise ValueError(f"schedule periods must be in 1..{n_periods}")
        return Schedule(period_of=periods)
    from .model import decode_chromosome  # local to avoid cycle at import time

    chrom = Chromosome.from_text(text)
    if chrom.n_projects != n_projects or chrom.n_periods != n_periods:
        raise ValueError(
            f"bit rows are {chrom.n_projects}x{chrom.n_periods}, expected {n_projects}x{n_periods}"
        )
    return decode_chromosome(chrom)
