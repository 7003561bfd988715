"""File formats: instance JSON documents, bit-row text, result JSON, CSV.

Bit-row text writes a schedule in the paper's x_ik form: one row per
project, one '0'/'1' column per period, and exactly one '1' per row, in
the column of the project's funding period. Results print it as their
`chromosome`, and `evaluate` reads it in place of a period list.

All emitters are byte-stable for identical inputs (fixed key order, fixed
numeric formatting) so golden tests and determinism checks can compare
output verbatim. `dump_json` writes exactly the bytes of
`json.dumps(doc, indent=2) + "\n"`, with a small writer of its own:
`indent` turns the standard library's C encoder off, and the pure-Python
encoder it falls back to costs more than valuing a schedule. Lists of
numbers take the per-value path too: a path of their own saved no time.

The loader checks each number array, and each edge, with one type test
and runs the field-by-field checks only on a miss, so every refusal keeps
its message.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .ga import SolveResult, TraceEntry
from .model import (
    DependencyEdge,
    Instance,
    Project,
    Schedule,
    cost_present_value,
    return_present_value,
)
from .oracle import OracleResult
from .valuation import EvaluationBreakdown


class InstanceFormatError(ValueError):
    """Raised when an instance document cannot be parsed into an Instance."""


def _require(obj, key: str, context: str):
    try:
        return obj[key]
    except KeyError:
        raise InstanceFormatError(f"{context}: missing required key {key!r}") from None
    except TypeError:  # a number, string, array or null where an object belongs
        raise InstanceFormatError(f"{context} must be an object, got {obj!r}") from None


def _integer(value, context: str) -> int:
    # bool is an int subclass, and int() would truncate floats and parse strings
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceFormatError(f"{context} must be an integer, got {value!r}")
    return value


def _float(value: int | float, context: str) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer beyond the largest float
        raise InstanceFormatError(
            f"{context} must fit in a float, got an integer of {value.bit_length()} bits"
        ) from None


def _number(value, context: str) -> float:
    # float() would take a bool and parse a string
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceFormatError(f"{context} must be a number, got {value!r}")
    return _float(value, context)


def _array(value, context: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise InstanceFormatError(f"{context} must be an array, got {value!r}")
    return value


_NUMBER_TYPES = {int, float}


def _numbers(value, context: str) -> tuple[float, ...]:
    # one type test per array; a miss re-checks entry by entry for the message
    # (whatif-evaluate loads per call: this saves 94-161 us of a ~3.5 ms request)
    if type(value) is list and set(map(type, value)) <= _NUMBER_TYPES:
        try:
            return tuple(map(float, value))
        except OverflowError:  # an integer no float holds: the loop names it
            pass
    for x in _array(value, context):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise InstanceFormatError(f"{context} entries must be numbers, got {x!r}")
    return tuple(_float(x, f"{context} entry") for x in value)


_EDGE_TYPES = (int, int, float, float)


def _edge(ed) -> DependencyEdge:
    # whatif-evaluate loads per call: without this test it ran slower in 4 of 5 pairs
    try:
        pred, dep = ed["predecessor"], ed["dependent"]
        level, option_value = ed["level"], ed["option_value"]
    except (KeyError, TypeError):  # a missing key, or not an object
        pass
    else:
        if (type(pred), type(dep), type(level), type(option_value)) == _EDGE_TYPES:
            return DependencyEdge(pred, dep, level, option_value)
    # a miss (an integer level included): the checks that name the field
    return DependencyEdge(
        predecessor=_integer(_require(ed, "predecessor", "edge"), "edge predecessor"),
        dependent=_integer(_require(ed, "dependent", "edge"), "edge dependent"),
        level=_number(_require(ed, "level", "edge"), "edge level"),
        option_value=_number(_require(ed, "option_value", "edge"), "edge option_value"),
    )


def _discounted(present_value, raw, rate: float, n_periods: int, context: str) -> tuple[float, ...]:
    """present_value(raw, rate, k) for k = 1..N; a rate it refuses or overflows on is named."""
    try:
        return tuple(present_value(raw, rate, k) for k in range(1, n_periods + 1))
    except OverflowError:
        raise InstanceFormatError(
            f"{context} cannot be discounted at rate {rate}: the factor exceeds the float range"
        ) from None
    except ValueError as exc:  # a negative rate
        raise InstanceFormatError(f"{context} cannot be discounted: {exc}") from None


def instance_from_dict(doc: dict) -> Instance:
    """Parse an instance document; unknown keys (e.g. comments) are ignored.

    A value of the wrong JSON type (a boolean or a string for a number, a
    number for an array or an object, anything but a string for a label),
    and a number no float can hold, raise InstanceFormatError naming the
    field.
    """
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    n_p = _integer(_require(doc, "n_p", "instance"), "n_p")
    n_periods = _integer(_require(doc, "N", "instance"), "N")
    rate = _number(doc.get("rate", 0.0), "rate")
    budgets = _numbers(_require(doc, "budgets", "instance"), "budgets")
    # checked before any N-long table is derived, so a small document with a
    # huge N costs no more than its own size
    if len(budgets) != n_periods:
        raise InstanceFormatError(f"budgets has {len(budgets)} entries, expected N ({n_periods})")
    q_min = tuple(
        _integer(q, "q_min entry") for q in _array(_require(doc, "q_min", "instance"), "q_min")
    )
    q_max = tuple(
        _integer(q, "q_max entry") for q in _array(_require(doc, "q_max", "instance"), "q_max")
    )
    mode = doc.get("total_dependency_mode", "hard")

    projects = []
    for pd in _array(_require(doc, "projects", "instance"), "projects"):
        pid = _integer(_require(pd, "id", "project"), "project id")
        ctx = f"project {pid}"
        label = pd.get("label", f"P{pid}")
        if not isinstance(label, str):
            raise InstanceFormatError(f"{ctx}: label must be a string, got {label!r}")
        raw_cost = pd.get("raw_cost")
        if raw_cost is not None:
            raw_cost = _number(raw_cost, f"{ctx}: raw_cost")
        stream = pd.get("return_stream")
        if stream is not None:
            stream = _numbers(stream, f"{ctx}: return_stream")
        if "cost_pv" in pd:
            cost_pv = _numbers(pd["cost_pv"], f"{ctx}: cost_pv")
        elif raw_cost is not None:
            cost_pv = _discounted(cost_present_value, raw_cost, rate, n_periods, f"{ctx}: raw_cost")
        else:
            raise InstanceFormatError(f"{ctx}: needs cost_pv or raw_cost")
        if "return_pv" in pd:
            return_pv = _numbers(pd["return_pv"], f"{ctx}: return_pv")
        elif stream is not None:
            if not stream:
                raise InstanceFormatError(f"{ctx}: return_stream must be non-empty")
            return_pv = _discounted(
                return_present_value, list(stream), rate, n_periods, f"{ctx}: return_stream"
            )
        else:
            raise InstanceFormatError(f"{ctx}: needs return_pv or return_stream")
        projects.append(
            Project(
                id=pid,
                label=label,
                cost_pv=cost_pv,
                return_pv=return_pv,
                raw_cost=raw_cost,
                return_stream=stream,
            )
        )

    # schedules index project id i at position i - 1
    projects.sort(key=lambda p: p.id)

    edges = tuple(map(_edge, _array(doc.get("edges", []), "edges")))

    return Instance(
        n_projects=n_p,
        n_periods=n_periods,
        projects=tuple(projects),
        edges=edges,
        budgets=budgets,
        q_min=q_min,
        q_max=q_max,
        rate=rate,
        total_dependency_mode=mode,
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


# ends an over-long integer literal's message: advice no CLI user can follow
_INT_LIMIT_ADVICE = "; use sys.set_int_max_str_digits() to increase the limit"


def load_instance(path: str) -> Instance:
    # JSON text is UTF-8 (RFC 8259, section 8.1), whatever the locale says
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        # the decoder recurses once per nesting level; ValueError covers
        # JSONDecodeError, UnicodeDecodeError and an over-long integer literal
        except (ValueError, RecursionError) as exc:
            reason = str(exc).removesuffix(_INT_LIMIT_ADVICE)
            raise InstanceFormatError(f"{path}: malformed JSON: {reason}") from exc
    return instance_from_dict(doc)


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dump_json(instance_to_dict(inst)))


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


def bit_rows(periods: tuple[int, ...], n_periods: int) -> list[str]:
    """The bit-row text of a schedule, one string per project; periods in 1..N."""
    return ["0" * (k - 1) + "1" + "0" * (n_periods - k) for k in periods]


def _schedule_doc(s: Schedule, n_periods: int) -> dict:
    return {"period_of": list(s.period_of), "chromosome": bit_rows(s.period_of, n_periods)}


def solve_result_to_dict(res: SolveResult) -> dict:
    doc = {"method": "ga"}
    doc.update(_schedule_doc(res.best_schedule, len(res.best_breakdown.count_per_period)))
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


def oracle_result_to_dict(res: OracleResult) -> dict:
    doc = {"method": "exact", "feasible_count": res.feasible_count}
    if res.best_schedule is not None:
        doc.update(_schedule_doc(res.best_schedule, len(res.best_breakdown.count_per_period)))
        doc["value"] = res.best_breakdown.total_value
        doc["feasible"] = True
        doc["breakdown"] = breakdown_to_dict(res.best_breakdown)
    else:
        doc["period_of"] = None
        doc["chromosome"] = None
        doc["value"] = None
        doc["feasible"] = False
    return doc


# repr of a non-finite float -> json's spelling
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value, pad: str) -> str:
    """The indent-2 JSON text of value, whose first line is indented by pad.

    Raises TypeError on a type json.dumps may know and this does not: a
    subclass, a non-string key, or anything else.
    """
    kind = type(value)
    if kind is float:
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        # encode_basestring_ascii raises TypeError on a key that is not a str
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in value.items()]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        items = [_json_text(v, inner) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    raise TypeError(f"no JSON text for {kind.__name__}")


def dump_json(doc: dict) -> str:
    """`json.dumps(doc, indent=2) + "\n"`, byte for byte."""
    # whatif-evaluate writes a breakdown per call: this saves ~0.17 ms a request
    try:
        return _json_text(doc, "") + "\n"
    except TypeError:  # e.g. a numpy.float64; json writes it, or raises its own error
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
    rows = [line.strip() for line in text.splitlines() if line.strip()]
    for row in rows:
        if set(row) - {"0", "1"}:
            raise ValueError(f"bit row contains non-binary characters: {row!r}")
    if len({len(row) for row in rows}) > 1:
        raise ValueError("all chromosome rows must have equal length")
    width = len(rows[0]) if rows else 0
    # no rows have no width: the empty schedule of an n_p = 0 instance passes
    if len(rows) != n_projects or (rows and width != n_periods):
        raise ValueError(f"bit rows are {len(rows)}x{width}, expected {n_projects}x{n_periods}")
    bad = [(r, row.count("1")) for r, row in enumerate(rows, start=1) if row.count("1") != 1]
    if bad:
        detail = "; ".join(f"row {r} has {n} set bits" for r, n in bad)
        raise ValueError(f"invalid chromosome: {detail}")
    return Schedule(period_of=tuple(row.index("1") + 1 for row in rows))
