"""Command-line interface.

Subcommands:
  solve     GA solver on an instance file, JSON result on stdout
  exact     exhaustive-enumeration optimum (desk-scale instances)
  evaluate  value breakdown of a given schedule
  sweep     re-solve over a grid of cardinality bounds, CSV on stdout
  gen       write a random valid instance file

Exit codes: 0 success, 1 input/usage error, 2 infeasible result from
solve or exact, 3 enumeration cap exceeded (N^n_p over --cap, or more
projects than the exact search can recurse through). evaluate and sweep
exit 0 whenever they print a result: the breakdown or the row reports an
infeasible schedule or cell. A command that exits 1 or 3 prints nothing on
stdout.

Defaults live only in the library: each GA and gen flag stores under the
GaConfig field or generate_instance parameter it sets, and only the flags
given are forwarded, as keyword arguments. `sweep --method exact` refuses
GA flags rather than ignore them.

`main` is cheap to call repeatedly in one process: the parser is built on
the first call and shared by the rest, since parsing keeps no state in it.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import os
import re
import sys
from dataclasses import replace

from . import __version__
from .ga import GaConfig, run_ga
from .generator import generate_instance
from .oracle import DEFAULT_CAP, SearchSpaceCapExceeded, enumerate_optimal
from .serialization import (
    InstanceFormatError,
    breakdown_to_dict,
    dump_json,
    load_instance,
    oracle_result_to_dict,
    parse_schedule_arg,
    save_instance,
    solve_result_to_dict,
    trace_to_csv,
)
from .valuation import InvalidInstanceError, build_tables, evaluate

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_CAP_EXCEEDED = 3


# each GA flag, the GaConfig field it sets and its type
_GA_FLAGS = (
    ("--seed", "seed", int),
    ("--population", "population_size", int),
    ("--generations", "max_generations", int),
    ("--mutation-rate", "mutation_rate", float),
    ("--crossover-rate", "crossover_rate", float),
    ("--tournament", "tournament_size", int),
    ("--elites", "elite_count", int),
    ("--restarts", "restarts", int),
    ("--stagnation", "stagnation_limit", int),
)


def _add_ga_flags(p: argparse.ArgumentParser) -> None:
    # dest is the GaConfig field; metavar keeps the flag's own name in --help
    for flag, dest, kind in _GA_FLAGS:
        p.add_argument(flag, type=kind, dest=dest, metavar=flag[2:].replace("-", "_").upper())


def _given(args: argparse.Namespace, target) -> dict:
    """The flags set on the command line that name a parameter of target."""
    params = inspect.signature(target).parameters
    return {k: v for k, v in vars(args).items() if k in params}


def cmd_solve(args: argparse.Namespace, out) -> int:
    inst = load_instance(args.instance)
    res = run_ga(inst, GaConfig(**_given(args, GaConfig)))
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write(trace_to_csv(res.trace))
    out.write(dump_json(solve_result_to_dict(res)))
    return EXIT_OK if res.best_breakdown.feasible else EXIT_INFEASIBLE


def cmd_exact(args: argparse.Namespace, out) -> int:
    inst = load_instance(args.instance)
    res = enumerate_optimal(inst, cap=args.cap)
    out.write(dump_json(oracle_result_to_dict(res)))
    return EXIT_OK if res.feasible else EXIT_INFEASIBLE


# digits, commas and whitespace: a period list or bit rows, never a path
_INLINE_SCHEDULE = re.compile(r"[0-9,\s]*")


def cmd_evaluate(args: argparse.Namespace, out) -> int:
    inst = load_instance(args.instance)
    text = args.schedule
    if not _INLINE_SCHEDULE.fullmatch(text) and os.path.exists(text):
        with open(text) as fh:
            text = fh.read()
    schedule = parse_schedule_arg(text, inst.n_projects, inst.n_periods)
    breakdown = evaluate(schedule, inst)
    out.write(dump_json(breakdown_to_dict(breakdown)))
    return EXIT_OK


def _parse_range(spec: str, flag: str) -> range:
    lo, sep, hi = spec.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise InstanceFormatError(f"{flag}: expected a..b or a single integer, got {spec!r}")
    if b < a:
        raise InstanceFormatError(f"{flag}: empty range {spec!r}")
    return range(a, b + 1)


def cmd_sweep(args: argparse.Namespace, out) -> int:
    inst = load_instance(args.instance)
    # gated here: the solvers refuse an invalid cell, which prints as skipped
    build_tables(inst)
    qmins = _parse_range(args.qmin_range, "--qmin-range")
    qmaxs = _parse_range(args.qmax_range, "--qmax-range")
    ga_fields = _given(args, GaConfig)
    if args.method == "exact" and ga_fields:
        flags = ", ".join(flag for flag, dest, _kind in _GA_FLAGS if dest in ga_fields)
        raise ValueError(f"--method exact takes no GA flags, got {flags}")
    cfg = GaConfig(**ga_fields) if args.method == "ga" else None
    # written once at the end, so a cell that fails leaves stdout empty
    rows = ["q_min,q_max,status,value,schedule\n"]
    for qmin in qmins:
        for qmax in qmaxs:
            cell = replace(
                inst,
                q_min=(qmin,) * inst.n_periods,
                q_max=(qmax,) * inst.n_periods,
            )
            # the solver's table build is the cell's gate (q_min > q_max included)
            try:
                if args.method == "exact":
                    res = enumerate_optimal(cell, cap=args.cap)
                else:
                    res = run_ga(cell, cfg)
            except InvalidInstanceError:
                rows.append(f"{qmin},{qmax},skipped,,\n")
                continue
            best = res.best_breakdown  # None when the oracle finds no feasible schedule
            if best is not None and best.feasible:
                sched_txt = "-".join(map(str, res.best_schedule.period_of))
                rows.append(f"{qmin},{qmax},ok,{best.total_value:.6f},{sched_txt}\n")
            else:
                rows.append(f"{qmin},{qmax},infeasible,,\n")
    out.write("".join(rows))
    return EXIT_OK


def cmd_gen(args: argparse.Namespace, out) -> int:
    save_instance(generate_instance(**_given(args, generate_instance)), args.out)
    return EXIT_OK


# whatif-evaluate calls main per request: building the parser once saves ~1 ms a call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The optfolio parser, built on first use; later calls return the same one."""
    parser = argparse.ArgumentParser(
        prog="optfolio",
        description="Multi-period project portfolio optimization with real-option accrual",
    )
    parser.add_argument("--version", action="version", version=f"optfolio {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # a flag left unset stays out of the namespace, so the library default applies
    unset = argparse.SUPPRESS

    p = sub.add_parser("solve", help="GA solver", argument_default=unset)
    p.add_argument("instance")
    _add_ga_flags(p)
    p.add_argument("--trace-out", default=None, help="write convergence trace CSV here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("exact", help="exhaustive-enumeration optimum")
    p.add_argument("instance")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="max N^n_p to enumerate")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("evaluate", help="value breakdown for a schedule")
    p.add_argument("instance")
    p.add_argument("schedule", help="comma-separated periods, or a bit-rows file/blob")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="grid of cardinality bounds", argument_default=unset)
    p.add_argument("instance")
    p.add_argument("--qmin-range", required=True, help="a..b inclusive")
    p.add_argument("--qmax-range", required=True, help="c..d inclusive")
    p.add_argument("--method", choices=("exact", "ga"), default="exact")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    _add_ga_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen", help="write a random valid instance", argument_default=unset)
    p.add_argument("--projects", type=int, required=True, dest="n_projects", metavar="PROJECTS")
    p.add_argument("--periods", type=int, required=True, dest="n_periods", metavar="PERIODS")
    # with the required flags first, usage wraps alike on Python 3.10 to 3.13
    p.add_argument("--out", required=True)
    p.add_argument("--edge-density", type=float)
    p.add_argument("--partial-fraction", type=float)
    p.add_argument("--budget-tightness", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help, --version
            raise
        return EXIT_INPUT_ERROR  # argparse has printed the usage error
    try:
        return args.func(args, out)
    except SearchSpaceCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
