"""Command-line interface.

Subcommands:
  solve     GA solver on an instance file, JSON result on stdout
  exact     exhaustive-enumeration optimum (desk-scale instances)
  evaluate  value breakdown of a given schedule
  sweep     re-solve over a grid of cardinality bounds, CSV on stdout
  gen       write a random valid instance file

Exit codes: 0 success with a feasible result, 1 input/usage error,
2 infeasible result, 3 enumeration cap exceeded (N^n_p over --cap, or more
projects than the exact search can recurse through).
"""

from __future__ import annotations

import argparse
import os
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


def _add_ga_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--population", type=int, default=100)
    p.add_argument("--generations", type=int, default=200)
    p.add_argument("--mutation-rate", type=float, default=None)
    p.add_argument("--crossover-rate", type=float, default=0.8)
    p.add_argument("--tournament", type=int, default=3)
    p.add_argument("--elites", type=int, default=2)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--stagnation", type=int, default=50)


def _ga_config(args: argparse.Namespace) -> GaConfig:
    return GaConfig(
        population_size=args.population,
        max_generations=args.generations,
        stagnation_limit=args.stagnation,
        tournament_size=args.tournament,
        crossover_rate=args.crossover_rate,
        mutation_rate=args.mutation_rate,
        elite_count=args.elites,
        restarts=args.restarts,
        seed=args.seed,
    )


def cmd_solve(args: argparse.Namespace, out) -> int:
    inst = load_instance(args.instance)
    res = run_ga(inst, _ga_config(args))
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


def cmd_evaluate(args: argparse.Namespace, out) -> int:
    inst = load_instance(args.instance)
    text = args.schedule
    if os.path.exists(text):
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
    out.write("q_min,q_max,status,value,schedule\n")
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
                    res = run_ga(cell, _ga_config(args))
            except InvalidInstanceError:
                out.write(f"{qmin},{qmax},skipped,,\n")
                continue
            best = res.best_breakdown  # None when the oracle finds no feasible schedule
            if best is not None and best.feasible:
                sched_txt = "-".join(map(str, res.best_schedule.period_of))
                out.write(f"{qmin},{qmax},ok,{best.total_value:.6f},{sched_txt}\n")
            else:
                out.write(f"{qmin},{qmax},infeasible,,\n")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace, out) -> int:
    inst = generate_instance(
        n_projects=args.projects,
        n_periods=args.periods,
        edge_density=args.edge_density,
        partial_fraction=args.partial_fraction,
        budget_tightness=args.budget_tightness,
        seed=args.seed,
    )
    save_instance(inst, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optfolio",
        description="Multi-period project portfolio optimization with real-option accrual",
    )
    parser.add_argument("--version", action="version", version=f"optfolio {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="GA solver")
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

    p = sub.add_parser("sweep", help="grid of cardinality bounds")
    p.add_argument("instance")
    p.add_argument("--qmin-range", required=True, help="a..b inclusive")
    p.add_argument("--qmax-range", required=True, help="c..d inclusive")
    p.add_argument("--method", choices=("exact", "ga"), default="exact")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    _add_ga_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen", help="write a random valid instance")
    p.add_argument("--projects", type=int, required=True)
    p.add_argument("--periods", type=int, required=True)
    p.add_argument("--edge-density", type=float, default=0.3)
    p.add_argument("--partial-fraction", type=float, default=0.3)
    p.add_argument("--budget-tightness", type=float, default=1.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
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
