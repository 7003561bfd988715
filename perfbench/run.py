"""optfolio benchmark: one workload per run, driven through `optfolio.cli.main`.

Usage, from the root of a checkout (optfolio is imported from its `src/`):

    python3 perfbench/run.py --workload desk-certify --seed 1 --seconds 20 --trace 0

Set-up imports optfolio afresh, generates the workload's instances from the
seed and writes them as JSON files under `.bench_work/`. The measuring phase
then runs passes over the workload's fixed list of CLI calls, in one process
with no threads, until `--seconds` have gone by; a pass that would end more
than half a pass late is not started. Each pass is timed call by call. Before
it, the process moves to the CPU that runs a short loop fastest at that
moment, and SETUPS_PER_PASS timed set-ups run, so every pass starts from a
fresh import and `setup_s`, their median, samples the whole run. Every output
is checked after its pass, outside the timed region.

With `--trace 1`, passes alternate untraced and traced (see tracing.py); the
result holds the per-layer metrics and the tracing overhead. End-to-end
metrics always come from untraced passes.

Standard output ends with a report (every metric of the workload with unit
and direction, digests, machine context) and, as its last line, the result
object `{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS_PER_PASS = 5
FIXTURE_OPTIMUM = 203.0
TOL = 1e-9
MAX_PROBLEMS_SHOWN = 10
ALL_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()

LOWER, HIGHER = "lower", "higher"
# gated end-to-end metrics, reported by every workload; see BENCHMARK.json
GATED = {
    "setup_s": ("s", LOWER),
    "wall_s": ("s", LOWER),
    "call_ms_p50": ("ms", LOWER),
}


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    seconds: float
    error: str | None = None


# -- set-up -----------------------------------------------------------------


def import_optfolio():
    """Import optfolio from this checkout's `src/`, dropping any earlier import."""
    src = ROOT / "src"
    if not (src / "optfolio" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no optfolio package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "optfolio" or m.startswith("optfolio.")]:
        del sys.modules[name]
    opt = importlib.import_module("optfolio")
    if not Path(opt.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: optfolio was imported from {opt.__file__}, not {src}")
    importlib.import_module("optfolio.cli")
    return opt


def set_up(workload: str, seed: int, workdir: Path, small: bool):
    """Import, generate and write the inputs; returns (seconds, optfolio, inputs)."""
    t0 = perf_counter()
    opt = import_optfolio()
    inputs = workloads.BUILDERS[workload](opt, seed, small)
    for name, text in inputs.documents.items():
        (workdir / name).write_text(text)
    return perf_counter() - t0, opt, inputs


def input_digest(inputs: workloads.Inputs) -> str:
    h = hashlib.sha256()
    for name, text in inputs.documents.items():
        h.update(f"{name}\n{text}".encode())
    for call in inputs.calls:
        h.update(json.dumps([call.kind, call.instance, *call.options]).encode())
    return h.hexdigest()


# -- timed phase ------------------------------------------------------------


def invoke(cli, argv: list[str]) -> Outcome:
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        rc = cli.main(argv, out=buf)
    except SystemExit as exc:  # argparse refusing a command line
        return Outcome(exc.code if isinstance(exc.code, int) else 1, buf.getvalue(),
                       perf_counter() - t0, f"SystemExit({exc.code!r})")
    except Exception as exc:  # counted as a failed operation, never fatal
        return Outcome(None, buf.getvalue(), perf_counter() - t0, repr(exc))
    return Outcome(rc, buf.getvalue(), perf_counter() - t0)


def run_pass(cli, calls: list[workloads.Call], workdir: Path) -> list[Outcome]:
    return [invoke(cli, [c.kind, str(workdir / c.instance), *c.options]) for c in calls]


# -- correctness ------------------------------------------------------------


class Checker:
    """Checks every output; the verdict on identical output is reused."""

    def __init__(self, opt, inputs: workloads.Inputs):
        self.opt = opt
        self.calls = inputs.calls
        self.instances = {
            name: opt.instance_from_dict(json.loads(text)) for name, text in inputs.documents.items()
        }
        self._verdicts: dict[tuple, list[str]] = {}
        self.first: list[Outcome] | None = None

    def check_pass(self, outcomes: list[Outcome]) -> list[list[str]]:
        """Problems found with each outcome of one pass (empty list: correct)."""
        problems = []
        for i, (call, out) in enumerate(zip(self.calls, outcomes)):
            key = (i, out.rc, out.stdout, out.error)
            if key not in self._verdicts:
                self._verdicts[key] = self._check(call, out)
            problems.append(list(self._verdicts[key]))
        if self.first is None:
            self.first = outcomes
        for i, (out, ref) in enumerate(zip(outcomes, self.first)):
            if out.stdout != ref.stdout or out.rc != ref.rc:
                problems[i].append("output differs from the first pass for the same call")
        self._check_against_oracle(outcomes, problems)
        return problems

    def _check(self, call: workloads.Call, out: Outcome) -> list[str]:
        if out.error is not None:
            return [f"raised {out.error}"]
        try:
            doc = json.loads(out.stdout)
            inst = self.instances[call.instance]
            if call.kind == "evaluate":
                return self._check_evaluate(call, out, doc, inst)
            return self._check_solution(call, out, doc, inst)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]

    def _matches(self, schedule: tuple[int, ...], value, feasible, inst) -> list[str]:
        b = self.opt.evaluate(self.opt.Schedule(period_of=tuple(schedule)), inst)
        found = []
        if not math.isclose(b.total_value, value, rel_tol=TOL, abs_tol=TOL):
            found.append(f"printed value {value!r} but evaluate() gives {b.total_value!r}")
        if b.feasible is not feasible:
            found.append(f"printed feasible={feasible!r} but evaluate() gives {b.feasible!r}")
        return found

    def _check_evaluate(self, call, out, doc, inst) -> list[str]:
        found = [] if out.rc == 0 else [f"exit code {out.rc} from evaluate"]
        return found + self._matches(call.schedule, doc["total_value"], doc["feasible"], inst)

    def _check_solution(self, call, out, doc, inst) -> list[str]:
        feasible = doc["feasible"]
        found = []
        if out.rc != (0 if feasible else 2):
            found.append(f"exit code {out.rc} with feasible={feasible!r}")
        if doc["period_of"] is None:
            if call.kind != "exact" or feasible is not False:
                found.append("no schedule printed")
            return found
        return found + self._matches(doc["period_of"], doc["value"], feasible, inst)

    def _check_against_oracle(self, outcomes: list[Outcome], problems: list[list[str]]) -> None:
        """The GA never beats the exhaustive optimum of the same instance."""
        for ga_i, oracle_i in certify_pairs(self.calls):
            if problems[ga_i] or problems[oracle_i]:
                continue
            ga = json.loads(outcomes[ga_i].stdout)
            oracle = json.loads(outcomes[oracle_i].stdout)
            if ga["feasible"] and not oracle["feasible"]:
                problems[ga_i].append("GA feasible where the oracle finds nothing feasible")
            elif ga["feasible"] and ga["value"] > oracle["value"] + TOL:
                problems[ga_i].append(f"GA value {ga['value']!r} beats the oracle's {oracle['value']!r}")


def certify_pairs(calls: list[workloads.Call]) -> list[tuple[int, int]]:
    """(solve index, exact index) for each instance that has both calls."""
    first: dict[tuple[str, str], int] = {}
    for i, c in enumerate(calls):
        first.setdefault((c.kind, c.instance), i)
    return [
        (i, first[("exact", inst)])
        for (kind, inst), i in first.items()
        if kind == "solve" and ("exact", inst) in first
    ]


def check_fixture(opt, cli) -> str | None:
    """`exact` on the bundled paper fixture must return 203; the problem, if any."""
    out = invoke(cli, ["exact", opt.paper_fixture_path()])
    if out.error is not None or out.rc != 0:
        return f"exact on the paper fixture: exit {out.rc}, {out.error}"
    try:
        value = json.loads(out.stdout)["value"]
        if math.isclose(value, FIXTURE_OPTIMUM, abs_tol=TOL):
            return None
    except (ValueError, KeyError, TypeError) as exc:
        return f"exact on the paper fixture: unreadable output: {exc!r}"
    return f"exact on the paper fixture returned {value!r}, expected {FIXTURE_OPTIMUM}"


# -- statistics -------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it.

    None below 20 samples, where that percentile would not exceed the median.
    """
    n = len(samples)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def ga_quality(calls: list[workloads.Call], outcomes: list[Outcome]) -> dict[str, float]:
    """GA-versus-oracle figures of one pass (outputs are deterministic)."""
    solves = [json.loads(o.stdout) for c, o in zip(calls, outcomes) if c.kind == "solve"]
    quality = {"ga_feasible_frac": sum(d["feasible"] for d in solves) / len(solves)}
    gaps, exact = [], 0
    for ga_i, oracle_i in certify_pairs(calls):
        ga = json.loads(outcomes[ga_i].stdout)
        oracle = json.loads(outcomes[oracle_i].stdout)
        if not oracle["feasible"]:
            continue
        if ga["feasible"]:
            gaps.append(100.0 * (oracle["value"] - ga["value"]) / abs(oracle["value"]))
            exact += math.isclose(ga["value"], oracle["value"], rel_tol=TOL, abs_tol=TOL)
        else:
            gaps.append(100.0)  # no usable answer
    if gaps:
        quality["ga_gap_pct"] = statistics.mean(gaps)
        quality["ga_exact_frac"] = exact / len(gaps)
    return quality


def calibration_s(n: int = 1_000_000) -> float:
    """Seconds for a fixed pure-Python loop, to show how fast the machine ran."""
    t0 = perf_counter()
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return perf_counter() - t0


def pin_to_fastest_cpu() -> int | None:
    """Move this process to the CPU that runs a short loop fastest right now.

    On a small VM the CPUs can differ in speed by up to 2x for minutes at a
    time (contention outside the VM), and a process that stays where it was
    started can spend a whole run on the slow one. Called before every pass.
    """
    cpus = sorted(ALL_CPUS)
    if len(cpus) < 2:
        return cpus[0] if cpus else None
    speeds = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = min(calibration_s(100_000) for _ in range(3))
    best = min(speeds, key=speeds.get)
    os.sched_setaffinity(0, {best})
    return best


def machine(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "seed": seed,
    }


# -- one run ----------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """Run one workload; returns (result, report)."""
    context = machine(seed)
    calib = {"before": calibration_s()}
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    try:
        setups: list[float] = []

        def set_up_again():
            for _ in range(SETUPS_PER_PASS):
                gc.collect()
                dt, opt, inputs = set_up(workload, seed, workdir, small)
                setups.append(dt)
            return opt, inputs

        opt, inputs = set_up_again()
        cli = sys.modules["optfolio.cli"]
        layers: dict[str, float] = {}
        if trace:
            with tracing.Tracer() as tr:
                workloads.BUILDERS[workload](opt, seed, small)
            layers.update(tr.setup_metrics())

        checker = Checker(opt, inputs)
        fixture_problem = check_fixture(opt, cli)
        attempted, failed = 1, int(fixture_problem is not None)
        problems = [fixture_problem] if fixture_problem else []
        times: dict[str, list[float]] = {}
        pass_times, traced_walls, traced_layers = [], [], []
        output = hashlib.sha256()
        deadline = perf_counter() + seconds
        pinned = []
        while True:
            pinned.append(pin_to_fastest_cpu())
            traced = trace and len(pass_times) > len(traced_walls)
            if traced:
                with tracing.Tracer() as tr:
                    outcomes = run_pass(cli, inputs.calls, workdir)
                traced_walls.append(sum(o.seconds for o in outcomes))
                traced_layers.append(tr.pass_metrics())
                absent = tr.absent()
            else:
                outcomes = run_pass(cli, inputs.calls, workdir)
                pass_times.append([o.seconds for o in outcomes])
                for call, o in zip(inputs.calls, outcomes):
                    times.setdefault(call.kind, []).append(o.seconds)
            found = checker.check_pass(outcomes)
            if checker.first is outcomes:
                for o in outcomes:
                    output.update(o.stdout.encode())
            attempted += len(outcomes)
            failed += sum(1 for p in found if p)
            problems += [f"{c.kind} {c.instance}: {p}" for c, ps in zip(inputs.calls, found) for p in ps]
            # stop rather than overrun the deadline by more than half a pass
            typical = statistics.median(sum(p) for p in pass_times)
            if perf_counter() >= deadline - typical / 2 and (traced_walls or not trace):
                break
            set_up_again()  # the next pass starts from a fresh import, as the first did
            cli = sys.modules["optfolio.cli"]
        calib["after"] = calibration_s()
    finally:
        if ALL_CPUS:
            os.sched_setaffinity(0, ALL_CPUS)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it

    primary = workloads.PRIMARY[workload]
    e2e = {
        "setup_s": statistics.median(setups),
        # the typical pass: each call's median over the untraced passes
        "wall_s": sum(statistics.median(col) for col in zip(*pass_times)),
        "call_ms_p50": statistics.median(times[primary]) * 1e3,
    }
    report_metrics = {k: {"value": v, "unit": GATED[k][0], "better": GATED[k][1]} for k, v in e2e.items()}
    report_metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB", "better": LOWER}
    for kind, samples in sorted(times.items()):
        ms = [s * 1e3 for s in samples]
        report_metrics[f"{kind}_ms_p50"] = {"value": statistics.median(ms), "unit": "ms",
                                            "better": LOWER, "n": len(ms)}
        t = tail(ms)
        if t is not None:
            report_metrics[f"{kind}_ms_tail"] = {"value": t[1], "unit": "ms", "better": LOWER,
                                                 "percentile": t[0], "n": len(ms)}
    report_metrics["failed_frac"] = {"value": failed / attempted, "unit": "frac", "better": LOWER}
    if primary == "solve" and not failed:
        for k, v in ga_quality(inputs.calls, checker.first).items():
            unit, better = ("%", LOWER) if k == "ga_gap_pct" else ("frac", HIGHER)
            report_metrics[k] = {"value": v, "unit": unit, "better": better}

    report = {
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "machine": context,
        "calibration_s": calib,
        "input_sha256": input_digest(inputs),
        "output_sha256": output.hexdigest(),
        "pass_wall_s": [sum(p) for p in pass_times],
        "pass_cpu": pinned,
        "traced_pass_wall_s": traced_walls,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS_SHOWN],
        "end_to_end": report_metrics,
    }
    if trace:
        layers.update(tracing.median_metrics(traced_layers))
        untraced = statistics.median(sum(p) for p in pass_times)
        layers[tracing.OVERHEAD] = 100.0 * (statistics.median(traced_walls) - untraced) / untraced
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]} for k, v in layers.items()}
        report["per_layer"] = {
            k: {**m, "better": tracing.PER_LAYER[k][1]} for k, m in metrics.items()}
        report["absent"] = absent
        claim, figure, holds = workloads.STRESS[workload]
        try:
            value = figure(layers)
            report["stress"] = {"claim": claim, "value": value, "holds": holds(value)}
        except (KeyError, ZeroDivisionError):
            report["stress"] = {"claim": claim, "value": None, "holds": None}
    else:
        metrics = {k: {"value": v, "unit": GATED[k][0]} for k, v in e2e.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="optfolio benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
