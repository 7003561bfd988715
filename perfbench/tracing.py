"""Per-layer tracing from outside the package.

A `Tracer` replaces each traced optfolio function, in every optfolio module
that holds a reference to it, with a wrapper that times the call and charges
its duration to the caller's span, so that self time is span time minus the
time of the traced calls made inside it. Nothing inside the package changes.
A target that no longer exists is reported as absent, with the metrics that
depend on it.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute) of every traced function
TARGETS = (
    ("optfolio.generator", "generate_instance"),
    ("optfolio.serialization", "load_instance"),
    ("optfolio.serialization", "dump_json"),
    ("optfolio.model", "validate_instance"),
    ("optfolio.valuation", "score"),
    ("optfolio.valuation", "evaluate"),
    ("optfolio.ga", "run_ga"),
    ("optfolio.ga", "tournament_select"),
    ("optfolio.ga", "crossover"),
    ("optfolio.ga", "mutate"),
    ("optfolio.oracle", "enumerate_optimal"),
    ("optfolio.cli", "main"),
)

# per-layer metric -> (unit, better, targets it needs); "fn@module" needs the call
# site in that module, and "results" needs the fields read from GA and
# oracle results
METRICS = {
    "serialization.load_ms": ("ms", "lower", ["load_instance"]),
    "serialization.dump_ms": ("ms", "lower", ["dump_json"]),
    "model.validate_ms": ("ms", "lower", ["validate_instance"]),
    "model.schedules_built": ("count", "lower", ["Schedule"]),
    "valuation.score_calls": ("count", "lower", ["score"]),
    "valuation.score_us": ("us", "lower", ["score"]),
    "valuation.evaluate_calls": ("count", "lower", ["evaluate"]),
    "valuation.evaluate_us": ("us", "lower", ["evaluate"]),
    "ga.calls": ("count", "lower", ["run_ga"]),
    "ga.run_ms": ("ms", "lower", ["run_ga"]),
    "ga.generations": ("count", "lower", ["run_ga", "results"]),
    "ga.genomes_requested": ("count", "lower", ["run_ga", "results"]),
    "ga.genomes_scored": ("count", "lower", ["score@ga"]),
    "ga.cache_hit_frac": ("frac", "higher", ["run_ga", "results", "score@ga"]),
    "ga.select_ms": ("ms", "lower", ["tournament_select@ga"]),
    "ga.vary_ms": ("ms", "lower", ["crossover@ga", "mutate@ga"]),
    "ga.score_ms": ("ms", "lower", ["score@ga"]),
    "ga.self_ms": ("ms", "lower", ["run_ga"]),
    "ga.feasible_member_frac": ("frac", "higher", ["run_ga", "results"]),
    "oracle.calls": ("count", "lower", ["enumerate_optimal"]),
    "oracle.run_ms": ("ms", "lower", ["enumerate_optimal"]),
    "oracle.leaves": ("count", "lower", ["score@oracle"]),
    "oracle.leaves_per_call": ("count", "lower", ["enumerate_optimal", "score@oracle"]),
    "oracle.leaf_us": ("us", "lower", ["score@oracle"]),
    "oracle.feasible_leaf_frac": ("frac", "higher", ["enumerate_optimal", "results", "score@oracle"]),
    "oracle.self_ms": ("ms", "lower", ["enumerate_optimal"]),
    "cli.calls": ("count", "lower", ["main"]),
    "cli.main_ms": ("ms", "lower", ["main"]),
    "cli.self_ms": ("ms", "lower", ["main"]),
}
# taken from the traced set-up, not from the passes
SETUP_METRICS = {"generator.gen_ms": ("ms", "lower", ["generate_instance"])}
OVERHEAD = "trace.overhead_pct"  # traced minus untraced pass time, % of untraced
# every per-layer metric the traced run reports -> (unit, better)
PER_LAYER = {k: (unit, better) for k, (unit, better, _n) in {**METRICS, **SETUP_METRICS}.items()}
PER_LAYER[OVERHEAD] = ("%", "lower")


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 where the layer did no work."""
    return num / den if den else 0.0


class Tracer:
    """Spans and counts of one traced stretch of work; install it with `with`."""

    def __init__(self):
        self.found: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        # (function, calling module) -> [calls, seconds, seconds in traced children]
        self.spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.schedules_built = 0
        self.ga = {"generations": 0, "requested": 0, "feasible_members": 0}
        self.oracle_feasible = 0
        self.results_complete = True

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "optfolio" or name.startswith("optfolio."))
        }
        for home, attr in TARGETS:
            target = getattr(modules.get(home), attr, None)
            if target is None:
                continue
            self.found.add(attr)
            for name, mod in modules.items():
                site = name.rpartition(".")[2]
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, key, self._wrap(attr, site, target))
                        self.found.add(f"{attr}@{site}")
        schedule = getattr(modules.get("optfolio.model"), "Schedule", None)
        post_init = vars(schedule).get("__post_init__") if schedule is not None else None
        if post_init is not None:
            self.found.add("Schedule")
            self._patch(schedule, "__post_init__", self._count_schedules(post_init))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, attr: str, site: str, fn):
        span = self.spans[(attr, site)]
        stack = self._stack
        on_result = {"run_ga": self._ga_result, "enumerate_optimal": self._oracle_result}.get(attr)

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span[0] += 1
                span[1] += elapsed
                span[2] += children
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _count_schedules(self, post_init):
        def counted(obj):
            self.schedules_built += 1
            return post_init(obj)

        return counted

    def _ga_result(self, args, kwargs, result) -> None:
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        try:
            population = cfg.population_size
            self.ga["generations"] += result.generations_run
            self.ga["requested"] += result.generations_run * population
            self.ga["feasible_members"] += sum(e.feasible_count for e in result.trace)
        except AttributeError:
            self.results_complete = False

    def _oracle_result(self, args, kwargs, result) -> None:
        try:
            self.oracle_feasible += result.feasible_count
        except AttributeError:
            self.results_complete = False

    # -- metrics ----------------------------------------------------------

    def _total(self, attr: str, site: str | None = None) -> tuple[int, float, float]:
        rows = [v for (a, s), v in self.spans.items() if a == attr and site in (None, s)]
        return (sum(r[0] for r in rows), sum(r[1] for r in rows), sum(r[2] for r in rows))

    def _available(self, needs: list[str]) -> bool:
        found = self.found | ({"results"} if self.results_complete else set())
        return all(n in found for n in needs)

    def setup_metrics(self) -> dict[str, float]:
        """Metrics of a traced set-up (instance generation)."""
        if not self._available(SETUP_METRICS["generator.gen_ms"][2]):
            return {}
        return {"generator.gen_ms": self._total("generate_instance")[1] * 1e3}

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced calls."""
        calls = {a: self._total(a) for _h, a in TARGETS}
        score_ga = self._total("score", "ga")
        score_oracle = self._total("score", "oracle")
        run_ga, oracle, main = calls["run_ga"], calls["enumerate_optimal"], calls["main"]
        ms = 1e3
        values = {
            "serialization.load_ms": calls["load_instance"][1] * ms,
            "serialization.dump_ms": calls["dump_json"][1] * ms,
            "model.validate_ms": calls["validate_instance"][1] * ms,
            "model.schedules_built": self.schedules_built,
            "valuation.score_calls": calls["score"][0],
            "valuation.score_us": _ratio(calls["score"][1] * 1e6, calls["score"][0]),
            "valuation.evaluate_calls": calls["evaluate"][0],
            "valuation.evaluate_us": _ratio(calls["evaluate"][1] * 1e6, calls["evaluate"][0]),
            "ga.calls": run_ga[0],
            "ga.run_ms": run_ga[1] * ms,
            "ga.generations": self.ga["generations"],
            "ga.genomes_requested": self.ga["requested"],
            "ga.genomes_scored": score_ga[0],
            "ga.cache_hit_frac": _ratio(self.ga["requested"] - score_ga[0], self.ga["requested"]),
            "ga.select_ms": self._total("tournament_select", "ga")[1] * ms,
            "ga.vary_ms": (self._total("crossover", "ga")[1] + self._total("mutate", "ga")[1]) * ms,
            "ga.score_ms": score_ga[1] * ms,
            "ga.self_ms": (run_ga[1] - run_ga[2]) * ms,
            "ga.feasible_member_frac": _ratio(self.ga["feasible_members"], self.ga["requested"]),
            "oracle.calls": oracle[0],
            "oracle.run_ms": oracle[1] * ms,
            "oracle.leaves": score_oracle[0],
            "oracle.leaves_per_call": _ratio(score_oracle[0], oracle[0]),
            "oracle.leaf_us": _ratio(score_oracle[1] * 1e6, score_oracle[0]),
            "oracle.feasible_leaf_frac": _ratio(self.oracle_feasible, score_oracle[0]),
            "oracle.self_ms": (oracle[1] - oracle[2]) * ms,
            "cli.calls": main[0],
            "cli.main_ms": main[1] * ms,
            "cli.self_ms": (main[1] - main[2]) * ms,
        }
        return {k: v for k, v in values.items() if self._available(METRICS[k][2])}

    def absent(self) -> list[str]:
        names = {**METRICS, **SETUP_METRICS}
        return sorted(k for k, (_u, _b, needs) in names.items() if not self._available(needs))


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes."""
    keys = per_pass[0].keys() if per_pass else ()
    return {k: statistics.median(p[k] for p in per_pass) for k in keys}
