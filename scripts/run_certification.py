#!/usr/bin/env python3
"""Certify the GA against the exact oracle on a generated corpus.

For each seeded random instance, compares the GA's best value (defaults,
restarts=5) with the exhaustive optimum and reports the hit rate. A GA
value is near when it is below the optimum ov by at most 0.02 * |ov|.
Exits 1 when the GA misses an optimum by more than that (when ov is 0,
by anything), or gives a wrong answer: a value above the optimum, an
infeasible best on an instance the oracle solves, or a feasible schedule
on an instance the oracle proves infeasible.
"""

import argparse
import sys
import time

import optfolio as of


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=50, help="number of instances (seeds 1..n)")
    ap.add_argument("--restarts", type=int, default=5)
    args = ap.parse_args()

    start = time.monotonic()
    exact = near = miss = infeasible = wrong = 0
    for seed in range(1, args.seeds + 1):
        inst = of.generate_instance(5 + seed % 4, 2 + seed % 2, seed=seed)
        tables = of.build_tables(inst)
        oracle = of.enumerate_optimal(tables)
        ga = of.run_ga(tables, of.GaConfig(seed=seed, restarts=args.restarts))
        if not oracle.feasible:
            infeasible += 1
            status = "infeasible"
            if ga.best_breakdown.feasible:
                wrong += 1
                status = "GA CLAIMS FEASIBLE?!"
            print(f"seed {seed:3d}: {status}")
            continue
        gv, ov = ga.best_breakdown.total_value, oracle.best_breakdown.total_value
        if not ga.best_breakdown.feasible:
            wrong += 1
            status = "GA INFEASIBLE"
        elif abs(gv - ov) <= 1e-9:
            exact += 1
            status = "exact"
        elif gv > ov:
            wrong += 1
            status = "GA ABOVE OPTIMUM"
        elif ov - gv <= 0.02 * abs(ov):
            near += 1
            status = f"within 2% (gap {(ov - gv) / abs(ov):.3%})"
        elif ov == 0:
            miss += 1
            status = "MISS (optimum 0)"
        else:
            miss += 1
            status = f"MISS (gap {(ov - gv) / abs(ov):.3%})"
        print(f"seed {seed:3d}: n_p={inst.n_projects} N={inst.n_periods} "
              f"oracle {ov:10.3f} ga {gv:10.3f} {status}")
    elapsed = time.monotonic() - start
    print(f"\nexact {exact}, near {near}, miss {miss}, infeasible {infeasible}, "
          f"wrong {wrong}, elapsed {elapsed:.1f}s")
    return 1 if miss or wrong else 0


if __name__ == "__main__":
    sys.exit(main())
