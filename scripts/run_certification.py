#!/usr/bin/env python3
"""Certify the GA against the exact oracle on a generated corpus.

For each seeded random instance, compares the GA's best value (defaults,
restarts=5) with the exhaustive optimum and reports the hit rate. Exits 1
when the GA misses an optimum by more than 2% or claims a feasible
schedule on an instance the oracle proves infeasible.
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
    exact = near = miss = infeasible = false_feasible = 0
    for seed in range(1, args.seeds + 1):
        inst = of.generate_instance(5 + seed % 4, 2 + seed % 2, seed=seed)
        oracle = of.enumerate_optimal(inst)
        ga = of.run_ga(inst, of.GaConfig(seed=seed, restarts=args.restarts))
        if not oracle.feasible:
            infeasible += 1
            status = "infeasible"
            if ga.best_breakdown.feasible:
                false_feasible += 1
                status = "GA CLAIMS FEASIBLE?!"
            print(f"seed {seed:3d}: {status}")
            continue
        gv, ov = ga.best_breakdown.total_value, oracle.best_breakdown.total_value
        gap = 0.0 if ov == 0 else (ov - gv) / abs(ov)
        if abs(gv - ov) <= 1e-9:
            exact += 1
            status = "exact"
        elif gap <= 0.02:
            near += 1
            status = f"within 2% (gap {gap:.3%})"
        else:
            miss += 1
            status = f"MISS (gap {gap:.3%})"
        print(f"seed {seed:3d}: n_p={inst.n_projects} N={inst.n_periods} "
              f"oracle {ov:10.3f} ga {gv:10.3f} {status}")
    elapsed = time.monotonic() - start
    print(f"\nexact {exact}, near {near}, miss {miss}, infeasible {infeasible}, "
          f"elapsed {elapsed:.1f}s")
    return 1 if miss or false_feasible else 0


if __name__ == "__main__":
    sys.exit(main())
