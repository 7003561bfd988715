#!/usr/bin/env python3
"""Reproduce the bundled seven-project case study.

Runs the exact oracle and the GA (ten seeds) on the bundled fixture and
prints the optimal funding plan, per-period costs, and the value breakdown.
"""

import optfolio as of
from optfolio.model import left_sum
from optfolio.serialization import bit_rows


def main():
    inst = of.load_paper_fixture()
    tables = of.build_tables(inst)
    res = of.enumerate_optimal(tables)
    b = res.best_breakdown
    print("exact optimum")
    print(f"  schedule (period per project): {res.best_periods}")
    print("  chromosome:")
    for row in bit_rows(res.best_periods, inst.n_periods):
        print(f"    {row}")
    print(f"  per-period costs: {b.total_cost_per_period} vs budgets {inst.budgets}")
    print(f"  projects per period: {b.count_per_period}")
    dcf_sum, options = left_sum(b.dcf_values), left_sum(b.option_accrued)
    print(f"  DCF sum {dcf_sum}, options accrued {options}, total {b.total_value}")
    print(f"  feasible schedules in the whole space: {res.feasible_count}")

    print("\nGA, default config, seeds 1..10")
    for seed in range(1, 11):
        r = of.run_ga(tables, of.GaConfig(seed=seed))
        mark = "== oracle" if r.best_breakdown.total_value == b.total_value else "!= oracle"
        print(
            f"  seed {seed:2d}: value {r.best_breakdown.total_value:8.2f}  "
            f"{r.best_periods}  gens {r.generations_run:3d} ({r.terminated_by}) {mark}"
        )


if __name__ == "__main__":
    main()
