"""Whole-population scoring on numpy, bit-identical to `valuation.score`.

`score_batch` values P period tuples of one instance at once, as a P x n_p
integer array. Each float result is built from the same IEEE operations, in
the same order, as `valuation._account` performs them for one tuple:
elementwise products and differences are exact stand-ins for the scalar
ones, each sum is a sequential accumulation (`np.cumsum` along a row from a
zero column, `np.bincount` over row-major indices), and an edge that does
not apply contributes a factor 1.0 or an addend 0.0, which leaves a product
or a sum unchanged. `np.sum` adds only integers here: on floats it adds
pairwise, in another order. Integer table values, which `score` sums
exactly, must stay below 2**53 for this to hold; the JSON loader makes
every value a float. The scalar `score` stays the reference that tests
compare against.

Importing this module imports numpy, so only the GA imports it, and only
once a generation is large enough to be worth it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .valuation import Tables


@dataclass(frozen=True)
class BatchTables:
    """`Tables` as numpy arrays, compiled once per solve."""

    n_projects: int
    n_periods: int
    cost: np.ndarray         # flat [i * N + k - 1]
    ret: np.ndarray          # flat [i * N + k - 1]
    # factor edges by rank: the r-th entry holds the r-th incoming factor
    # edge of every dependent that has one, as (dependents, predecessors,
    # 1 - level); each dependent appears at most once per rank
    factor_ranks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    # option edges by rank: (predecessors, dependents, option values)
    option_ranks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    hard_pred: np.ndarray
    hard_dep: np.ndarray
    budgets: np.ndarray
    q_min: np.ndarray
    q_max: np.ndarray
    budget_total: float


def _by_rank(lists) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per-project (other index, value) lists regrouped as one array triple per rank."""
    ranks = []
    for r in range(max(map(len, lists), default=0)):
        owners = [i for i, xs in enumerate(lists) if len(xs) > r]
        ranks.append((
            np.array(owners, dtype=np.intp),
            np.array([lists[i][r][0] for i in owners], dtype=np.intp),
            np.array([lists[i][r][1] for i in owners], dtype=np.float64),
        ))
    return tuple(ranks)


def compile_tables(t: Tables) -> BatchTables:
    """The arrays `score_batch` reads, from the tables of one valid instance."""
    return BatchTables(
        n_projects=t.n_projects,
        n_periods=t.n_periods,
        cost=np.array(t.cost, dtype=np.float64).reshape(-1),
        ret=np.array(t.ret, dtype=np.float64).reshape(-1),
        factor_ranks=_by_rank(t.factor_in),
        option_ranks=_by_rank(t.options_out),
        hard_pred=np.array([pi for pi, _di in t.hard_edges], dtype=np.intp),
        hard_dep=np.array([di for _pi, di in t.hard_edges], dtype=np.intp),
        budgets=np.array(t.budgets, dtype=np.float64),
        q_min=np.array(t.q_min, dtype=np.int64),
        q_max=np.array(t.q_max, dtype=np.int64),
        budget_total=t.budget_total,
    )


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Each row summed left to right from 0.0, as `total += x` in a loop does."""
    return np.cumsum(np.hstack([np.zeros((x.shape[0], 1)), x]), axis=1)[:, -1]


def score_batch(population: list[tuple[int, ...]], bt: BatchTables) -> list[tuple[float, float]]:
    """(violation_score, total_value) of each period tuple, equal to `score`'s."""
    P, n, N = len(population), bt.n_projects, bt.n_periods
    per = np.fromiter(chain.from_iterable(population), dtype=np.intp, count=P * n).reshape(P, n)
    cell = per - 1 + np.arange(n, dtype=np.intp) * N  # index into the flat tables
    cost = bt.cost[cell]

    factor = np.ones((P, n))
    for deps, preds, keep in bt.factor_ranks:
        factor[:, deps] *= np.where(per[:, deps] < per[:, preds], keep, 1.0)
    options = np.zeros((P, n))
    for preds, deps, value in bt.option_ranks:
        options[:, preds] += np.where(per[:, preds] < per[:, deps], value, 0.0)
    dcf = bt.ret[cell] * factor - cost
    total = _row_sums(dcf) + _row_sums(options)

    # per-period spend and count; bincount adds in index order, so each
    # period's spend accumulates in project order
    slot = (per - 1 + (np.arange(P, dtype=np.intp) * N)[:, None]).reshape(-1)
    spend = np.bincount(slot, weights=cost.reshape(-1), minlength=P * N).reshape(P, N)
    count = np.bincount(slot, minlength=P * N).reshape(P, N)
    over = spend - bt.budgets
    budget = _row_sums(np.where(over > 0.0, over, 0.0))
    card = (np.maximum(bt.q_min - count, 0) + np.maximum(count - bt.q_max, 0)).sum(axis=1)
    n_prec = (per[:, bt.hard_dep] < per[:, bt.hard_pred]).sum(axis=1)
    violation = budget / bt.budget_total + card / max(1, n) + n_prec
    return list(zip(violation.tolist(), total.tolist()))
