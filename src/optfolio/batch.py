"""Whole-population scoring on numpy, bit-identical to `valuation.score`.

`score_batch` values P genomes of one instance at once, each a period tuple
or bytes. It holds them project-major, as an n_p x P array of bytes: row j
is project j's period in every genome. So every period must fit a byte, and
the GA batches only instances with N <= 255 (it scores a larger N with
`score`); there it holds its genomes as bytes, which join without a copy
per genome.

Each float result is built from the same IEEE operations, in the same
order, as `valuation._account` performs them for one tuple:

- Edges are grouped by owner (the dependent of a factor edge, the
  predecessor of an option edge), and each owner combines its edges in
  `Tables` order. Owners are sorted by descending edge count, so the owners
  of an r-th edge are a prefix of that list and rank r is one slice
  operation; the accumulators are written into the id-ordered project rows
  once.
- A factor accumulator starts at 1.0, and an edge that does not apply
  multiplies it by 1.0, which is exact. An option accumulator starts at
  0.0 and adds `applies * value` per edge: validation keeps every option
  value finite and >= 0, so an edge that does not apply adds +-0.0, never
  a NaN, and a sum that starts at +0.0 and adds no negative number never
  holds -0.0, so adding +-0.0 leaves it unchanged.
- Each sum is a sequential accumulation from a 0.0 start, as `total += x`
  is in a loop: `np.add.accumulate` down the project axis from a zero
  first row, so a sum of -0.0 terms is 0.0 and a genome of no projects
  sums to 0.0, and `np.bincount` over project-major slots, which adds each
  period's spend in project order. `np.sum` adds only integers here: on
  floats it adds pairwise, in another order.

Integer table values, which `score` sums exactly, must stay below 2**53 for
this to hold; the JSON loader makes every value a float. The violation is
not restated here: the arrays of budget excess, cardinality violation and
violated hard edges go to `valuation._violation`, which takes arrays as it
takes floats. The scalar `score` stays the reference that tests compare
against.

Importing this module imports numpy, so only the GA imports it, and only
once a generation is large enough to be worth it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .valuation import Tables, _violation


@dataclass(frozen=True)
class OwnedEdges:
    """One kind of edge, grouped by the project that owns it.

    Edge e joins `own[e]` to `other[e]` with `value[e]`. Edges are stored
    rank by rank: with `(start, m) = ranks[r]`, edges `start:start + m` are
    the r-th edges of `owners[:m]`, in that order.
    """

    owners: np.ndarray  # project indices, most edges first
    own: np.ndarray
    other: np.ndarray
    value: np.ndarray   # shape (edges, 1), to broadcast over genomes
    ranks: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BatchTables:
    """`Tables` as numpy arrays, compiled once per solve."""

    n_projects: int
    n_periods: int
    cost: np.ndarray         # flat [i * N + k - 1]
    ret: np.ndarray          # flat [i * N + k - 1]
    # factor edges owned by their dependent, value 1 - level
    factors: OwnedEdges
    # option edges owned by their predecessor, value the option value
    options: OwnedEdges
    hard_pred: np.ndarray
    hard_dep: np.ndarray
    budgets: np.ndarray
    q_min: np.ndarray
    q_max: np.ndarray
    budget_total: float


def _owned_edges(lists) -> OwnedEdges:
    """Per-project (other index, value) edge lists, grouped by owner and rank."""
    owners = sorted((i for i, xs in enumerate(lists) if xs), key=lambda i: -len(lists[i]))
    own, edges, ranks = [], [], []
    for rank in zip_longest(*[lists[i] for i in owners]):
        # the owners with an edge at this rank are a prefix of `owners`
        m = rank.index(None) if None in rank else len(rank)
        ranks.append((len(own), m))
        own += owners[:m]
        edges += rank[:m]
    return OwnedEdges(
        owners=np.array(owners, dtype=np.intp),
        own=np.array(own, dtype=np.intp),
        other=np.array([x for x, _v in edges], dtype=np.intp),
        value=np.array([v for _x, v in edges], dtype=np.float64).reshape(-1, 1),
        ranks=tuple(ranks),
    )


def compile_tables(t: Tables) -> BatchTables:
    """The arrays `score_batch` reads, from the tables of one valid instance."""
    return BatchTables(
        n_projects=t.n_projects,
        n_periods=t.n_periods,
        cost=np.array(t.cost, dtype=np.float64).reshape(-1),
        ret=np.array(t.ret, dtype=np.float64).reshape(-1),
        factors=_owned_edges(t.factor_in),
        options=_owned_edges(t.options_out),
        hard_pred=np.array([pi for pi, _di in t.hard_edges], dtype=np.intp),
        hard_dep=np.array([di for _pi, di in t.hard_edges], dtype=np.intp),
        budgets=np.array(t.budgets, dtype=np.float64),
        q_min=np.array(t.q_min, dtype=np.int64),
        q_max=np.array(t.q_max, dtype=np.int64),
        budget_total=t.budget_total,
    )


def score_batch(population: list[tuple[int, ...] | bytes], bt: BatchTables) -> list[tuple[float, float]]:
    """(violation_score, total_value) of each genome, equal to `score`'s.

    Every period must fit a byte: `bytes` refuses a period above 255 and
    returns a bytes genome itself.
    """
    P, n, N = len(population), bt.n_projects, bt.n_periods
    per = np.frombuffer(b"".join(map(bytes, population)), np.uint8).reshape(P, n).T.copy()
    cell = per + (np.arange(n, dtype=np.intp) * N - 1)[:, None]  # index into the flat tables
    cost = bt.cost[cell]
    # sums[0] holds the DCF terms, sums[1] the option sums, each below a zero row
    sums = np.zeros((2, n + 1, P))
    dcf = sums[0, 1:]
    np.take(bt.ret, cell, out=dcf, mode="clip")  # "clip" writes in place; every index is in range
    # each temporary is dropped once spent: a lower peak leaves the allocator
    # fewer fresh pages to fault in on the next batch
    del cell

    # per-period spend and count of genome p at slot p * N + k - 1; bincount
    # adds in index order, so each period's spend accumulates in project order
    slot = (per + (np.arange(P, dtype=np.intp) * N - 1)).reshape(-1)
    spend = np.bincount(slot, weights=cost.reshape(-1), minlength=P * N).reshape(P, N)
    count = np.bincount(slot, minlength=P * N).reshape(P, N)
    del slot

    f, o = bt.factors, bt.options
    applies = per[f.own] < per[f.other]
    acc = np.ones((len(f.owners), P))
    for s, m in f.ranks:
        acc[:m] *= np.where(applies[s : s + m], f.value[s : s + m], 1.0)
    dcf[f.owners] *= acc
    dcf -= cost
    del cost, applies, acc
    applies = per[o.own] < per[o.other]
    acc = np.zeros((len(o.owners), P))
    for s, m in o.ranks:
        acc[:m] += applies[s : s + m] * o.value[s : s + m]
    sums[1, 1 + o.owners] = acc
    del applies, acc
    dcf_total, opt_total = np.add.accumulate(sums, axis=1, out=sums)[:, -1]
    total = dcf_total + opt_total

    over = spend - bt.budgets
    excess = np.zeros((N + 1, P))
    excess[1:] = np.where(over > 0.0, over, 0.0).T
    budget = np.add.accumulate(excess)[-1]
    card = (np.maximum(bt.q_min - count, 0) + np.maximum(count - bt.q_max, 0)).sum(axis=1)
    n_prec = np.count_nonzero(per[bt.hard_dep] < per[bt.hard_pred], axis=0)
    violation = _violation(budget, card, n_prec, bt)
    return list(zip(violation.tolist(), total.tolist()))
