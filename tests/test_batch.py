import random
from dataclasses import replace

import pytest

import optfolio as of
from optfolio import batch, ga
from optfolio.valuation import build_tables, score


def _scaled(inst, factor):
    """The instance with every cost and return scaled, so float sums round."""
    projects = tuple(
        replace(p, cost_pv=tuple(c * factor for c in p.cost_pv),
                return_pv=tuple(r * factor for r in p.return_pv))
        for p in inst.projects
    )
    return replace(inst, projects=projects, budgets=tuple(b * factor for b in inst.budgets))


def _budget_at_boundary(inst, rng):
    """The instance with each period's budget set to the id-order float sum of
    the costs a random schedule places there, and that schedule."""
    per = tuple(rng.randint(1, inst.n_periods) for _ in range(inst.n_projects))
    budgets = list(inst.budgets)
    for k in range(1, inst.n_periods + 1):
        spent = 0.0
        for p, pk in zip(inst.projects, per):
            if pk == k:
                spent += p.cost_pv[k - 1]
        if spent > 0.0:
            budgets[k - 1] = spent
    return replace(inst, budgets=tuple(budgets)), per


def _cases():
    gen = of.generate_instance
    paper = of.load_paper_fixture()
    cases = {
        "paper-hard": paper,
        "paper-soft": replace(paper, total_dependency_mode="soft"),
        "n_p=1": gen(1, 3, seed=1),
        "N=1": gen(12, 1, seed=2),
        "no-edges": _scaled(gen(30, 4, edge_density=0.0, seed=3), 0.1),
        "density-1-hard": _scaled(gen(25, 4, edge_density=1.0, seed=4), 1 / 3),
        "density-1-soft": replace(
            _scaled(gen(25, 4, edge_density=1.0, partial_fraction=0.5, seed=5), 1 / 7),
            total_dependency_mode="soft",
        ),
        "q_min>0": replace(gen(20, 3, seed=6), q_min=(4, 5, 3)),
        "large": gen(200, 6, edge_density=0.05, seed=7),
    }
    rng = random.Random(8)
    for i in range(20):
        inst = _scaled(
            gen(rng.randint(2, 60), rng.randint(1, 6), edge_density=rng.uniform(0.0, 0.4),
                partial_fraction=rng.random(), budget_tightness=rng.uniform(0.5, 1.5), seed=100 + i),
            rng.uniform(0.01, 1.0),
        )
        cases[f"generated-{i}"] = replace(inst, total_dependency_mode=rng.choice(["hard", "soft"]))
    return cases


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_batch_equals_score_on_every_member(name):
    rng = random.Random(name)
    inst = CASES[name]
    # one schedule meets each budget it touches exactly, to the last bit
    inst, boundary = _budget_at_boundary(inst, rng)
    tables = build_tables(inst)
    n_p, N = inst.n_projects, inst.n_periods
    population = [boundary, ga.greedy_seed(tables)]
    population += [ga.mutate(boundary, 2 / n_p, N, rng) for _ in range(20)]
    population += [tuple(rng.randint(1, N) for _ in range(n_p)) for _ in range(60)]
    got = batch.score_batch(population, batch.compile_tables(tables))
    want = [score(p, tables) for p in population]
    assert got == want
    # repr tells apart every pair of distinct floats, 0.0 and -0.0 included
    assert repr(got) == repr(want)


def test_empty_batch():
    tables = build_tables(of.load_paper_fixture())
    assert batch.score_batch([], batch.compile_tables(tables)) == []


def _refuse(*args, **kwargs):
    raise AssertionError("this scoring path must not run")


@pytest.mark.parametrize(
    "inst, cfg",
    [
        (of.load_paper_fixture(), of.GaConfig(seed=1, restarts=2, max_generations=60)),
        (of.generate_instance(1, 3, seed=11), of.GaConfig(seed=2, max_generations=5)),
        (
            replace(of.generate_instance(30, 4, edge_density=0.2, seed=12), total_dependency_mode="soft"),
            of.GaConfig(seed=3, max_generations=40, population_size=40),
        ),
        # tight budgets: most members are infeasible
        (
            of.generate_instance(60, 5, edge_density=0.1, budget_tightness=0.6, seed=13),
            of.GaConfig(seed=4, max_generations=15, stagnation_limit=15),
        ),
    ],
    ids=["paper", "n_p=1", "soft", "tight"],
)
def test_run_ga_is_the_same_whichever_path_scores(monkeypatch, inst, cfg):
    default = of.run_ga(inst, cfg)
    with monkeypatch.context() as m:
        m.setattr(ga, "BATCH_MIN_GENES", 10**9)
        m.setattr(batch, "score_batch", _refuse)
        scalar = of.run_ga(inst, cfg)
    with monkeypatch.context() as m:
        m.setattr(ga, "BATCH_MIN_GENES", 0)
        m.setattr(ga, "score", _refuse)
        batched = of.run_ga(inst, cfg)
    for res in (default, batched):
        assert res == scalar
        assert repr(res) == repr(scalar)
        assert repr(res.best_breakdown.total_value) == repr(scalar.best_breakdown.total_value)
