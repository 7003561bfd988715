import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

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


# amounts and levels whose products and sums round differently in another
# order (hypothesis favours round floats, which would hide that), and signed
# zeros where validation allows them
_AMOUNT = st.builds(lambda k, e: k / 7 * 10.0**e, st.integers(1, 999), st.integers(-2, 3))
_ZERO_OK = _AMOUNT | st.sampled_from([0.0, -0.0])
_LEVEL = st.integers(1, 97).map(lambda k: k / 97)


@st.composite
def scoring_cases(draw):
    """A valid instance and a population that exercise every accumulation of the batch.

    Edges follow a drawn topological order, so one owner can hold up to
    n_p - 1 factor or option edges (many ranks); returns and option values
    may be 0.0 or -0.0, and when returns equal costs every DCF term is 0.0
    (costs are > 0, so no valid DCF term is -0.0). The population holds
    1-12 genomes, duplicates among them.
    """
    N = draw(st.integers(1, 4))
    n_p = draw(st.integers(0, 12))
    order = draw(st.permutations(range(1, n_p + 1)))
    dense = draw(st.booleans())
    pairs = [
        (a, b) for i, a in enumerate(order) for b in order[i + 1:] if dense or draw(st.booleans())
    ]
    costs = [tuple(draw(_AMOUNT) for _ in range(N)) for _ in range(n_p)]
    zero_dcf = draw(st.booleans())
    # the project last in the order can hold the most factor edges; its
    # returns dominate, so the last bit of its partial factor shows in the total
    scale = [1e6 if i + 1 == order[-1] else 1.0 for i in range(n_p)]
    inst = of.Instance(
        n_projects=n_p,
        n_periods=N,
        projects=tuple(
            of.Project(
                id=i + 1,
                label=f"P{i + 1}",
                cost_pv=c,
                return_pv=c if zero_dcf else tuple(draw(_ZERO_OK) * scale[i] for _ in range(N)),
            )
            for i, c in enumerate(costs)
        ),
        edges=tuple(of.DependencyEdge(a, b, draw(_LEVEL), draw(_ZERO_OK)) for a, b in pairs),
        budgets=tuple(draw(_AMOUNT) for _ in range(N)),
        q_min=(0,) * N,
        q_max=tuple(draw(st.integers(0, n_p)) for _ in range(N - 1)) + (n_p,),
        total_dependency_mode=draw(st.sampled_from(["hard", "soft"])),
    )
    genome = st.tuples(*[st.integers(1, N)] * n_p)
    population = draw(st.lists(genome, min_size=1, max_size=8))
    population += draw(st.lists(st.sampled_from(population), max_size=4))
    return inst, population


@given(scoring_cases())
@settings(max_examples=300, deadline=None)
def test_batch_equals_score_by_repr(case):
    inst, population = case
    tables = build_tables(inst)
    want = [score(p, tables) for p in population]
    # repr tells apart every pair of distinct floats, 0.0 and -0.0 included
    assert repr(batch.score_batch(population, batch.compile_tables(tables))) == repr(want)


def test_genomes_of_no_projects_sum_to_zero():
    inst = of.Instance(
        n_projects=0, n_periods=2, projects=(), edges=(), budgets=(1.0, 1.0), q_min=(0, 0), q_max=(0, 0)
    )
    tables = build_tables(inst)
    got = batch.score_batch([(), ()], batch.compile_tables(tables))
    assert repr(got) == repr([score((), tables)] * 2) == "[(0.0, 0.0), (0.0, 0.0)]"


def test_periods_must_fit_a_byte():
    tables = build_tables(of.generate_instance(2, 300, seed=1))
    with pytest.raises(ValueError):
        batch.score_batch([(1, 256)], batch.compile_tables(tables))


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


def test_run_ga_scores_periods_above_a_byte_with_score(monkeypatch):
    # the first generation holds enough genes to batch, but N = 300 does not
    # fit the batch's byte, so `score` values it, exactly as with batching off
    inst = of.generate_instance(25, 300, edge_density=0.2, seed=14)
    cfg = of.GaConfig(seed=5, max_generations=4)
    assert cfg.population_size * inst.n_projects >= ga.BATCH_MIN_GENES
    with monkeypatch.context() as m:
        m.setattr(batch, "score_batch", _refuse)
        default = of.run_ga(inst, cfg)
    with monkeypatch.context() as m:
        m.setattr(ga, "BATCH_MIN_GENES", 10**9)
        scalar = of.run_ga(inst, cfg)
    assert repr(default) == repr(scalar)
