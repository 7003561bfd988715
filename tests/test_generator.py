import pytest

import optfolio as of


def test_deterministic_per_seed():
    a = of.generate_instance(7, 3, seed=1)
    b = of.generate_instance(7, 3, seed=1)
    assert a == b


def test_different_seeds_differ():
    assert of.generate_instance(7, 3, seed=1) != of.generate_instance(7, 3, seed=2)


def test_zero_edge_density_gives_no_edges():
    inst = of.generate_instance(6, 2, edge_density=0.0, seed=3)
    assert inst.edges == ()


def test_full_density_with_partials():
    inst = of.generate_instance(5, 2, edge_density=1.0, partial_fraction=1.0, seed=4)
    assert len(inst.edges) == 10  # all lower-to-higher pairs
    assert all(0 < e.level < 1 for e in inst.edges)


def test_all_generated_instances_are_valid():
    for seed in range(1000):
        inst = of.generate_instance(
            n_projects=1 + seed % 8,
            n_periods=1 + seed % 4,
            edge_density=(seed % 10) / 10,
            partial_fraction=(seed % 7) / 7,
            budget_tightness=0.5 + (seed % 5) * 0.5,
            seed=seed,
        )
        assert of.validate_instance(inst) == [], f"seed {seed}"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_projects": 0, "n_periods": 3},
        {"n_projects": 5, "n_periods": 0},
        {"n_projects": 5, "n_periods": 3, "edge_density": 1.5},
        {"n_projects": 5, "n_periods": 3, "partial_fraction": -0.1},
        {"n_projects": 5, "n_periods": 3, "budget_tightness": 0.0},
        {"n_projects": 5, "n_periods": 3, "budget_tightness": float("nan")},
        {"n_projects": 5, "n_periods": 3, "budget_tightness": float("inf")},
        {"n_projects": 5, "n_periods": 3, "budget_tightness": 1e308},
        # counts must be integers, not bools, as the loader requires
        {"n_projects": True, "n_periods": 2},
        {"n_projects": 5.0, "n_periods": 3},
        {"n_projects": 5, "n_periods": True},
        {"n_projects": 5, "n_periods": 3.0},
    ],
)
def test_parameter_validation(kwargs):
    with pytest.raises(ValueError):
        of.generate_instance(**kwargs)
