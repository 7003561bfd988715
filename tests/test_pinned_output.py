"""`optfolio solve`, `exact` and `sweep --method exact` output pinned byte for byte.

Each solve case runs `solve` in-process and compares sha256 digests of its
stdout and of its `--trace-out` CSV with digests recorded when the cases
were added. A change to the GA's hot path must draw the same random words in
the same order, so these digests may only change together with a deliberate
change of the GA's results, which then says so.

The exact cases do the same for the oracle: the schedule, its breakdown,
`feasible_count` and the lexicographic tie-break all print, so a faster
search must reproduce every byte. Their instances cover budgets that bind
(the n_p=12 generator instance) and budgets that never bind with hard
chains (the n_p=13 instance), where the search can count leaves it need not
value.

Every float sum that reaches output is an explicit left-to-right loop, not
builtin `sum`, which is compensated from Python 3.12 on; so every digest
here holds on each Python that CI runs. The return-stream case pins `evaluate` output
whose PV tables the loader derives from raw costs and return streams, whose
digits a compensated sum changes. The last case pins the stdout of
`scripts/reproduce_case_study.py`.
"""

import contextlib
import hashlib
import io
import json
import random
import runpy
from dataclasses import replace
from pathlib import Path

import pytest

import optfolio as of
from optfolio.cli import main

DESK = ("--seed", "3", "--restarts", "5")

# name -> (generate_instance arguments, or None for the paper fixture; solve flags)
CASES = {
    "paper-seed-1": (None, ("--seed", "1")),
    "paper-seed-9-restarts-3": (None, ("--seed", "9", "--restarts", "3")),
    "paper-extremes": (
        None,
        ("--seed", "2", "--tournament", "1", "--elites", "0", "--crossover-rate", "1",
         "--mutation-rate", "1", "--population", "7", "--generations", "30"),
    ),
    "desk-5x2": ({"n_projects": 5, "n_periods": 2, "seed": 11}, DESK),
    "desk-6x3": ({"n_projects": 6, "n_periods": 3, "seed": 12}, DESK),
    "desk-7x2": ({"n_projects": 7, "n_periods": 2, "seed": 13}, DESK),
    "desk-8x3": ({"n_projects": 8, "n_periods": 3, "seed": 14}, DESK),
    "single-period": ({"n_projects": 4, "n_periods": 1, "seed": 15}, ("--seed", "6")),
    # 99 random genomes x 30 genes >= BATCH_MIN_GENES: the numpy batch path runs
    "batch-30x3": ({"n_projects": 30, "n_periods": 3, "seed": 16}, ("--seed", "4", "--generations", "60")),
    "large-200x6": (
        {"n_projects": 200, "n_periods": 6, "edge_density": 0.05, "seed": 17},
        ("--seed", "5", "--generations", "3"),
    ),
}

# name -> (exit code, sha256 of stdout, sha256 of the trace CSV)
PINNED = {
    "paper-seed-1": (
        0,
        "7f57377628c5b6b27168acdbfb365b58c41cf5c1fb9729b17bccde13de506312",
        "dfb77602b1c68766cdd47a0e09e4802ac8a19e889b9c91e7415753d4bbc9fea0",
    ),
    "paper-seed-9-restarts-3": (
        0,
        "eabe36c90c6f1c32c5ccfc6240f0363c616c765a949759a429e8ca6d637964b7",
        "34092ac3a3d7b46190e80d7e52fd716113a6736415f02e9c1681fdf22ad184ea",
    ),
    "paper-extremes": (
        2,
        "a7577e96dd889fe5e40c10f54f8ced7cf12bae18d3d90bc7e88cb4058d2df793",
        "334b3d89ac150dc5bd615a2de44d8f2a4ef67a233381d2af67cee5e597101897",
    ),
    "desk-5x2": (
        0,
        "bb0d9af5ac999ebb5e20d7ea3ef36b6c35b2196e50c64f0277fd5d9d750b785d",
        "25fae5f4b4e0da8d005a37c8a74041d8d355592c8cba4bed7737163f7e334bb4",
    ),
    "desk-6x3": (
        0,
        "f098a9596f06fa16c9e45f6bbd25434b0ef19c878d226cfc17e5bcf6d3954941",
        "54db7df7f07213852d1b42ad2e5557a353cd69394d7713676ffdbacf410ce1de",
    ),
    "desk-7x2": (
        0,
        "4447a13996673962d25de69f69230175b19e6f661771c849d467194d41b3d50e",
        "4866ad30a721539b6566a41261291da0ba66357509d1386d80ac768a2170f92c",
    ),
    "desk-8x3": (
        0,
        "99db4e64acf395ec9995ae04fe5d07115c1fe8ea3fe9c9b61285fcea50e5fc04",
        "77b0a802025d7f1ff702e58fa3749ec6f693a5adff6bdc25cca3402861182ac3",
    ),
    "single-period": (
        0,
        "705be9c4f70b87d3d03d0d0f3d5e26031a428ad2766322dbc0745d4c75854332",
        "aed9c88225e705c777d9bcb403af81e3d9f1fee1a4827895efb9fcdb0e98a682",
    ),
    "batch-30x3": (
        0,
        "aa149e1730827e6ad0284ba6021b4cd1f49ae080e91736476d3cc4cc06c7fb99",
        "f93b676f4e45277dc346471d6abf559b52ec62f9b7171e19234e8c07a02b3524",
    ),
    "large-200x6": (
        2,
        "40acde9a0ae451824411ea16a21eb873dc72964de38a689858d1ab3eb20ef9d3",
        "1007b6d1362199791f3bdda5c538e57566401b025e2109ed746baf2101acf774",
    ),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _solve(name: str, tmp_path) -> tuple[int, str, str]:
    gen, flags = CASES[name]
    if gen is None:
        path = of.paper_fixture_path()
    else:
        path = str(tmp_path / f"{name}.json")
        of.save_instance(of.generate_instance(**gen), path)
    trace = tmp_path / f"{name}.csv"
    out = io.StringIO()
    code = main(["solve", path, *flags, "--trace-out", str(trace)], out=out)
    return code, _digest(out.getvalue()), _digest(trace.read_text())


def test_batch_case_runs_the_batch_path(tmp_path, monkeypatch):
    from optfolio import batch

    calls = []
    score_batch = batch.score_batch
    monkeypatch.setattr(batch, "score_batch", lambda *a, **k: calls.append(1) or score_batch(*a, **k))
    _solve("batch-30x3", tmp_path)
    assert calls


@pytest.mark.parametrize("name", CASES)
def test_solve_output_is_pinned(name, tmp_path):
    assert _solve(name, tmp_path) == PINNED[name]


def chain_instance() -> of.Instance:
    """n_p=13, N=3: hard chains of lengths 3, 3, 3, 2, 2 over projects 1..13 in id
    order, six partial edges, and budgets no q_max-sized selection can exceed.

    Every valuation differs by period through the options and partial
    factors, while the feasible set depends only on the chains and q_max:
    20178 schedules.
    """
    inst = of.generate_instance(13, 3, edge_density=0.0, seed=1213)
    rng = random.Random("pinned-chains")
    edges, first = [], 1
    for length in (3, 3, 3, 2, 2):
        for pred in range(first, first + length - 1):
            edges.append(of.DependencyEdge(pred, pred + 1, 1.0, rng.uniform(0.0, 20.0)))
        first += length
    pairs = {(e.predecessor, e.dependent) for e in edges}
    while len(edges) < 14:
        pred, dep = sorted(rng.sample(range(1, 14), 2))
        if (pred, dep) not in pairs:
            pairs.add((pred, dep))
            edges.append(of.DependencyEdge(pred, dep, rng.uniform(0.05, 0.95), rng.uniform(0.0, 20.0)))
    costs = sorted((max(p.cost_pv) for p in inst.projects), reverse=True)
    budget = sum(costs[: max(inst.q_max)]) + 1.0
    return replace(inst, edges=tuple(edges), budgets=(budget,) * 3)


GEN_12 = {"n_projects": 12, "n_periods": 3, "edge_density": 0.1, "seed": 5}

# name -> (command, generate_instance arguments, None for the paper fixture or
# "chains" for chain_instance; flags)
EXACT_CASES = {
    "exact-paper": ("exact", None, ()),
    "exact-desk-5x2": ("exact", CASES["desk-5x2"][0], ()),
    "exact-desk-6x3": ("exact", CASES["desk-6x3"][0], ()),
    "exact-desk-7x2": ("exact", CASES["desk-7x2"][0], ()),
    "exact-desk-8x3": ("exact", CASES["desk-8x3"][0], ()),
    "exact-gen-12x3": ("exact", GEN_12, ()),
    "exact-chains-13x3": ("exact", "chains", ()),
    "sweep-exact-12x3": (
        "sweep", GEN_12, ("--method", "exact", "--qmin-range", "0..1", "--qmax-range", "4..6"),
    ),
}

# name -> (exit code, sha256 of stdout)
EXACT_PINNED = {
    "exact-paper": (0, "d686522c2b0ddef3c5ec164c54e2d40dfb1d5a5ec2858f2906717c7d254ebbe0"),
    "exact-desk-5x2": (0, "d324bca88db7aea663473d950781c7b27721976fe5772e4dc9955a31af2650a2"),
    "exact-desk-6x3": (0, "55638a2ff3791ca34ed9e7b83281405c294da6b4145216a1906e5ecd079b93b5"),
    "exact-desk-7x2": (0, "8773b02e8e19789a0af9435606892aa52b060454123010e7498650c6602690a3"),
    "exact-desk-8x3": (0, "a11e310121167cef1693d9a4dd9d77c278cf4b03fc5df30dcd357a1cd56dc5f9"),
    "exact-gen-12x3": (0, "06248cf4b9ded3f9a38abe58a49f4b514df47cb32b8bdc395dc17fd59f8e3b60"),
    "exact-chains-13x3": (0, "123680e527a98f8ec95021d3500c9b6501e9be732918da81e784a4a23da50c6e"),
    "sweep-exact-12x3": (0, "6d146dfae24f52894be60968c9c09dcb330745768eb75c3cd9379ef855083193"),
}


def _run(name: str, tmp_path) -> tuple[int, str]:
    command, gen, flags = EXACT_CASES[name]
    if gen is None:
        path = of.paper_fixture_path()
    else:
        inst = chain_instance() if gen == "chains" else of.generate_instance(**gen)
        path = str(tmp_path / f"{name}.json")
        of.save_instance(inst, path)
    out = io.StringIO()
    code = main([command, path, *flags], out=out)
    return code, _digest(out.getvalue())


def test_chain_instance_has_the_stated_feasible_count():
    assert of.enumerate_optimal(chain_instance()).feasible_count == 20178


@pytest.mark.parametrize("name", EXACT_CASES)
def test_exact_output_is_pinned(name, tmp_path):
    assert _run(name, tmp_path) == EXACT_PINNED[name]


def return_stream_document() -> dict:
    """n_p=5, N=3 at rate 0.07, each project given by a raw cost and a return stream."""
    rng = random.Random("pinned-return-streams")
    projects = []
    for i in range(1, 6):
        n = rng.randint(4, 9)
        projects.append({
            "id": i,
            "raw_cost": round(rng.uniform(10.0, 40.0), 2),
            "return_stream": [round(rng.uniform(1.0, 15.0), 3) for _ in range(n)],
        })
    return {
        "n_p": 5, "N": 3, "rate": 0.07, "budgets": [100.0] * 3, "q_min": [0] * 3, "q_max": [5] * 3,
        "projects": projects,
        "edges": [{"predecessor": 1, "dependent": 2, "level": 0.5, "option_value": 2.5}],
    }


def test_return_stream_evaluate_output_is_pinned(tmp_path):
    # recorded on Python 3.11; builtin sum() gives other digits from 3.12 on
    path = tmp_path / "streams.json"
    path.write_text(json.dumps(return_stream_document()))
    out = io.StringIO()
    code = main(["evaluate", str(path), "2,1,1,3,2"], out=out)
    assert (code, _digest(out.getvalue())) == (
        0, "cdd63c39e54821a927ed876fe869d69a9659bc7c4e8eccba124118987ca9bd6e"
    )


def test_case_study_output_is_pinned():
    # the script needs no numpy, so every Python can check these bytes
    script = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_case_study.py"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(script), run_name="__main__")
    assert _digest(out.getvalue()) == "e8033daed19c3a6b9c893fc3eeb25da2d5561fecf1495dff13c2677f9b763401"
