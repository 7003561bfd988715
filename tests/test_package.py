import ast
import dataclasses
import re
from pathlib import Path

import pytest

import optfolio as of

README = Path(__file__).resolve().parent.parent / "README.md"
_PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert _PYTHON_BLOCKS


@pytest.mark.parametrize("i", range(len(_PYTHON_BLOCKS)))
def test_readme_python_block_runs(i):
    code = _PYTHON_BLOCKS[i]
    exec(compile(code, str(README), "exec"), {})


def test_every_exported_name_resolves():
    assert len(set(of.__all__)) == len(of.__all__)
    for name in of.__all__:
        assert getattr(of, name) is not None


@pytest.mark.parametrize(
    "name",
    [
        "check_feasibility",
        "partial_benefit_factor",
        "dcf_value",
        "option_accrual",
        "compare_candidates",
        "count_feasible",
    ],
)
def test_one_field_views_are_not_exported(name):
    # each read one field of `evaluate` or `enumerate_optimal`, which remain
    assert name not in of.__all__
    assert not hasattr(of, name)


@pytest.mark.parametrize(
    "name",
    ["Chromosome", "InvalidChromosomeError", "decode_chromosome", "encode_schedule", "repair"],
)
def test_bit_matrix_codec_is_gone(name):
    # bit rows are a text format of `serialization`; schedules are period tuples
    import optfolio.ga
    import optfolio.model

    assert name not in of.__all__
    for module in (of, optfolio.model, optfolio.ga):
        assert not hasattr(module, name)


def test_solvers_return_period_tuples_not_schedules():
    # `Schedule` is left only at `evaluate` and `parse_schedule_arg`
    import optfolio.ga
    import optfolio.oracle

    for module in (optfolio.ga, optfolio.oracle):
        assert not hasattr(module, "Schedule")
    for result in (of.SolveResult, of.OracleResult):
        names = {f.name for f in dataclasses.fields(result)}
        assert "best_periods" in names and "best_schedule" not in names
        assert not hasattr(result, "best_schedule")


# functions whose builtin `sum` calls are allowed, each with its reason;
# every other total goes through `model.left_sum`, whose digits do not
# change with the interpreter
_SUM_ALLOWED = {
    "validate_instance": "integer q bounds",
    "enumerate_optimal": "a bound, a tolerance and the integer q_min sum, none of them printed",
}


def _builtin_sum_callers() -> set[tuple[str, str]]:
    """(file, innermost enclosing function) of each builtin `sum` call in the package and scripts."""
    root = README.parent
    found = set()
    for path in sorted([*(root / "src" / "optfolio").rglob("*.py"), *(root / "scripts").glob("*.py")]):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, function):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum":
                found.add((path.relative_to(root).as_posix(), function))
            for child in ast.iter_child_nodes(node):
                inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                visit(child, child.name if inner else function)

        visit(tree, None)
    return found


def test_builtin_sum_only_where_allowed():
    callers = _builtin_sum_callers()
    assert {f"{path}:{function}" for path, function in callers if function not in _SUM_ALLOWED} == set()
    # an entry whose function no longer calls sum comes off the list
    assert {function for _path, function in callers} >= set(_SUM_ALLOWED)
