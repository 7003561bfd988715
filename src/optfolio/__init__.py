"""Multi-period selection and sequencing of interdependent projects.

Maximizes portfolio value (discounted cash flow plus option values accrued
by funding option-generating projects before their dependents) under
per-period budget and cardinality constraints. Ships a genetic-algorithm
solver, an exact enumeration oracle for certification at desk scale, and a
CLI around a JSON instance format.
"""

from importlib import resources

from .ga import GaConfig, SolveResult, run_ga
from .generator import generate_instance
from .model import (
    DependencyEdge,
    Instance,
    Project,
    Schedule,
    cost_present_value,
    return_present_value,
    validate_instance,
)
from .oracle import OracleResult, SearchSpaceCapExceeded, enumerate_optimal
from .serialization import instance_from_dict, instance_to_dict, load_instance, save_instance
from .valuation import (
    EvaluationBreakdown,
    InvalidInstanceError,
    Tables,
    build_tables,
    candidate_key,
    evaluate,
)

__version__ = "0.1.0"


def paper_fixture_path() -> str:
    """Path to the bundled seven-project case-study instance."""
    return str(resources.files(__name__).joinpath("fixtures/paper_fixture.json"))


def load_paper_fixture() -> Instance:
    return load_instance(paper_fixture_path())


__all__ = [
    "DependencyEdge",
    "EvaluationBreakdown",
    "GaConfig",
    "Instance",
    "InvalidInstanceError",
    "OracleResult",
    "Project",
    "Schedule",
    "SearchSpaceCapExceeded",
    "SolveResult",
    "Tables",
    "build_tables",
    "candidate_key",
    "cost_present_value",
    "enumerate_optimal",
    "evaluate",
    "generate_instance",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "load_paper_fixture",
    "paper_fixture_path",
    "return_present_value",
    "run_ga",
    "save_instance",
    "validate_instance",
]
