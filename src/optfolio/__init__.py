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
    Chromosome,
    DependencyEdge,
    Instance,
    InvalidChromosomeError,
    Project,
    Schedule,
    cost_present_value,
    decode_chromosome,
    encode_schedule,
    return_present_value,
    validate_instance,
)
from .oracle import OracleResult, SearchSpaceCapExceeded, count_feasible, enumerate_optimal
from .serialization import instance_from_dict, instance_to_dict, load_instance, save_instance
from .valuation import (
    EvaluationBreakdown,
    InvalidInstanceError,
    check_feasibility,
    compare_candidates,
    dcf_value,
    evaluate,
    option_accrual,
    partial_benefit_factor,
)

__version__ = "0.1.0"


def paper_fixture_path() -> str:
    """Path to the bundled seven-project case-study instance."""
    return str(resources.files(__name__).joinpath("fixtures/paper_fixture.json"))


def load_paper_fixture() -> Instance:
    return load_instance(paper_fixture_path())


__all__ = [
    "Chromosome",
    "DependencyEdge",
    "EvaluationBreakdown",
    "GaConfig",
    "Instance",
    "InvalidChromosomeError",
    "InvalidInstanceError",
    "OracleResult",
    "Project",
    "Schedule",
    "SearchSpaceCapExceeded",
    "SolveResult",
    "check_feasibility",
    "compare_candidates",
    "cost_present_value",
    "count_feasible",
    "dcf_value",
    "decode_chromosome",
    "encode_schedule",
    "enumerate_optimal",
    "evaluate",
    "generate_instance",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "load_paper_fixture",
    "option_accrual",
    "paper_fixture_path",
    "partial_benefit_factor",
    "return_present_value",
    "run_ga",
    "save_instance",
    "validate_instance",
]
