"""contractlab: single-dimensional Bayesian contract design end to end.

Exact optimal contracts for discrete-type instances, an additive
approximation scheme for continuous type distributions, a set-cover
hardness-instance generator with exact verifiers, and an
online-learning pipeline through misspecified linear bandits.
"""

__version__ = "0.1.0"

from .core import (
    BestResponse,
    Instance,
    agent_utility,
    best_response,
    eps_best_responses,
    expected_principal_utility,
    expected_principal_utility_continuous,
    principal_utility,
    robustify,
)
from .dist import (
    Discrete,
    PiecewiseConstant,
    density_bound,
    discretize,
    interval_mass,
    uniform_distribution,
)
from .errors import InputError, ResourceGuardError, UsageError
from .numerics import LPResult, RationalLP, lp_solve, rng_new
from .solver import SolveReport, candidate_contract_set, solve_discrete_optimal
from .ptas import PtasConfig, PtasDiagnostics, ptas_contract
from .hardness import (
    ReducedInstance,
    ReductionParams,
    SetCoverInput,
    cover_contract,
    gap_value,
    reduce,
    verify_if_direction,
    verify_onlyif_bounds,
)
from .bandit import (
    ArmSet,
    ContractEnvironment,
    algorithm1_regret,
    contract_environment,
    g_optimal_design,
    pac_best_arm,
    pac_best_contract,
    phased_elimination,
    utility_map,
)
from .serialize import load_distribution, load_instance, load_type_instance

__all__ = [
    "ArmSet",
    "BestResponse",
    "ContractEnvironment",
    "Discrete",
    "InputError",
    "Instance",
    "LPResult",
    "PiecewiseConstant",
    "PtasConfig",
    "PtasDiagnostics",
    "RationalLP",
    "ReducedInstance",
    "ReductionParams",
    "ResourceGuardError",
    "SetCoverInput",
    "SolveReport",
    "UsageError",
    "agent_utility",
    "algorithm1_regret",
    "best_response",
    "candidate_contract_set",
    "contract_environment",
    "cover_contract",
    "density_bound",
    "discretize",
    "eps_best_responses",
    "expected_principal_utility",
    "expected_principal_utility_continuous",
    "g_optimal_design",
    "gap_value",
    "interval_mass",
    "load_distribution",
    "load_instance",
    "load_type_instance",
    "lp_solve",
    "pac_best_arm",
    "pac_best_contract",
    "phased_elimination",
    "principal_utility",
    "ptas_contract",
    "reduce",
    "rng_new",
    "robustify",
    "solve_discrete_optimal",
    "uniform_distribution",
    "utility_map",
    "verify_if_direction",
    "verify_onlyif_bounds",
]
