"""Two-echelon green supply chain profit model, optimizers and surrogates."""

from .model import (
    CostBreakdown,
    CycleSchedule,
    DecisionVector,
    DomainError,
    ProfitResult,
    base_profits,
    compute_breakdown,
    compute_schedule,
)
from .params import ModelParameters, ParameterError
from .policy import (
    GreenReduction,
    PolicyObjective,
    evaluate_policy,
    green_reduction,
    make_batch_objective,
)

__version__ = "0.1.0"

__all__ = [
    "CostBreakdown", "CycleSchedule", "DecisionVector", "DomainError",
    "GreenReduction", "ModelParameters", "ParameterError", "PolicyObjective",
    "ProfitResult", "base_profits", "compute_breakdown", "compute_schedule",
    "evaluate_policy", "green_reduction", "make_batch_objective",
]
