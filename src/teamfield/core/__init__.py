"""Core model: spaces, measures, kernels, statistics, costs, game specs."""

from .errors import BudgetError, ModelError, SpecValidationError, TeamfieldError
from .spaces import (
    FiniteSpace,
    Kernel,
    ProbVec,
    StatisticMap,
    apply_statistic,
    emp_measure,
    emp_measure_exact,
    tv_distance,
)
from .costs import (
    DYNAMIC_COST_FAMILIES,
    STATIC_COST_FAMILIES,
    TRANSITION_FAMILIES,
    TableCost,
    make_stage_cost,
    make_static_cost,
    make_transition,
    scalar_view,
)
from .specs import (
    DynamicGameSpec,
    DynamicTeamSpec,
    StaticGameSpec,
    StaticTeamSpec,
    ValidationReport,
    cost_eval_static,
    validate_dynamic_spec,
    validate_static_spec,
)

__all__ = [
    "BudgetError",
    "ModelError",
    "SpecValidationError",
    "TeamfieldError",
    "FiniteSpace",
    "Kernel",
    "ProbVec",
    "StatisticMap",
    "apply_statistic",
    "emp_measure",
    "emp_measure_exact",
    "tv_distance",
    "DYNAMIC_COST_FAMILIES",
    "STATIC_COST_FAMILIES",
    "TRANSITION_FAMILIES",
    "TableCost",
    "make_stage_cost",
    "make_static_cost",
    "make_transition",
    "scalar_view",
    "DynamicGameSpec",
    "DynamicTeamSpec",
    "StaticGameSpec",
    "StaticTeamSpec",
    "ValidationReport",
    "cost_eval_static",
    "validate_dynamic_spec",
    "validate_static_spec",
]
