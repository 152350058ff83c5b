"""Mean-field analysis of Markov population models.

A model is a finite set of agent states with occupancy-dependent
transition rates.  From one textual description the package derives
the drift ODE, its Poisson-averaged mean-drift refinement, the limit
dynamics, the exact transient distribution of the lumped count chain,
and replicated stochastic simulations, so the approximations can be
compared against the exact law at matching population sizes.
"""

from .drift import VectorField, drift, drift_field, intensity, limit_drift, limit_field
from .errors import ModelError, NumericsError, RateError, SlotResolutionError
from .exact import (
    STATE_SPACE_CAP,
    LumpedDistribution,
    LumpedStateSpace,
    enumerate_states,
    expected_occupancy,
    generator,
    point_mass,
    transient,
)
from .expr import (
    ExprError,
    ExprEvalError,
    ExprSyntaxError,
    compile_fn,
    parse,
    pretty,
)
from .meandrift import (
    PoissonWeights,
    mean_drift,
    mean_drift_field,
    poisson_mean_intensity,
    poisson_weights,
)
from .model import (
    ModelSpec,
    ValidationReport,
    builtin_example,
    builtin_example_text,
    check_counts,
    check_occupancy,
    largest_remainder_counts,
    load_model,
    sample_simplex,
    slot_probability,
    validate,
)
from .odesolve import Trajectory, integrate, solve
from .sim import (
    GeneratorCheck,
    SimConfig,
    SimStats,
    ensemble,
    generator_check,
    poisson_marginal_fit,
    simulate_ctmc,
    simulate_slotted,
)

__version__ = "0.1.0"

__all__ = [
    "ExprError",
    "ExprEvalError",
    "ExprSyntaxError",
    "GeneratorCheck",
    "LumpedDistribution",
    "LumpedStateSpace",
    "ModelError",
    "ModelSpec",
    "NumericsError",
    "PoissonWeights",
    "RateError",
    "STATE_SPACE_CAP",
    "SimConfig",
    "SimStats",
    "SlotResolutionError",
    "Trajectory",
    "ValidationReport",
    "VectorField",
    "builtin_example",
    "builtin_example_text",
    "check_counts",
    "check_occupancy",
    "compile_fn",
    "drift",
    "drift_field",
    "ensemble",
    "enumerate_states",
    "expected_occupancy",
    "generator",
    "generator_check",
    "intensity",
    "largest_remainder_counts",
    "limit_drift",
    "limit_field",
    "load_model",
    "mean_drift",
    "mean_drift_field",
    "parse",
    "point_mass",
    "poisson_marginal_fit",
    "poisson_mean_intensity",
    "poisson_weights",
    "pretty",
    "sample_simplex",
    "simulate_ctmc",
    "simulate_slotted",
    "slot_probability",
    "solve",
    "transient",
    "validate",
    "__version__",
]
