"""Mean-field analysis of Markov population models.

A model is a finite set of agent states with occupancy-dependent
transition rates.  From one textual description the package derives
the drift ODE, its Poisson-averaged mean-drift refinement, the limit
dynamics, the exact transient distribution of the lumped count chain,
and replicated stochastic simulations, so the approximations can be
compared against the exact law at matching population sizes.

The package attribute ``drift`` is the function ``drift.drift``, which
shadows the submodule of the same name: ``from popdrift import drift``
and ``import popdrift.drift as module`` both give the function.  Reach
the module with ``importlib.import_module("popdrift.drift")``.

``errors``, ``expr``, ``model`` and ``drift`` load with the package;
``exact``, ``meandrift``, ``odesolve`` and ``sim`` load on first use of
one of their names.
"""

import importlib

# drift loads eagerly: its function popdrift.drift shadows the submodule,
# and importing the submodule later (import popdrift.meandrift does) would
# rebind the package attribute to the module
from .drift import VectorField, drift, drift_field, intensity, limit_drift, limit_field
from .errors import ModelError, NumericsError, RateError, SlotResolutionError
from .expr import (
    ExprError,
    ExprEvalError,
    ExprSyntaxError,
    compile_fn,
    parse,
    pretty,
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
    rate,
    sample_simplex,
    slot_probability,
    validate,
)

# public name -> submodule for the names bound on first use (PEP 562), so
# a model load compiles only the modules it reads
_LAZY = {
    name: module
    for module, names in (
        ("exact", ("STATE_SPACE_CAP", "LumpedDistribution", "LumpedStateSpace",
                   "enumerate_states", "expected_occupancy", "generator",
                   "point_mass", "transient")),
        ("meandrift", ("PoissonWeights", "mean_drift", "mean_drift_field",
                       "poisson_mean_intensity", "poisson_weights")),
        ("odesolve", ("Trajectory", "integrate", "solve")),
        ("sim", ("GeneratorCheck", "SimConfig", "SimStats", "ensemble",
                 "generator_check", "poisson_marginal_fit", "simulate_ctmc",
                 "simulate_slotted")),
    )
    for name in names
}


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


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
    "integrate",
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
    "rate",
    "sample_simplex",
    "simulate_ctmc",
    "simulate_slotted",
    "slot_probability",
    "solve",
    "transient",
    "validate",
    "__version__",
]
