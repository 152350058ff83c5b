"""Drift vector fields of population models.

The drift at occupancy m sums, over declared transitions s -> t, the
intensity m_s * rate(s, t, m) applied to the unit direction
e_t - e_s.  Coordinates therefore always sum to zero and the simplex
is forward-invariant for the induced ODE.

The population limit drift is available two ways: from declared limit
rates, or numerically by evaluating the finite-N drift along doubling
N until it stalls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ModelError, NumericsError
from .model import ModelSpec, _check_length, _check_population, _flat_occupancy

__all__ = [
    "VectorField",
    "intensity",
    "drift",
    "limit_drift",
    "drift_field",
    "limit_field",
]


@dataclass(frozen=True)
class VectorField:
    """A vector field on the occupancy simplex with provenance metadata.

    ``kind`` is one of 'drift', 'mean-drift', 'limit'; ``N`` is the
    population size the field was built for (None for limit fields).
    """

    kind: str
    N: Optional[float]
    fn: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    # the built-in fields' fn on lists of floats, to the same bits, run
    # under np.errstate(all="ignore") that its caller holds; integrate
    # holds it over its steps, and adapts fn when this is None.  It is
    # the only path of the mean drift and the numeric limit, and the
    # fallback of a step that _step does not take
    _lists: Optional[Callable[[list], list]] = field(
        default=None, compare=False, repr=False
    )
    # the drift's and the declared limit's fast path: _step(y) checks
    # that the point y has one entry per state and returns step(y, dt),
    # the rate table's generated RK4 step (built on first use), which
    # gives the same bits as four _lists calls, or None, or raises
    # ZeroDivisionError where integrate recomputes the step on _lists
    _step: Optional[Callable[[list], Callable[[list, float], Optional[list]]]] = field(
        default=None, compare=False, repr=False
    )

    def __call__(self, m: np.ndarray) -> np.ndarray:
        return self.fn(m)


def intensity(model: ModelSpec, N: float, m, s: str, t: str) -> float:
    """Transition intensity m_s * rate(s, t).  Zero when m_s is zero.

    The rate check sets a rate to 0 at an empty source, so the intensity
    is well defined even where the bare rate expression is singular there.
    """
    m, k = model._single_pair(N, m, s, t)
    if k is None:
        return 0.0
    q = model._rate_table.rates(N, m, ks=(k,), occupied=True)
    return m[model.index_of(s)] * float(q[0])


def drift(model: ModelSpec, N: float, m) -> np.ndarray:
    """Drift vector at occupancy m for population size N."""
    return drift_field(model, N)(m)


def limit_drift(model: ModelSpec, m, mode: str = "declared") -> np.ndarray:
    """Population-limit drift at occupancy m.

    mode='declared' uses the model's limit rates.  mode='numeric'
    evaluates the finite-N drift at N = 2^7, 2^8, ... until successive
    values differ by less than 1e-9 in max norm, and raises
    NumericsError if that never happens by 2^20.
    """
    return limit_field(model, mode)(m)


def _numeric_limit(model: ModelSpec, m: list, held: bool = False) -> list:
    table = model._rate_table
    if not held and table._fused_drift[2]:
        # numpy's error state once per value, not once per drift point
        with np.errstate(all="ignore"):
            return _numeric_limit(model, m, True)
    prev: Optional[list] = None
    for k in range(7, 21):
        cur = table.drift(float(2**k), m, held)
        # a nan difference fails the test, as in a max norm
        if prev is not None and all(abs(a - b) < 1e-9 for a, b in zip(cur, prev)):
            return cur
        prev = cur
    raise NumericsError(
        "finite-N drift did not stabilize by N=2^20; "
        "declare limit rates explicitly"
    )


def _field(kind: str, N: Optional[float], lists, point=None, step=None) -> VectorField:
    """A built-in field: its list kernel, which leaves numpy's error state
    to its caller, fn, point (default: lists) on a flat ndarray, and the
    maker of its RK4 step form, if it has one (see ``VectorField``)."""
    point = point or lists
    return VectorField(
        kind=kind, N=N, fn=lambda m: np.array(point(_flat_occupancy(m).tolist())),
        _lists=lists, _step=step,
    )


def _drift_of(kind: str, N: Optional[float], table, at: float) -> VectorField:
    """The field of table's drift at population ``at``, with its step form."""
    drift = table.drift

    def step(y: list):
        _check_length(y, len(table.state_names))
        return functools.partial(table._fused_step, at)

    return _field(kind, N, lambda m: drift(at, m, True), functools.partial(drift, at),
                  step)


def drift_field(model: ModelSpec, N: float) -> VectorField:
    """The finite-N drift as a reusable vector field."""
    _check_population(N)
    return _drift_of("drift", N, model._rate_table, N)


def limit_field(model: ModelSpec, mode: str = "declared") -> VectorField:
    """The population-limit drift as a reusable vector field."""
    if mode == "declared":
        return _drift_of("limit", None, model._limit(), math.nan)
    if mode == "numeric":
        return _field("limit", None, lambda m: _numeric_limit(model, m, True),
                      functools.partial(_numeric_limit, model))
    raise ModelError(f"unknown limit mode {mode!r}")
