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
from .model import ModelSpec, _check_population, _flat_occupancy

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
    # the built-in fields' fn on lists of floats, to the same bits;
    # integrate steps on lists and adapts fn when this is None
    _lists: Optional[Callable[[list], list]] = field(
        default=None, compare=False, repr=False
    )

    def __call__(self, m: np.ndarray) -> np.ndarray:
        return self.fn(m)


def intensity(model: ModelSpec, N: float, m, s: str, t: str) -> float:
    """Transition intensity m_s * rate(s, t).  Zero when m_s is zero.

    The rate check sets a rate to 0 at an empty source, so the intensity
    is well defined even where the bare rate expression is singular there.
    """
    _check_population(N)
    arr = _flat_occupancy(m, model.n_states)
    k = model._pair(s, t)
    if k is None:
        return 0.0
    q = model._rate_table.rates(N, arr.tolist(), ks=(k,), occupied=True)
    return float(arr[model.index_of(s)]) * float(q[0])


def drift(model: ModelSpec, N: float, m) -> np.ndarray:
    """Drift vector at occupancy m for population size N."""
    _check_population(N)
    return np.array(model._rate_table.drift(N, _flat_occupancy(m).tolist()))


def limit_drift(model: ModelSpec, m, mode: str = "declared") -> np.ndarray:
    """Population-limit drift at occupancy m.

    mode='declared' uses the model's limit rates.  mode='numeric'
    evaluates the finite-N drift at N = 2^7, 2^8, ... until successive
    values differ by less than 1e-9 in max norm, and raises
    NumericsError if that never happens by 2^20.
    """
    return np.array(_limit_lists(model, mode)(_flat_occupancy(m).tolist()))


def _limit_lists(model: ModelSpec, mode: str):
    if mode == "declared":
        return functools.partial(model._limit().drift, math.nan)
    if mode != "numeric":
        raise ModelError(f"unknown limit mode {mode!r}")
    return functools.partial(_numeric_limit, model)


def _numeric_limit(model: ModelSpec, m: list) -> list:
    table = model._rate_table
    prev: Optional[list] = None
    for k in range(7, 21):
        cur = table.drift(float(2**k), m)
        # a nan difference fails the test, as in a max norm
        if prev is not None and all(abs(a - b) < 1e-9 for a, b in zip(cur, prev)):
            return cur
        prev = cur
    raise NumericsError(
        "finite-N drift did not stabilize by N=2^20; "
        "declare limit rates explicitly"
    )


def drift_field(model: ModelSpec, N: float) -> VectorField:
    """The finite-N drift as a reusable vector field."""
    _check_population(N)
    return VectorField(
        kind="drift", N=N, fn=lambda m: drift(model, N, m),
        _lists=functools.partial(model._rate_table.drift, N),
    )


def limit_field(model: ModelSpec, mode: str = "declared") -> VectorField:
    """The population-limit drift as a reusable vector field."""
    if mode == "declared" and not model.has_limit:
        raise ModelError(
            "model declares no limit rates; use mode='numeric'"
        )
    return VectorField(
        kind="limit", N=None, fn=lambda m: limit_drift(model, m, mode=mode),
        _lists=_limit_lists(model, mode),
    )
