"""Fixed-step integration of occupancy vector fields.

The fields integrated here (drift, mean drift, limit drift) are smooth
and non-stiff, so a classic 4th-order fixed-step scheme with default
step min(0.1, t_end/1000) is enough.  The simplex is invariant for the
exact dynamics but not for discrete steps: negative components of an
RK4 stage point are clipped to zero before the field is evaluated
there, and after each step components in [-1e-9, 0) are clipped to
zero and the vector renormalized; anything below -1e-9 or non-finite
aborts with a diagnostic.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .drift import VectorField, drift_field, limit_field
from .errors import ModelError, NumericsError
from .meandrift import mean_drift_field
from .model import ModelSpec, check_occupancy

__all__ = ["Trajectory", "integrate", "solve", "STEP_CAP"]

# most RK4 steps one integration may take; the step grid is built
# before the first step, so a tiny step would otherwise ask for an
# array too large to allocate
STEP_CAP = 10**7


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of an occupancy ODE.

    ``states[k]`` is the occupancy at ``times[k]``; times are strictly
    increasing and every stored point lies on the simplex within the
    integrator's tolerance.
    """

    times: np.ndarray
    states: np.ndarray
    kind: str
    N: Optional[float]
    step: float

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def sample(self, times) -> np.ndarray:
        """Occupancies at the given times by linear interpolation."""
        ts = _time_vector(times)
        if ts.size and (ts.min() < self.times[0] - 1e-12
                        or ts.max() > self.times[-1] + 1e-12):
            raise ModelError(
                f"requested times outside [{self.times[0]}, {self.times[-1]}]"
            )
        out = np.empty((ts.size, self.states.shape[1]))
        for col in range(self.states.shape[1]):
            out[:, col] = np.interp(ts, self.times, self.states[:, col])
        return out


def _time_vector(times) -> np.ndarray:
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1:
        raise ModelError("sample times must be a vector")
    if not np.all(np.isfinite(ts)):
        raise ModelError("sample times must be finite")
    return ts


def _step_boundaries(
    t_end: float, h: float, sample_times: Optional[Sequence[float]]
) -> tuple[np.ndarray, np.ndarray]:
    """All step boundary times, and which of them are recorded."""

    def merged(*pieces) -> np.ndarray:
        # sorted, with times closer than float resolution allows collapsed
        times = np.unique(np.concatenate(pieces))
        keep = np.ones(len(times), dtype=bool)
        keep[1:] = np.diff(times) > 1e-12 * max(1.0, t_end)
        return times[keep]

    grid = (np.arange(0.0, t_end, h), [t_end])
    if sample_times is None:
        bounds = merged(*grid)
        return bounds, bounds
    extra = _time_vector(sample_times)
    if extra.size and (extra.min() < 0.0 or extra.max() > t_end + 1e-12):
        raise ModelError("sample times must lie within [0, t_end]")
    return merged(*grid, np.clip(extra, 0.0, t_end)), merged([0.0, t_end], extra)


# The post-step rule, which ``_settle`` and the generated RK4 step form
# of ``expr._kernel`` both apply: a component of a step's end below
# -_SIMPLEX_SLACK is refused, and the sum that renormalizes it is taken as
# numpy's y.sum() takes it, left to right below _PAIRWISE_FROM values and
# pairwise from there up.
_SIMPLEX_SLACK = 1e-9
_PAIRWISE_FROM = 8


def _sum(y: list) -> float:
    # numpy's y.sum() (the builtin sum compensates its rounding from
    # Python 3.12 on)
    return functools.reduce(operator.add, y) if len(y) < _PAIRWISE_FROM else float(np.sum(y))


def _settle(y: list, t: float) -> list:
    """The point y a step reached at time t, back on the simplex:
    components in [-_SIMPLEX_SLACK, 0] set to 0.0 (-0.0 too, as np.clip
    sets it) and the whole divided by its sum.  A non-finite component,
    one below -_SIMPLEX_SLACK or a sum of 0 raises NumericsError."""
    if not all(map(math.isfinite, y)):
        raise NumericsError(f"integration produced a non-finite state at t={t}")
    low = min(y)
    if low < -_SIMPLEX_SLACK:
        raise NumericsError(f"integration left the simplex at t={t}: component {low}")
    if low <= 0.0:
        y = [x if x > 0.0 else 0.0 for x in y]
    total = _sum(y)
    if total == 0.0:
        raise NumericsError(f"integration emptied the simplex at t={t}")
    return [x / total for x in y]


def _no_step(y: list, dt: float) -> None:
    """The step form of a field that has none: every step on the list path."""
    return None


def _stage(y: list, h: float, k: list) -> list:
    """The stage point y + h*k.  A stage point can leave the simplex where
    a step would not, and the field is only defined on it: unless a
    component is nan, components at or below 0 are then set to +0.0."""
    point = [a + h * b for a, b in zip(y, k)]
    if min(point) < 0.0 and not any(map(math.isnan, point)):
        point = [x if x > 0.0 else 0.0 for x in point]
    return point


def _rk4(f, y: list, dt: float) -> list:
    """One classical RK4 step of length dt from y, f on lists of floats."""
    k1 = f(y)
    k2 = f(_stage(y, 0.5 * dt, k1))
    k3 = f(_stage(y, 0.5 * dt, k2))
    k4 = f(_stage(y, dt, k3))
    c = dt / 6.0
    return [a + c * (((p + 2.0 * q) + 2.0 * r) + s)
            for a, p, q, r, s in zip(y, k1, k2, k3, k4)]


def _on_lists(field: VectorField, n: int):
    """field on lists of floats: its fn gets an ndarray and must return n values."""
    def lists(y: list) -> list:
        k = np.asarray(field(np.array(y)), dtype=float)
        if k.shape != (n,):
            raise NumericsError(
                f"field value has shape {k.shape}, the state has {n} entries"
            )
        return k.tolist()

    return lists


def integrate(
    field: VectorField,
    phi0,
    t_end: float,
    step: Optional[float] = None,
    sample_times: Optional[Sequence[float]] = None,
) -> Trajectory:
    """Integrate dphi/dt = field(phi) from phi0 over [0, t_end].

    Output is sampled at ``sample_times`` plus both endpoints; when no
    sample times are given, every step boundary is recorded.  The state
    is stepped as a list of floats, with numpy's order of operations, so
    trajectories equal those of the same RK4 scheme on arrays bit for bit.
    A built-in field is stepped under ``np.errstate(all="ignore")``,
    entered once for the whole integration; a field given as a bare fn
    runs under the caller's error state, so its numpy warnings surface.
    The drift and the declared limit take each step, its clip and
    renormalization included, in one call of their rate table's
    generated RK4 step, once phi0's length is checked against the model;
    where it returns None, because some stage's rate must be refused or
    excused at an empty source or the step's end must be refused, or
    raises ZeroDivisionError on plain floats, that step is taken again
    from its start on the field's list kernel, which numpy scalars back,
    and ``_settle`` refuses it there with its time.  The other fields
    take every step on the list kernel.  The boundaries at which samples
    are due are found before the first step, so a step that records
    nothing costs one comparison besides the step itself.
    """
    if not (math.isfinite(t_end) and t_end > 0):
        raise ModelError(f"t_end must be finite and positive, got {t_end}")
    y = check_occupancy(phi0).tolist()
    h = step if step is not None else min(0.1, t_end / 1000.0)
    if not h > 0:
        raise ModelError(f"step must be positive, got {h}")
    if t_end / h > STEP_CAP:
        raise NumericsError(
            f"horizon {t_end} at step {h} needs more than {STEP_CAP} steps"
        )
    bounds, record = _step_boundaries(t_end, h, sample_times)
    # a sample time is recorded at the first boundary t with time <= t + slack
    firsts = np.searchsorted(bounds + 1e-12 * max(1.0, t_end), record)
    due = bounds[firsts[firsts < len(bounds)]].tolist() + [math.inf]
    bounds = bounds.tolist()
    f = field._lists
    held = np.errstate(all="ignore") if f else contextlib.nullcontext()
    f = f or _on_lists(field, len(y))
    step = field._step(y) if field._step else _no_step
    states: list[list] = []

    def keep(t: float, y: list) -> float:
        """Record y at each sample time due by t; the next one's boundary."""
        while due[len(states)] <= t:
            states.append(y)
        return due[len(states)]

    next_due = keep(bounds[0], y)
    with held:
        for t0, t1 in zip(bounds, bounds[1:]):
            dt = t1 - t0
            try:
                z = step(y, dt)
            except ZeroDivisionError:
                z = None
            y = _settle(_rk4(f, y, dt), t1) if z is None else z
            if t1 >= next_due:
                next_due = keep(t1, y)
    return Trajectory(
        times=record[:len(states)],
        states=np.array(states),
        kind=field.kind,
        N=field.N,
        step=h,
    )


def solve(
    model: ModelSpec,
    variant: str,
    N: Optional[float],
    phi0,
    t_end: float,
    sample_times: Optional[Sequence[float]] = None,
    step: Optional[float] = None,
    tau: float = 1e-10,
) -> Trajectory:
    """Integrate one of the model's deterministic approximations.

    variant is 'drift', 'meandrift' (with truncation tolerance tau), or
    'limit' (N is ignored; declared limit rates are used when present,
    numeric stabilization otherwise).
    """
    if variant == "limit":
        mode = "declared" if model.has_limit else "numeric"
        field = limit_field(model, mode=mode)
    elif variant in ("drift", "meandrift"):
        if N is None:
            raise ModelError(f"variant {variant!r} needs N")
        field = (drift_field(model, N) if variant == "drift"
                 else mean_drift_field(model, N, tau=tau))
    else:
        raise ModelError(f"unknown variant {variant!r}")
    return integrate(field, phi0, t_end, step=step, sample_times=sample_times)
