"""Spans and counts for the traced run, and public-API micro-timings.

The tracer wraps popdrift's public functions where their callers look
them up: ``popdrift.cli`` imports ``solve``, ``generator`` and the
rest by name, ``popdrift.odesolve`` builds its vector fields through
``drift_field`` and its siblings, and ``popdrift.meandrift`` and
``popdrift.exact`` call ``poisson_weights`` through their own module
globals.  A span records its name, start, end, the span that caused it
and counts taken at that boundary.  Nothing inside popdrift changes.

Counts marked *computed* below are derived, not observed:

- ``exact.spmv``: the SpMVs uniformization performs, from the
  ``poisson_weights`` windows it asks for and the documented rule that
  each segment multiplies ``k_max`` times;
- ``meandrift.lattice_points``: the rectangle each transition sums
  over, the product of the coordinate window sizes;
- ``odesolve.rk4_steps``: field evaluations divided by four;
- ``sim.slots_per_s``: slots from ``floor(t * D)`` per replication.

Span times are scaled by the calibration factor of the operation they
belong to.  A layer that a workload does not run reports 0.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable

import calib
from workloads import CONTENTION

_STAGE_EVALS = 4  # field evaluations per classical RK4 step

# per-layer metrics that are derived rather than observed (see above)
COMPUTED = ("exact.spmv", "meandrift.lattice_points", "odesolve.rk4_steps",
            "sim.slots_per_s")


class Tracer:
    """Records spans around popdrift's public functions while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, {}]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, counts: Callable = None) -> Callable:
        """``fn`` inside a span; ``counts(result, args)`` fills its counts."""

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span[4].update(counts(result, args))
            return result

        return traced

    def span(self, name: str, fn: Callable, *args):
        return self.wrap(name, fn)(*args)

    def _patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        import numpy as np
        from popdrift import cli, exact, meandrift, odesolve
        from popdrift.drift import VectorField

        def field_factory(original):
            def build(model, *args, **kwargs):
                vf = original(model, *args, **kwargs)
                n_trans = len(model.transitions())
                fn = self.wrap(f"field.{vf.kind}", vf.fn,
                               lambda out, args: {"transitions": n_trans})
                return VectorField(kind=vf.kind, N=vf.N, fn=fn)

            return build

        for attr in ("drift_field", "mean_drift_field", "limit_field"):
            self._patch(odesolve, attr, field_factory(getattr(odesolve, attr)))

        for attr in ("load_model", "builtin_example"):
            self._patch(cli, attr, self.wrap("model.load", getattr(cli, attr)))
        self._patch(cli, "solve", self.wrap("odesolve.solve", cli.solve))
        self._patch(cli, "enumerate_states", self.wrap(
            "exact.enumerate", cli.enumerate_states,
            lambda space, args: {"states": space.size}))
        self._patch(cli, "generator", self.wrap(
            "exact.generator", cli.generator,
            lambda gen, args: {
                "nnz": gen.nnz,
                "lambda": float(np.max(-gen.diagonal())) if gen.shape[0] else 0.0,
            }))
        self._patch(cli, "transient", self.wrap("exact.transient", cli.transient))
        self._patch(exact, "poisson_weights", self.wrap(
            "exact.poisson_weights", exact.poisson_weights,
            lambda w, args: {"k_max": w.k_max}))
        self._patch(meandrift, "poisson_weights", self.wrap(
            "meandrift.poisson_weights", meandrift.poisson_weights,
            lambda w, args: {"window": len(w.probs)}))
        self._patch(cli, "ensemble", self.wrap("sim.ensemble", cli.ensemble, _sim_counts))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def _sim_counts(stats, args) -> dict:
    config = args[1]
    ok = stats.reps - stats.failures
    counts = {"mode": config.mode, "reps": stats.reps, "ok": ok}
    if config.mode == "ctmc":
        counts["events"] = int(stats.z_counts.sum())
    else:
        counts["slots"] = ok * int(math.floor(config.t_end * config.resolution + 1e-9))
    return counts


def _dur(span: list) -> float:
    return span[2] - span[1]


def layer_totals(spans: list, factor: float) -> dict:
    """Per-layer sums over one operation's spans; times scaled by ``factor``."""
    children: dict = {}
    for k, span in enumerate(spans):
        children.setdefault(span[3], []).append(k)

    def self_time(k: int) -> float:
        return _dur(spans[k]) - sum(_dur(spans[c]) for c in children.get(k, ()))

    out = {
        "model.load_s": 0.0, "cli.self_s": 0.0, "odesolve.self_s": 0.0,
        "odesolve.field_evals": 0, "meandrift.lattice_points": 0,
        "exact.enumerate_s": 0.0, "exact.generator_s": 0.0,
        "exact.transient_s": 0.0, "exact.states": 0, "exact.nnz": 0,
        "exact.lambda": 0.0, "exact.spmv": 0, "sim.ensemble_s": 0.0,
        "sim.events": 0, "sim.ctmc_s": 0.0, "sim.slots": 0, "sim.slotted_s": 0.0,
        "sim.ok": 0, "sim.reps": 0,
    }
    for k, (name, _, _, _, counts) in enumerate(spans):
        if name == "cli.main":
            out["cli.self_s"] += self_time(k) * factor
        elif name == "model.load":
            out["model.load_s"] += _dur(spans[k]) * factor
        elif name == "odesolve.solve":
            out["odesolve.self_s"] += self_time(k) * factor
        elif name.startswith("field."):
            out["odesolve.field_evals"] += 1
            if name == "field.mean-drift":
                windows = [spans[c][4]["window"] for c in children.get(k, ())]
                out["meandrift.lattice_points"] += math.prod(windows) * counts["transitions"]
        elif name == "exact.enumerate":
            out["exact.enumerate_s"] += _dur(spans[k]) * factor
            out["exact.states"] += counts["states"]
        elif name == "exact.generator":
            out["exact.generator_s"] += _dur(spans[k]) * factor
            out["exact.nnz"] += counts["nnz"]
            out["exact.lambda"] += counts["lambda"]
        elif name == "exact.transient":
            out["exact.transient_s"] += _dur(spans[k]) * factor
        elif name == "exact.poisson_weights":
            out["exact.spmv"] += counts["k_max"]
        elif name == "sim.ensemble":
            dur = _dur(spans[k]) * factor
            out["sim.ensemble_s"] += dur
            out["sim.ok"] += counts["ok"]
            out["sim.reps"] += counts["reps"]
            if counts["mode"] == "ctmc":
                out["sim.events"] += counts["events"]
                out["sim.ctmc_s"] += dur
            else:
                out["sim.slots"] += counts["slots"]
                out["sim.slotted_s"] += dur
    return out


def pass_metrics(totals: dict) -> dict:
    """Per-layer metrics of one traced pass from its summed totals."""
    out = {k: v for k, v in totals.items()
           if k not in ("sim.ctmc_s", "sim.slots", "sim.slotted_s", "sim.ok", "sim.reps")}
    out["odesolve.rk4_steps"] = totals["odesolve.field_evals"] // _STAGE_EVALS
    out["sim.events_per_s"] = (
        totals["sim.events"] / totals["sim.ctmc_s"] if totals["sim.ctmc_s"] else 0.0)
    out["sim.slots_per_s"] = (
        totals["sim.slots"] / totals["sim.slotted_s"] if totals["sim.slotted_s"] else 0.0)
    out["sim.ok_frac"] = totals["sim.ok"] / totals["sim.reps"] if totals["sim.reps"] else 0.0
    return out


def _timed(fn: Callable, calls: int) -> float:
    """Seconds per call at reference speed; median of three timed batches."""
    results = []
    for _ in range(3):
        before = calib.sample()
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - start
        after = calib.sample()
        results.append(elapsed / calls * calib.CALIB_REF_S / (0.5 * (before + after)))
    return statistics.median(results)


def micro_timings() -> dict:
    """Layer costs timed through popdrift's public API, same in every workload."""
    import numpy as np
    import popdrift as pd

    model = pd.builtin_example()
    fns = [fn for _, _, fn in model.transitions()]
    point = (0.45, 0.55)

    def kernel_scalar():
        for fn in fns:
            fn(160.0, point)

    width = 4096
    a = np.linspace(0.0, 1.0, width)
    batch = (a, 1.0 - a)

    def kernel_batched():
        for fn in fns:
            fn(160.0, batch)

    m = np.array(point)
    with open(CONTENTION, "r", encoding="utf-8") as fh:
        contention = pd.load_model(fh.read())
    space = pd.enumerate_states(3, 200)
    gen = pd.generator(contention, space)
    init = pd.point_mass(space, (200, 0, 0))
    lam = float(np.max(-gen.diagonal())) + 1e-12
    spmv_per_call = pd.poisson_weights(lam * 2.0, 1e-10).k_max

    def mean_drift(N: float):
        return lambda: pd.mean_drift(model, N, m, tau=1e-10)

    return {
        "expr.kernel_scalar_us": _timed(kernel_scalar, 20000) * 1e6,
        "expr.kernel_batched_ns_per_point": _timed(kernel_batched, 200) * 1e9 / width,
        "drift.eval_us": _timed(lambda: pd.drift(model, 50.0, m), 5000) * 1e6,
        "meandrift.eval_ms_n50": _timed(mean_drift(50.0), 100) * 1e3,
        "meandrift.eval_ms_n1000": _timed(mean_drift(1000.0), 20) * 1e3,
        "meandrift.poisson_weights_us":
            _timed(lambda: pd.poisson_weights(450.0, 2.5e-11), 500) * 1e6,
        "exact.spmv_us":
            _timed(lambda: pd.transient(gen, init, 2.0, tol=1e-10), 2) * 1e6 / spmv_per_call,
    }
