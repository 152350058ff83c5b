"""Command-line front door binding the library's analyses.

Subcommands cover model validation, single drift evaluations, the
occupancy ODE variants, exact lumped-chain transients, replicated
stochastic simulation, the multi-method comparison sweep over
population sizes, and the Poisson marginal diagnostic.  Every command
writes CSV (header row, 15 significant digits, newline endings) to
standard output or ``--out``; failures appear on standard error as
``error: <kind>: <detail>`` with exit code 1 for usage problems, 2 for
model errors and 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from typing import Optional

import numpy as np

from .drift import drift
from .errors import ModelError, NumericsError
# perfbench/tracing.py wraps solve, enumerate_states, generator, transient,
# ensemble, load_model and builtin_example where this module looks them
# up, so all seven stay bound here and the CLI imports its solvers eagerly
from .exact import (
    enumerate_states,
    expected_occupancy,
    generator,  # noqa: F401  (no command builds the whole generator)
    point_mass,
    transient,
)
from .expr import ExprError
from .meandrift import _window_budget, mean_drift
from .model import (
    ModelSpec,
    _check_population as _check_positive_finite,
    _check_seed,
    builtin_example,
    check_occupancy,
    largest_remainder_counts,
    load_model,
    validate,
)
from .odesolve import STEP_CAP, Trajectory, solve
from .sim import SimConfig, ensemble, poisson_marginal_fit

_FMT = "%.15g"


def _fmt(x) -> str:
    return _FMT % float(x)


class _Parser(argparse.ArgumentParser):
    """argparse with usage problems mapped to exit code 1."""

    def error(self, message):
        sys.stderr.write(f"error: usage: {message}\n")
        raise SystemExit(1)


def _csv_floats(text: str):
    return tuple(float(part) for part in text.split(","))


def _csv_ints(text: str):
    return tuple(int(part) for part in text.split(","))


def _sim_mode(text: str):
    if text == "ctmc":
        return ("ctmc", None)
    if text.startswith("slotted:"):
        return ("slotted", int(text.split(":", 1)[1]))
    raise ValueError(f"mode must be ctmc or slotted:<D>, got {text!r}")


def _hist_request(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("histogram request must be <time>,<state>")
    return (float(parts[0]), parts[1])


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ModelError(f"{path} is not UTF-8 text: {exc}") from None


def _load(args) -> ModelSpec:
    """The command's model, with the command's --init checked against it."""
    model = builtin_example() if args.model is None else load_model(_read_text(args.model))
    if hasattr(args, "init"):
        args.init = check_occupancy(args.init, model.n_states)
    return model


# the column reported by compare and chaos; every model has at least two states
_SECOND_STATE = 1


def _check_population(N) -> None:
    # the library takes any positive finite N; a command needs one agent
    if not N >= 1:  # also rejects NaN
        raise ModelError("population size N must be at least 1")
    _check_positive_finite(N)


def _check_horizon(t) -> None:
    if not math.isfinite(t):
        raise ModelError(f"horizon t must be finite, got {t}")


def _check_count(option: str, value) -> None:
    # a count that sizes an array is refused before anything is allocated
    if value > STEP_CAP:
        raise ModelError(f"--{option} must be at most {STEP_CAP}, got {value}")


def _check_points(points) -> None:
    # ode also steps to each sample time, which the RK4 step cap does not count
    if points < 1:
        raise ModelError(f"--points must be at least 1, got {points}")
    _check_count("points", points)


def _emit(lines, out: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _load_reference(path: str, model: ModelSpec) -> Trajectory:
    rows = _read_text(path).splitlines()[1:]
    if not any(line.split("#", 1)[0].strip() for line in rows):
        raise ModelError("reference file has no rows after its header")
    try:
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ModelError(f"reference file {path}: {exc}") from None
    if data.shape[1] != 1 + model.n_states:
        raise ModelError(
            f"reference file has {data.shape[1]} columns, expected "
            f"{1 + model.n_states} (t plus one per state)"
        )
    if not np.all(np.isfinite(data)):
        raise ModelError("reference file holds a non-finite entry")
    times = data[:, 0]
    if np.any(np.diff(times) <= 0):
        raise ModelError("reference times must be strictly increasing")
    return Trajectory(
        times=times, states=data[:, 1:], kind="reference", N=None, step=math.nan
    )


def _cmd_validate(args):
    model = _load(args)
    _check_population(args.N)
    report = validate(model, N=args.N, sample_count=args.samples, seed=args.seed)
    header = (
        "N,samples,ok,nonnegative,max_rate,rate_warning,"
        "lipschitz_estimate,bound_estimate"
    )
    row = ",".join(
        [
            _fmt(report.N),
            str(report.sample_count),
            str(report.ok).lower(),
            str(report.nonnegative).lower(),
            _fmt(report.max_rate),
            str(report.rate_warning).lower(),
            _fmt(report.lipschitz_estimate),
            _fmt(report.bound_estimate),
        ]
    )
    for failure in report.failures:
        sys.stderr.write(f"warning: {failure}\n")
    if not report.ok:
        detail = report.failures[0] if report.failures else "negative rates"
        sys.stderr.write(f"error: model: validation failed: {detail}\n")
        return [header, row], 2
    return [header, row], 0


def _cmd_drift(args):
    model = _load(args)
    _check_population(args.N)
    m = check_occupancy(args.m, model.n_states)
    vec = drift(model, args.N, m)
    header = ",".join(f"F_{s}" for s in model.state_names)
    return [header, ",".join(_fmt(v) for v in vec)], 0


def _cmd_meandrift(args):
    model = _load(args)
    _check_population(args.N)
    m = check_occupancy(args.m, model.n_states)
    vec = mean_drift(model, args.N, m, tau=args.tau)
    header = ",".join(f"Ftilde_{s}" for s in model.state_names)
    return [header, ",".join(_fmt(v) for v in vec)], 0


def _cmd_ode(args):
    model = _load(args)
    if args.variant != "limit" and args.N is not None:
        _check_population(args.N)
    _check_points(args.points)
    times = np.linspace(0.0, args.t, args.points)
    traj = solve(
        model,
        args.variant,
        args.N,
        args.init,
        args.t,
        sample_times=times,
        step=args.step,
        tau=args.tau,
    )
    values = traj.sample(times)
    header = "t," + ",".join(f"phi_{s}" for s in model.state_names)
    lines = [header]
    for t, row in zip(times, values):
        lines.append(",".join([_fmt(t)] + [_fmt(v) for v in row]))
    return lines, 0


def _exact_transient(args, model: ModelSpec, N: int):
    """State space and law at args.t from the rounded args.init."""
    space = enumerate_states(model.n_states, N)
    counts = largest_remainder_counts(args.init, N)
    dist = transient(model, point_mass(space, counts), args.t, tol=args.tol)
    return space, dist


def _cmd_exact(args):
    model = _load(args)
    _check_population(args.N)
    space, dist = _exact_transient(args, model, args.N)
    occ = expected_occupancy(dist)
    mode = space.states[int(np.argmax(dist.probs))]
    header = "t," + ",".join(f"E_phi_{s}" for s in model.state_names) + ",mode"
    row = ",".join(
        [_fmt(args.t)] + [_fmt(v) for v in occ] + ["|".join(str(c) for c in mode)]
    )
    lines = [header, row]
    if args.full:
        lines.append("")
        lines.append("state_counts,probability")
        for state, p in zip(space.states, dist.probs):
            lines.append("|".join(str(c) for c in state) + "," + _fmt(p))
    return lines, 0


def _sim_config(args, N: int, seed: int, sample_times, hist=()):
    mode, resolution = args.mode
    counts = largest_remainder_counts(args.init, N)
    return SimConfig(
        N=N,
        init=tuple(int(c) for c in counts),
        t_end=args.t,
        reps=args.reps,
        seed=seed,
        mode=mode,
        resolution=resolution,
        sample_times=sample_times,
        hist=hist,
    )


def _cmd_simulate(args):
    model = _load(args)
    _check_points(args.points)
    grid = tuple(np.linspace(0.0, args.t, args.points))
    hist = tuple(
        (t, model.index_of(name)) for t, name in (args.hist or ())
    )
    _check_population(args.N)
    config = _sim_config(args, args.N, args.seed, grid, hist)
    reference = _load_reference(args.ref, model) if args.ref else None
    stats = ensemble(model, config, reference=reference)
    header = (
        "t,"
        + ",".join(f"mean_phi_{s}" for s in model.state_names)
        + ","
        + ",".join(f"stderr_phi_{s}" for s in model.state_names)
    )
    lines = [header]
    for k, t in enumerate(stats.sample_times):
        lines.append(
            ",".join(
                [_fmt(t)]
                + [_fmt(v) for v in stats.mean[k]]
                + [_fmt(v) for v in stats.stderr[k]]
            )
        )
    if hist:
        lines.append("")
        lines.append("hist_time,hist_state,k,count")
        for (t, idx), (_, name) in zip(hist, args.hist):
            tally = stats.histograms[(t, idx)]
            for k, count in enumerate(tally):
                if count:
                    lines.append(f"{_fmt(t)},{name},{k},{int(count)}")
    if reference is not None:
        lines.append("")
        lines.append("mse_sup,reps,failures")
        lines.append(f"{_fmt(stats.mse_sup)},{stats.reps},{stats.failures}")
    return lines, 0


def _compare_row(model, N, args, seed) -> dict:
    """The row's cells by column; a cell that fails leaves a warning line."""
    second = _SECOND_STATE
    cells = {}

    @contextlib.contextmanager
    def cell(name):
        try:
            yield
        except (ModelError, NumericsError) as exc:
            sys.stderr.write(f"warning: N={N} {name} failed: {exc}\n")

    for variant in ("drift", "meandrift"):
        with cell(f"phi2_{variant}"):
            cells[f"phi2_{variant}"] = solve(
                model, variant, N, args.init, args.t, step=args.step, tau=args.tau
            ).final[second]
    with cell("phi2_exact"):
        _, dist = _exact_transient(args, model, N)
        cells["phi2_exact"] = expected_occupancy(dist)[second]
    if args.reps > 0:
        with cell("phi2_sim"):
            stats = ensemble(model, _sim_config(args, N, seed, (0.0, args.t)))
            cells["phi2_sim_mean"] = stats.mean[-1, second]
            cells["phi2_sim_stderr"] = stats.stderr[-1, second]
    return cells


def _cmd_compare(args):
    if args.reps < 0:  # 0 turns the simulation columns off
        raise ModelError(f"--reps must be at least 0, got {args.reps}")
    model = _load(args)
    for N in args.Ns:
        _check_population(N)
    _window_budget(model, args.tau)  # refused once, not in every mean-drift cell
    columns = ["phi2_drift", "phi2_meandrift", "phi2_exact"]
    if args.reps > 0:
        columns += ["phi2_sim_mean", "phi2_sim_stderr"]
    lines = ["N," + ",".join(columns)]
    for k, N in enumerate(args.Ns):
        cells = _compare_row(model, N, args, args.seed + k)
        row = [str(N)]
        for col in columns:
            row.append(_fmt(cells[col]) if col in cells else "")
        lines.append(",".join(row))
    return lines, 0


def _cmd_chaos(args):
    model = _load(args)
    for N in args.Ns:
        _check_population(N)
    second = model.index_of(args.state) if args.state else _SECOND_STATE
    state_name = model.state_names[second]
    lines = [f"N,lambda,tv_{state_name}"]
    for k, N in enumerate(args.Ns):
        traj = solve(model, "drift", N, args.init, args.t, step=args.step)
        lam = N * traj.final[second]
        config = _sim_config(
            args, N, args.seed + k, (0.0, args.t), hist=((args.t, second),)
        )
        stats = ensemble(model, config)
        tv = poisson_marginal_fit(stats.histograms[(args.t, second)], lam)
        lines.append(",".join([str(N), _fmt(lam), _fmt(tv)]))
    return lines, 0


def _add_model(p):
    p.add_argument(
        "--model",
        help="model document path (default: the bundled example)",
    )
    p.add_argument("--out", help="write CSV here instead of standard output")


def _add_jobs(p):
    p.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility; runs are sequential and it has no effect",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="popdrift",
        description="Mean-field, mean-drift, exact and simulated analyses "
        "of Markov population models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="probe rates and drift regularity")
    _add_model(p)
    p.add_argument("--N", type=float, default=100.0, help="population size")
    p.add_argument("--samples", type=int, default=1000, help="occupancy samples")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("drift", help="drift vector at one occupancy")
    _add_model(p)
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--m", type=_csv_floats, required=True, help="occupancy v1,...,vI")
    p.set_defaults(func=_cmd_drift)

    p = sub.add_parser("meandrift", help="Poisson-averaged drift at one occupancy")
    _add_model(p)
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--m", type=_csv_floats, required=True, help="occupancy v1,...,vI")
    p.add_argument("--tau", type=float, default=1e-10, help="tail truncation tolerance")
    p.set_defaults(func=_cmd_meandrift)

    p = sub.add_parser("ode", help="integrate an occupancy ODE")
    _add_model(p)
    p.add_argument(
        "--variant", choices=("drift", "meandrift", "limit"), default="drift"
    )
    p.add_argument("--N", type=float, help="population size (drift, meandrift)")
    p.add_argument("--init", type=_csv_floats, required=True, help="phi(0)")
    p.add_argument("--t", type=float, required=True, help="horizon")
    p.add_argument("--step", type=float, help="integrator step")
    p.add_argument("--tau", type=float, default=1e-10)
    p.add_argument("--points", type=int, default=101, help="output rows")
    p.set_defaults(func=_cmd_ode)

    p = sub.add_parser("exact", help="lumped-chain transient at one time")
    _add_model(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--init", type=_csv_floats, required=True, help="occupancy phi(0)")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--full", action="store_true", help="dump the distribution")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("simulate", help="replicated stochastic simulation")
    _add_model(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--init", type=_csv_floats, required=True, help="occupancy phi(0)")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", type=_sim_mode, default=("ctmc", None),
                   help="ctmc or slotted:<D>")
    p.add_argument("--points", type=int, default=101, help="sample grid size")
    p.add_argument("--hist", type=_hist_request, action="append",
                   help="<time>,<state>: collect an agent-count histogram")
    p.add_argument("--ref", help="trajectory CSV for sup-distance statistics")
    _add_jobs(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "compare", help="drift / mean-drift / exact / simulation sweep over N"
    )
    _add_model(p)
    p.add_argument("--Ns", type=_csv_ints, required=True, help="population sizes")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--init", type=_csv_floats, required=True, help="occupancy phi(0)")
    p.add_argument("--step", type=float, help="ODE integrator step")
    p.add_argument("--tau", type=float, default=1e-10)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--reps", type=int, default=0,
                   help="simulation replications per N (0 disables)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", type=_sim_mode, default=("ctmc", None))
    _add_jobs(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "chaos", help="total variation of marginal counts against Poisson"
    )
    _add_model(p)
    p.add_argument("--Ns", type=_csv_ints, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--init", type=_csv_floats, required=True, help="occupancy phi(0)")
    p.add_argument("--reps", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", type=_sim_mode, default=("ctmc", None))
    p.add_argument("--state", help="state name (default: the second state)")
    p.add_argument("--step", type=float, help="ODE integrator step")
    _add_jobs(p)
    p.set_defaults(func=_cmd_chaos)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser ``main`` reads every argv with, built on its first call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ModelError("jobs must be at least 1")
        _check_seed(getattr(args, "seed", 0))
        _check_horizon(getattr(args, "t", 0.0))
        for option in ("samples", "reps"):
            _check_count(option, getattr(args, option, 0))
        lines, code = args.func(args)
        _emit(lines, args.out)
    except (ModelError, ExprError) as exc:
        sys.stderr.write(f"error: model: {exc}\n")
        return 2
    except NumericsError as exc:
        sys.stderr.write(f"error: numerics: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"error: model: {exc}\n")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
