"""References for the tests: rates by a tree walk with numpy's
arithmetic, and Poisson windows by one array walk.

The tree walk reads the expression tree alone and shares no code with
popdrift's constant folder, renderer or compiled kernels, so a fault in
any of them shows as a disagreement with it.  Import it as ``from
oracle import ...``.
"""

import math

import numpy as np

from popdrift.expr import BinOp, Name, Neg, Num, Occ
from popdrift.meandrift import _mode_probability

_OPERATORS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
_FUNCTIONS = {"pow": np.power, "exp": np.exp, "ln": np.log,
              "min": np.minimum, "max": np.maximum}


def evaluate(e, bindings):
    """Value of e under numpy semantics, a float64 scalar or array.

    bindings maps ``N``, parameter names and ``m[state]`` keys to floats
    or arrays, which broadcast.  Domain violations give inf or nan, with
    numpy's warnings as the caller's error state sets them.
    """
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, (Name, Occ)):
        key = e.ident if isinstance(e, Name) else f"m[{e.state}]"
        return np.asarray(bindings[key], dtype=np.float64)[()]
    if isinstance(e, Neg):
        return np.negative(evaluate(e.operand, bindings))
    if isinstance(e, BinOp):
        return _OPERATORS[e.op](evaluate(e.left, bindings), evaluate(e.right, bindings))
    return _FUNCTIONS[e.func](*(evaluate(a, bindings) for a in e.args))


def rate_fns(table):
    """(source, target, f) for each transition of a model's rate table,
    in table order.

    f(N, m) is the transition's rate by ``evaluate``, with m indexed by
    state position and holding floats or arrays; numpy's warnings are
    silenced, as the table kernels silence them.
    """

    def rate_fn(node):
        def f(N, m):
            bindings = {"N": N, **table.params}
            bindings.update((f"m[{s}]", x) for s, x in zip(table.state_names, m))
            with np.errstate(all="ignore"):
                return evaluate(node, bindings)

        return f

    return [(i, j, rate_fn(node))
            for i, j, node in zip(table.sources, table.targets, table.nodes)]


def rates_at(table, N, m):
    """Every transition's rate at m by ``evaluate``, in table order."""
    return [f(N, m) for _, _, f in rate_fns(table)]


def poisson_window(lam, tau):
    """(k_min, probs, tail) of the window ``poisson_weights`` must give.

    One array walk over a widening candidate span: every candidate's
    probability as running products of lam/k and k/lam outward from the
    mode, a stable sort by decreasing probability with the mode first
    for the walk's order, and the cumsum of the sorted probabilities for
    the mass taken.  It shares only ``_mode_probability`` with popdrift;
    lam and tau must be valid.
    """
    mode = int(math.floor(lam))
    p_mode = _mode_probability(lam, mode)
    nats = math.log(2.0 / tau)
    width = int(math.sqrt(2.0 * lam * nats) + nats) + 2
    while True:
        n_low = min(width, mode)
        ks = np.arange(mode - n_low + 1, mode + width + 1, dtype=float)
        p = np.empty(n_low + 1 + width)
        np.divide(ks[:n_low], lam, out=p[:n_low])
        np.divide(lam, ks[n_low:], out=p[n_low + 1:])
        for side in (p[:n_low][::-1], p[n_low + 1:]):
            if len(side):
                side[0] *= p_mode
                side.cumprod(out=side)
        p[n_low] = p_mode
        key = -p
        key[n_low] = -math.inf
        order = key.argsort(kind="stable")
        total = p[order].cumsum()
        steps = int(total.searchsorted(1.0 - tau))
        if steps == len(p):
            steps = int(np.count_nonzero(p)) - 1
        lo = int(np.minimum.reduce(order[:steps + 1]))
        if (lo > 0 or n_low == mode) and lo + steps < len(p) - 1:
            break
        width *= 2
    return mode - n_low + lo, p[lo:lo + steps + 1], max(0.0, 1.0 - float(total[steps]))
