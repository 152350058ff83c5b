"""Reference rates for the tests: a tree walk with numpy's arithmetic.

It reads the expression tree alone and shares no code with popdrift's
constant folder, renderer or compiled kernels, so a fault in any of
them shows as a disagreement with it.  Import it as ``from oracle
import ...``.
"""

import numpy as np

from popdrift.expr import BinOp, Name, Neg, Num, Occ

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
