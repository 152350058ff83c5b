"""Arithmetic expression language used for population model rates.

Expressions are built from numeric literals, parameter names, the
population size ``N``, occupancy terms ``m[state]``, the binary
operators ``+ - * /`` with unary minus, and the functions ``pow``,
``exp``, ``ln``, ``min`` and ``max``.  Parsing is recursive descent
over the grammar

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom
    atom   := number | ident | ident '(' expr (',' expr)* ')'
            | 'm' '[' ident ']' | '(' expr ')'

``N`` is reserved for the population size.  Syntax errors carry a
1-based column number.

Expressions get values only through compiled source, and one
compiler writes it: ``_kernel`` folds subtrees that read neither ``N``
nor ``m`` to float literals, writes occupancies as ``m[index]`` (as
the locals ``m0, m1, ...`` in its RK4 step form), and the source reads
nothing but those, ``N``, the counts ``c`` of its
jump-law form, the point ``y`` and step ``dt`` of its RK4 step form
and the names of ``_KERNEL_GLOBALS`` (and in the step form the arrays
of folded constants it binds), so no model name reaches it.  It
makes one straight-line function per table of expressions that
computes a repeated subtree once and, written in plain operators and
numpy ufuncs, serves a point of plain floats and arrays of points
alike; its drift form also checks the rates and sums the net flows in
the same call, its jump-law form checks them and sums the jump chain's
intensities at a count vector, and its RK4 step form runs the drift
form's body at the four stage points of one step of the drift ODE and
returns the point the step reaches.  ``compile_fn`` is its
one-expression case.  Values follow numpy semantics:
``pow(0, 0)`` is 1, and a division by zero, ``ln`` of zero or of a
negative number, or ``pow`` outside its domain gives inf or nan
instead of raising.  Nothing here refuses a value; the model's rate
table checks each rate and refuses exactly those that are negative or
non-finite.

An expression nests at most 100 levels (``_MAX_DEPTH``): a number,
name or occupancy term is one level, and each operator, function
call, unary minus and pair of grouping parentheses adds one level
above the deepest of its operands.  So ``1-(1-m[a])`` has depth 5
and a sum of k terms has depth k.  The limit keeps the parser, the
tree walkers and the compiled source within the interpreter's
recursion and bracket-nesting limits; ``depth`` counts the same levels
for a tree built in code, on the parentheses its text needs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Num",
    "Name",
    "Occ",
    "Neg",
    "BinOp",
    "Call",
    "Expr",
    "ExprError",
    "ExprSyntaxError",
    "ExprEvalError",
    "parse",
    "free_vars",
    "depth",
    "pretty",
    "compile_fn",
    "FUNCTIONS",
]


class ExprError(ValueError):
    """Base class for expression language errors."""


class ExprSyntaxError(ExprError):
    """Malformed expression text.  ``column`` is 1-based."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class ExprEvalError(ExprError):
    """A parameter name or occupancy state that ``compile_fn`` cannot bind.

    Numeric domain violations are not errors here: rates follow numpy
    semantics, and only the model's rate table check refuses them.
    """


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Occ:
    """Occupancy term ``m[state]``."""

    state: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]


Expr = Union[Num, Name, Occ, Neg, BinOp, Call]

# function name -> arity
FUNCTIONS = {"pow": 2, "exp": 1, "ln": 1, "min": 2, "max": 2}

_MAX_DEPTH = 100

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[+\-*/()\[\],])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number' | 'ident' | one of '+-*/()[],' | 'end'
    text: str
    column: int  # 1-based


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos + 1)
        if match.lastgroup == "number":
            tokens.append(_Token("number", match.group(), pos + 1))
        elif match.lastgroup == "ident":
            tokens.append(_Token("ident", match.group(), pos + 1))
        elif match.lastgroup == "punct":
            tokens.append(_Token(match.group(), match.group(), pos + 1))
        pos = match.end()
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


class _Parser:
    """Recursive descent.

    Each parse_* takes ``level``, the depth that the parentheses, calls
    and unary minuses open around it add at least, and returns (node,
    depth of its tree).  ``nest`` enforces _MAX_DEPTH both ways: going
    down, so the recursion stops early, and coming up, because chains
    of binary operators deepen the tree without recursing.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.column
            )
        return self.advance()

    @staticmethod
    def nest(tok: _Token, *depths: int) -> int:
        """Depth of a level opened at tok over operands of these depths."""
        depth = 1 + max(depths, default=0)
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nests deeper than {_MAX_DEPTH} levels", tok.column
            )
        return depth

    def parse_expr(self, level: int) -> tuple[Expr, int]:
        node, depth = self.parse_term(level)
        while self.peek().kind in ("+", "-"):
            tok = self.advance()
            right, rdepth = self.parse_term(level)
            node, depth = BinOp(tok.kind, node, right), self.nest(tok, depth, rdepth)
        return node, depth

    def parse_term(self, level: int) -> tuple[Expr, int]:
        node, depth = self.parse_factor(level)
        while self.peek().kind in ("*", "/"):
            tok = self.advance()
            right, rdepth = self.parse_factor(level)
            node, depth = BinOp(tok.kind, node, right), self.nest(tok, depth, rdepth)
        return node, depth

    def parse_factor(self, level: int) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind != "-":
            return self.parse_atom(level)
        self.advance()
        operand, depth = self.parse_factor(self.nest(tok, level))
        return Neg(operand), self.nest(tok, depth)

    def parse_atom(self, level: int) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(float(tok.text)), 1
        if tok.kind == "(":
            self.advance()
            node, depth = self.parse_expr(self.nest(tok, level))
            self.expect(")")
            return node, self.nest(tok, depth)
        if tok.kind == "ident":
            self.advance()
            if tok.text == "m" and self.peek().kind == "[":
                self.advance()
                state = self.expect("ident")
                self.expect("]")
                return Occ(state.text), 1
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.column)
                self.advance()
                inner = self.nest(tok, level)
                args = [self.parse_expr(inner)]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.parse_expr(inner))
                self.expect(")")
                if len(args) != FUNCTIONS[tok.text]:
                    raise ExprSyntaxError(
                        f"{tok.text} takes {FUNCTIONS[tok.text]} arguments, "
                        f"got {len(args)}",
                        tok.column,
                    )
                depth = self.nest(tok, *(d for _, d in args))
                return Call(tok.text, tuple(a for a, _ in args)), depth
            return Name(tok.text), 1
        raise ExprSyntaxError(
            f"unexpected {tok.text or 'end of input'!r}", tok.column
        )


def parse(text: str) -> Expr:
    """Parse expression text into an AST.

    Raises ExprSyntaxError with a 1-based column on malformed input and
    on expressions nested deeper than 100 levels.
    """
    parser = _Parser(text)
    node, _ = parser.parse_expr(0)
    tok = parser.peek()
    if tok.kind != "end":
        raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.column)
    return node


def free_vars(e: Expr) -> tuple[str, ...]:
    """Names the expression reads, sorted: identifiers and ``m[state]`` keys."""
    def names(node: Expr, inner: list) -> frozenset:
        if isinstance(node, Name):
            return frozenset((node.ident,))
        if isinstance(node, Occ):
            return frozenset((f"m[{node.state}]",))
        return frozenset().union(*inner)

    return tuple(sorted(_bottom_up(e, names)))


_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_ATOM = 4


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC_ADD if e.op in ("+", "-") else _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def _operands(e: Expr) -> list[tuple[Expr, bool]]:
    """Operands of e, each with whether its text goes in parentheses.

    Parentheses are the fewest that keep the tree: ``_render`` writes
    them and ``depth`` counts each pair as a level, as ``parse`` does.
    """
    if isinstance(e, Neg):
        return [(e.operand, _prec(e.operand) < _PREC_NEG)]
    if isinstance(e, BinOp):
        p = _prec(e)
        return [(e.left, _prec(e.left) < p), (e.right, _prec(e.right) <= p)]
    if isinstance(e, Call):
        return [(a, False) for a in e.args]
    return []


def _render(e: Expr, leaf: Callable[[Expr], Optional[str]]) -> str:
    """Text of e with the fewest parentheses that keep its tree.

    ``leaf`` renders the Num, Name and Occ nodes, and any other node
    for which it returns text rather than None.
    """
    text = leaf(e)
    return _compose(e, leaf) if text is None else text


def _compose(e: Expr, leaf: Callable[[Expr], Optional[str]]) -> str:
    """Text of e's own operator over its operands, each from ``_render``."""
    parts = [
        f"({_render(a, leaf)})" if wrapped else _render(a, leaf)
        for a, wrapped in _operands(e)
    ]
    if isinstance(e, Neg):
        return f"-{parts[0]}"
    if isinstance(e, BinOp):
        return f"{parts[0]}{e.op}{parts[1]}"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(parts)})"
    raise TypeError(f"not an expression node: {e!r}")


def depth(e: Expr) -> int:
    """Levels ``pretty(e)`` nests, counted as ``parse`` counts them.

    So a tree built in code is within ``_MAX_DEPTH`` exactly when its
    text would parse.  Walks without recursion, so any tree is safe.
    """
    def levels(node: Expr, inner: list) -> int:
        wraps = (wrapped for _, wrapped in _operands(node))
        return 1 + max((d + w for d, w in zip(inner, wraps)), default=0)

    return _bottom_up(e, levels)


def _bottom_up(e: Expr, visit: Callable[[Expr, list], object]):
    """visit(node, its operands' results) at every node of e, operands
    first and left to right, as a recursion would; returns the root's."""
    preorder, stack = [], [e]  # each node before its operands, taken right to left
    while stack:
        node = stack.pop()
        preorder.append((node, _operands(node)))
        stack.extend(a for a, _ in preorder[-1][1])
    results: list = []
    for node, kids in reversed(preorder):  # each node after its operands, left to right
        start = len(results) - len(kids)
        results[start:] = [visit(node, results[start:])]
    return results[0]


def _text_leaf(e: Expr) -> Optional[str]:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Name):
        return e.ident
    return f"m[{e.state}]" if isinstance(e, Occ) else None


def pretty(e: Expr) -> str:
    """Render an AST back to expression text.

    The output reparses to a structurally identical AST.
    """
    return _render(e, _text_leaf)


# exponents at which np.power on one scalar exponent takes a shortcut
# that an array of exponents does not: 1/x, sqrt(x) and x*x, each of
# which can differ from the general power in the last bit
_SHORTCUT_EXPONENTS = frozenset((-1.0, 0.5, 2.0))


def _powers(bases, exponents) -> list:
    """np.power over the pairs as plain floats, each equal to its scalar
    call: one array call unless some exponent is a shortcut exponent."""
    if _SHORTCUT_EXPONENTS.isdisjoint(exponents):
        return np.power(bases, exponents).tolist()
    return [float(np.power(b, x)) for b, x in zip(bases, exponents)]


# Names the compiled source may read besides N and m.  Python's unary
# minus and binary + - * / share the expression language's precedence
# and associativity, so the rendered source is the same tree; a
# negative parameter's literal is a unary minus, which binds like an
# atom next to those operators.  ``powers`` and ``pairwise_sum`` serve
# the RK4 step form alone.
_KERNEL_GLOBALS = {
    "__builtins__": {},
    "pow": np.power,
    "exp": np.exp,
    "ln": np.log,
    "min": np.minimum,
    "max": np.maximum,
    "inf": math.inf,
    "nan": math.nan,
    "fsum": math.fsum,
    "float": float,
    "powers": _powers,
    "pairwise_sum": np.sum,
}


_NUMPY_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _fold(e: Expr, params: Mapping[str, float]) -> Expr:
    """e with every subtree that reads neither N nor m replaced by its value.

    Values follow numpy semantics, the same bits the compiled source
    computes, except that x/0 gives inf or nan where two float literals
    would raise ZeroDivisionError.  Unbound names raise ExprEvalError.
    """
    def fold(node: Expr, args: list) -> Expr:
        if isinstance(node, Name) and node.ident != "N":
            if node.ident not in params:
                raise ExprEvalError(f"unbound identifier {node.ident!r}")
            return Num(float(params[node.ident]))
        if isinstance(node, (Num, Name, Occ)):
            return node
        if not all(isinstance(a, Num) for a in args):
            if isinstance(node, Call):
                return Call(node.func, tuple(args))
            return BinOp(node.op, *args) if isinstance(node, BinOp) else Neg(*args)
        if isinstance(node, Neg):
            return Num(-args[0].value)
        fn = _KERNEL_GLOBALS[node.func] if isinstance(node, Call) else _NUMPY_OPS[node.op]
        return Num(float(fn(*(a.value for a in args))))

    with np.errstate(all="ignore"):
        return _bottom_up(e, fold)


# most terms _product_terms writes a rate as; past it the rate stays whole
_MAX_TERMS = 32


def _product_terms(e: Expr, params: Mapping[str, float]):
    """e, parameters folded, as a list of (c, factors) that sums to it.

    Term (c, ((f1, r1), ..., (fn, rn))) stands for the product
    c * f1 * ... * fn, c a float and each factor fi a subtree, or 1 over
    one, that reads N or an occupancy; ri is the frozenset of the states
    whose occupancies fi reads.  Constants come out of products and
    quotients.  Otherwise a subtree reading at most one occupancy stays
    one factor, as does a call; ``*`` distributes over ``+`` and ``-``,
    and a ``/`` whose denominator reads N or an occupancy multiplies each
    term of its numerator by the factor 1/denominator.  The terms equal e
    up to rounding, under numpy semantics.  None when some subtree needs
    more than _MAX_TERMS terms.
    """
    def expand(node: Expr, parts: list):
        reads = frozenset().union(*(r for r, _ in parts))
        if isinstance(node, Occ):
            reads = frozenset((node.state,))
        scaled = isinstance(node, BinOp) and node.op in "*/" and any(
            isinstance(a, Num) for a, _ in _operands(node)
        )
        if isinstance(node, Num):
            terms = [(node.value, ())]
        elif len(reads) < 2 and not scaled or isinstance(node, Call):
            terms = [(1.0, ((node, reads),))]
        elif isinstance(node, Neg):
            terms = parts[0][1] and [(-c, fs) for c, fs in parts[0][1]]
        else:
            terms = _combine(node, parts[0], parts[1])
        return reads, terms

    return _bottom_up(_fold(e, params), expand)[1]


def _combine(node: BinOp, left, right):
    """Terms of node from its operands' (reads, terms); None past the cap
    or from None."""
    (_, lt), (den_reads, rt) = left, right
    if node.op == "/":
        den = node.right
        if isinstance(den, Num):
            with np.errstate(all="ignore"):
                return lt and [(float(np.divide(c, den.value)), fs) for c, fs in lt]
        inv = (BinOp("/", Num(1.0), den), den_reads)
        return lt and [(c, fs + (inv,)) for c, fs in lt]
    if lt is None or rt is None:
        return None
    if node.op == "*":
        if len(lt) * len(rt) > _MAX_TERMS:
            return None
        return [(a * b, fa + fb) for a, fa in lt for b, fb in rt]
    if len(lt) + len(rt) > _MAX_TERMS:
        return None
    sign = 1.0 if node.op == "+" else -1.0
    return lt + [(sign * c, fs) for c, fs in rt]


def _malformed(e) -> Optional[str]:
    """Why e is not a tree that ``parse`` could build, or None.

    Looks at node types, operators, and function names and arities;
    names, states and depth are the caller's to check.
    """
    stack = [e]
    while stack:
        node = stack.pop()
        if not isinstance(node, (Num, Name, Occ, Neg, BinOp, Call)):
            return f"holds {node!r} where an expression node belongs"
        if isinstance(node, BinOp) and node.op not in _NUMPY_OPS:
            return f"uses unknown operator {node.op!r}"
        if isinstance(node, Call):
            if node.func not in FUNCTIONS:
                return f"calls unknown function {node.func!r}"
            if len(node.args) != FUNCTIONS[node.func]:
                return (f"calls {node.func}, which takes {FUNCTIONS[node.func]} "
                        f"arguments, with {len(node.args)}")
        stack.extend(a for a, _ in _operands(node))
    return None


def _source_leaf(state_index: Mapping[str, int],
                 occupancy: str = "m[{}]") -> Callable[[Expr], Optional[str]]:
    """The leaf renderer of compiled source, for folded trees: float
    literals, ``N`` and occupancies, state index i written as
    ``occupancy.format(i)``.  An unknown state raises ExprEvalError."""

    def leaf(node: Expr) -> Optional[str]:
        if isinstance(node, Occ):
            try:
                return occupancy.format(state_index[node.state])
            except KeyError:
                raise ExprEvalError(
                    f"unknown state in occupancy term m[{node.state}]"
                ) from None
        if isinstance(node, Num):
            return repr(node.value)
        return "N" if isinstance(node, Name) else None

    return leaf


def _define(body: Sequence[str], result: str, args: str = "N, m",
            consts: Optional[Mapping[str, np.ndarray]] = None) -> Callable:
    """The function ``f(args)`` that runs the statements body and returns
    result, with only the names of _KERNEL_GLOBALS and consts in scope."""
    lines = "".join(f"    {line}\n" for line in body)
    namespace = dict(_KERNEL_GLOBALS, **(consts or {}))
    exec(f"def f({args}):\n{lines}    return {result}\n", namespace)
    # popped, so that f and the namespace it reads are no reference cycle
    return namespace.pop("f")


def compile_fn(
    e: Expr,
    params: Mapping[str, float],
    state_index: Mapping[str, int],
) -> Callable[[float, Sequence], object]:
    """Compile an expression to ``f(N, m)`` with parameters baked in.

    The one-expression table of ``_kernel``: ``m`` is indexed by state
    position and may hold floats or numpy arrays, and operations
    broadcast elementwise.  The compiled function is unchecked: domain
    violations produce inf/nan under numpy semantics rather than
    raising (for plain-float ``N`` and ``m``, a division by zero still
    raises ZeroDivisionError), so callers validate results.  Unbound
    names raise ExprEvalError here, at compile time.
    """
    kernel, _ = _kernel([e], params, state_index)
    return lambda N, m: kernel(N, m)[0]


def _pow_group(roots: Sequence[Expr], leaf) -> list:
    """The pow calls of roots that the RK4 step form computes in one
    array call, each text once, as (text, call): those whose arguments
    hold no pow call and whose exponent is no constant shortcut exponent
    (see ``_powers``, which would take their scalar calls every time).
    Empty unless there are two or more."""
    group: dict[str, Call] = {}

    def visit(node: Expr, inner: list) -> bool:
        if not (isinstance(node, Call) and node.func == "pow"):
            return any(inner)
        exponent = node.args[1]
        if not (any(inner) or isinstance(exponent, Num)
                and exponent.value in _SHORTCUT_EXPONENTS):
            group.setdefault(_render(node, leaf), node)
        return True

    for root in roots:
        _bottom_up(root, visit)
    return list(group.items()) if len(group) > 1 else []


def _kernel(
    exprs: Sequence[Expr],
    params: Mapping[str, float],
    state_index: Mapping[str, int],
    moves: Optional[tuple[Sequence[int], Sequence[int]]] = None,
    form: str = "drift",
) -> tuple[Callable[..., Optional[Sequence]], bool]:
    """Compile a table of expressions to one straight-line function.

    Each expression is folded, its constant subtrees evaluated once
    here, and rendered into one function body in which a subtree that
    occurs more than once, within one expression or across them, is
    computed once into a local.  Without ``moves``, f is ``f(N, m)``,
    ``m`` holds floats or arrays and f returns the list of the values,
    q_k in table order.  With ``moves`` = (sources, targets), q_k is the
    rate of a move from sources[k] to targets[k], and ``form`` picks
    one of three tails:

    - ``"drift"``: f(N, m) at one point m of floats returns None if
      some q_k is not in [0, inf), and otherwise the net flow per
      state: from 0.0, for each k in order, m[sources[k]]*q_k
      subtracted at the source and added at the target.
    - ``"jump"``: f(N, c) on a count vector c evaluates the rates at
      m = c/N, returns None as before, and otherwise the jump law
      (fsum(w), running sums of w), w_k = c[sources[k]]*q_k, the
      running sums added left to right as ``itertools.accumulate``
      adds them.
    - ``"step"``: f(N, y, dt) is one classical RK4 step of length dt
      from the point y, a list of floats of which it reads the first
      len(state_index): the drift tail's body run at four stage points,
      each stage point y + h*k built and clipped as
      ``odesolve._stage`` does, and the point z = y + (dt/6)*(((k1 +
      2*k2) + 2*k3) + k4) settled as ``odesolve._settle`` settles it:
      each component x made x if x > 0.0 else 0.0 and divided by their
      sum, taken in ``odesolve._sum``'s order.  It returns None if some
      stage's q_k is not in [0, inf), and where ``_settle`` raises: a
      component of z not finite or below -``odesolve._SIMPLEX_SLACK``,
      or a sum of 0.  Each stage first computes the pow calls of
      ``_pow_group`` in one array call through ``_powers``, an
      all-constant argument column as a read-only array bound once;
      every other numpy call is a scalar call where it occurs.  Each
      numpy call's value is made a plain float, which is exact, so the
      rest of the step computes plain floats; an x/0 among them raises
      ZeroDivisionError where numpy scalars would give inf or nan.

    Values follow numpy semantics, as the module docstring says.  Also
    returns whether the body calls a numpy function; one that does not
    computes plain floats with plain floats.
    """
    step = form == "step"
    occupancy = "m{}" if step else "m[{}]"
    leaf = _source_leaf(state_index, occupancy)
    roots = [_fold(e, params) for e in exprs]
    # times each subtree's text is computed, not counting the insides of
    # a repeat, which is computed once
    uses: dict[str, int] = {}
    calls_numpy = False
    stack = list(roots)
    while stack:
        node = stack.pop()
        if leaf(node) is None:
            key = _render(node, leaf)
            uses[key] = uses.get(key, 0) + 1
            if uses[key] == 1:
                calls_numpy |= isinstance(node, Call)
                stack.extend(a for a, _ in _operands(node))

    body: list[str] = []
    # text of a repeated subtree, or of a call the step form hoists -> its local
    names: dict[str, str] = {}
    consts: dict[str, np.ndarray] = {}  # the step form's constant arguments

    def own(node: Expr) -> str:
        text = _compose(node, shared)
        return f"float({text})" if step and isinstance(node, Call) else text

    def shared(node: Expr) -> str:
        text = leaf(node)
        if text is not None:
            return text
        key = _render(node, leaf)
        if key not in names:
            if uses[key] < 2:
                return own(node)
            names[key] = f"t{len(names)}"
            body.append(f"{names[key]} = {own(node)}")
        return names[key]

    group = _pow_group(roots, leaf) if step else []
    if group:
        # argument columns first: their shared lines read no pow
        columns = []
        for p in (0, 1):
            args = [node.args[p] for _, node in group]
            if all(isinstance(a, Num) for a in args):
                consts[f"C{p}"] = np.array([a.value for a in args])
                consts[f"C{p}"].flags.writeable = False
                columns.append(f"C{p}")
            else:
                columns.append(f"[{', '.join(map(shared, args))}]")
        for key, _ in group:
            names[key] = f"t{len(names)}"
        targets = ", ".join(names[key] for key, _ in group)
        body.append(f"{targets} = powers({', '.join(columns)})")
    rates = [f"q{k}" for k in range(len(roots))]
    body += [f"{q} = {shared(root)}" for q, root in zip(rates, roots)]
    del own, shared  # they refer to each other; freed now, they leave no cycle
    if moves is None:
        return _define(body, f"[{', '.join(rates)}]"), calls_numpy
    if rates:
        valid = " and ".join(f"0.0 <= {q} < inf" for q in rates)
        body += [f"if not ({valid}):", "    return None"]
    if form == "jump":
        weights = [f"w{k}" for k in range(len(rates))]
        body += [f"{w} = c[{i}]*{q}" for w, q, i in zip(weights, rates, moves[0])]
        sums = weights[:1] + [f"a{k}" for k in range(1, len(rates))]
        body += [f"{a} = {b} + {w}" for a, b, w in zip(sums[1:], sums, weights[1:])]
        occupancies = "".join(f"c[{i}] / N, " for i in range(len(state_index)))
        result = f"fsum([{', '.join(weights)}]), ({''.join(f'{a}, ' for a in sums)})"
        return _define([f"m = ({occupancies})", *body], result, "N, c"), calls_numpy

    states = range(len(state_index))

    def flows(d: str) -> list[str]:
        """body, then the net flows summed into the locals d0, d1, ..."""
        lines = body + [f"{d}{i} = 0.0" for i in states]
        for q, i, j in zip(rates, *moves):
            lines += [f"f = {occupancy.format(i)}*{q}", f"{d}{i} -= f", f"{d}{j} += f"]
        return lines

    if not step:
        return _define(flows("d"), f"[{', '.join(f'd{i}' for i in states)}]"), calls_numpy
    ms = [occupancy.format(i) for i in states]
    lines = [f"y{i} = {m} = y[{i}]" for i, m in zip(states, ms)] + flows("k1_")
    lines.append("h = 0.5*dt")
    for s, h in ((2, "h"), (3, "h"), (4, "dt")):
        lines += [f"{m} = y{i} + {h}*k{s - 1}_{i}" for i, m in zip(states, ms)]
        # the clip of odesolve._stage: some component below 0, none nan
        lines += [f"if ({' or '.join(f'{m} < 0.0' for m in ms)}) and "
                  f"{' and '.join(f'{m} == {m}' for m in ms)}:"]
        lines += [f"    {m} = {m} if {m} > 0.0 else 0.0" for m in ms]
        lines += flows(f"k{s}_")
    lines.append("c = dt / 6.0")
    zs = [f"z{i}" for i in states]
    lines += [f"z{i} = y{i} + c*(((k1_{i} + 2.0*k2_{i}) + 2.0*k3_{i}) + k4_{i})"
              for i in states]
    # odesolve._settle: None where it would raise, else clip and renormalize;
    # odesolve owns the rule's constants (imported here, as it imports this module)
    from .odesolve import _PAIRWISE_FROM, _SIMPLEX_SLACK
    low = repr(-_SIMPLEX_SLACK)
    lines += [f"if not ({' and '.join(f'{low} <= {z} < inf' for z in zs)}):",
              "    return None"]
    lines += [f"{z} = {z} if {z} > 0.0 else 0.0" for z in zs]
    total = (" + ".join(zs) if len(zs) < _PAIRWISE_FROM
             else f"float(pairwise_sum([{', '.join(zs)}]))")
    lines += [f"total = {total}", "if total == 0.0:", "    return None"]
    result = f"[{', '.join(f'{z} / total' for z in zs)}]"
    return _define(lines, result, "N, y, dt", consts=consts), calls_numpy
