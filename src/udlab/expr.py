"""Closed-form analytic expressions in one real variable.

Grammar (EBNF):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := ("-")? power
    power  := atom ("^" power)?
    atom   := number | variable | func "(" expr ")" | "(" expr ")"
    func   in {exp, log, sin, cos, sqrt}

"^" binds tighter than "*"/"/" which bind tighter than "+"/"-", and is
right-associative. The text is read as tokens (_TOKEN), whitespace
between them skipped: a number is decimal digits with at most one "."
and an optional exponent ("e" or "E", a sign, digits), so "2e" is the
number 2 and then "e"; an identifier is a letter or "_" followed by
letters, digits and "_"; any other character is a token of its own.
Exponents of "^" must be constant subexpressions; integer values produce
an integer-power node (valid for any base, with a zero-base check for
negative powers), anything else a real-power node (base must be positive).
A number or exponent that is not a finite double is a syntax error.

One interpreter walks the tree: Taylor-mode propagation of coefficient
rows f^(j)/j!, j = 0..d, with d up to JET_ORDER_CAP; no symbolic
expansion ever happens. Row 0 is the value, computed by the same numpy
call at every order, so evaluate() is row 0 of the order-0 jet and works
elementwise on numpy arrays as well as scalars. Each domain check exists
once, in that walk; sqrt(0) has a value (0) but no jet of order >= 1.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence, Tuple

import numpy as np

from .numerics import chebyshev_nodes, check_interval, dd_add, dd_mul

JET_ORDER_CAP = 16

_FUNCS = ("exp", "log", "sin", "cos", "sqrt")


class ExprSyntaxError(ValueError):
    """Parse failure; offset is the 1-based byte position in the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class DomainError(ValueError):
    """Evaluation outside an operation's domain; carries the offending node."""

    def __init__(self, message: str, node: "Node"):
        super().__init__(f"{message} in '{to_text(node)}'")
        self.node = node


class OrderCapError(ValueError):
    pass


# ---------------------------------------------------------------------------
# AST nodes


@dataclass(frozen=True)
class Node:
    pass


@dataclass(frozen=True)
class Const(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    pass


@dataclass(frozen=True)
class Add(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Sub(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Mul(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Div(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class PowInt(Node):
    base: Node
    exponent: int


@dataclass(frozen=True)
class PowReal(Node):
    base: Node
    exponent: float


@dataclass(frozen=True)
class Func(Node):
    name: str  # one of _FUNCS
    arg: Node


_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4

# Binary operators: class -> (symbol, precedence). One table drives the
# parser's left-associative loop, _prec and to_text.
_BINARY = {Add: ("+", 1), Sub: ("-", 1), Mul: ("*", 2), Div: ("/", 2)}
_BY_SYMBOL = {symbol: (cls, prec) for cls, (symbol, prec) in _BINARY.items()}

# A number, an identifier or any other single character; see the module docstring
_TOKEN = re.compile(r"(?:\d+\.?\d*|\.\d*)(?:[eE][+-]?\d+)?|[^\W\d]\w*|\S")


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str, var: str):
        self.var = var
        # (start, text) per token, then an end sentinel
        self.tokens = [(m.start(), m.group()) for m in _TOKEN.finditer(text)] + [(len(text), "")]
        self.i = 0

    def error(self, message: str, pos: Optional[int] = None):
        raise ExprSyntaxError(message, (self.tokens[self.i][0] if pos is None else pos) + 1)

    def peek(self) -> str:
        return self.tokens[self.i][1]

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected '{ch}'")
        self.i += 1

    def parse(self) -> Node:
        node = self.parse_expr()
        if self.peek() != "":
            self.error("unexpected trailing input")
        return node

    def parse_expr(self, prec: int = _PREC_ADD) -> Node:
        """Operands joined left to right by the binary operators of
        precedence prec; an operand is a chain at prec + 1, or a factor."""
        operand = self.parse_factor if prec == _PREC_MUL else lambda: self.parse_expr(prec + 1)
        node = operand()
        while True:
            make, op_prec = _BY_SYMBOL.get(self.peek(), (None, 0))
            if op_prec != prec:
                return node
            self.i += 1
            node = make(node, operand())

    def parse_factor(self) -> Node:
        if self.peek() == "-":
            self.i += 1
            inner = self.parse_power()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Mul(Const(-1.0), inner)
        return self.parse_power()

    def parse_power(self) -> Node:
        base = self.parse_atom()
        if self.peek() == "^":
            exp_start = self.tokens[self.i][0] + 1  # just past the "^"
            self.i += 1
            exponent = self.parse_power()  # right-associative
            return _make_power(base, exponent, self, exp_start)
        return base

    def parse_atom(self) -> Node:
        start, token = self.tokens[self.i]
        if token == "":
            self.error("unexpected end of input")
        self.i += 1
        if token == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if token[0].isdecimal() or token[0] == ".":
            try:
                value = float(token)
            except ValueError:
                self.error(f"bad number '{token}'", start)
            if not math.isfinite(value):
                self.error(f"number '{token}' overflows a double", start)
            return Const(value)
        if not (token[0].isalpha() or token[0] == "_"):
            self.error(f"unexpected character '{token[0]}'", start)
        if token == self.var:
            return Var()
        if token in _FUNCS:
            self.expect("(")
            arg = self.parse_expr()
            self.expect(")")
            return Func(token, arg)
        self.error(f"unknown identifier '{token}'", start)


def _make_power(base: Node, exponent: Node, parser: _Parser, exp_start: int) -> Node:
    if _contains_var(exponent):
        parser.error("exponent must be a constant expression", exp_start)
    with np.errstate(over="ignore", invalid="ignore"):
        value = evaluate(exponent, 0.0)
    if not math.isfinite(value):
        parser.error(f"exponent evaluates to {value}", exp_start)
    if value.is_integer() and abs(value) <= 2 ** 31:
        return PowInt(base, int(value))
    return PowReal(base, float(value))


def _contains_var(node: Node) -> bool:
    return isinstance(node, Var) or any(
        isinstance(child, Node) and _contains_var(child) for child in vars(node).values())


def parse_expr(text: str, var: str = "x") -> Node:
    """Parse text into an AST. var names the free variable ("x" by default,
    "n" for integer-argument sequence formulas)."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 1)
    return _Parser(text, var).parse()


# ---------------------------------------------------------------------------
# Serialization (round-trips: parse(to_text(t)) is structurally t)


def _prec(node: Node) -> int:
    if type(node) in _BINARY:
        return _BINARY[type(node)][1]
    if isinstance(node, (PowInt, PowReal)):
        return _PREC_POW
    if isinstance(node, Const) and node.value < 0:
        return _PREC_MUL  # "-3" parses like a factor, not an atom
    return _PREC_ATOM


def _fmt_const(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(float(value))


def to_text(node: Node, var: str = "x") -> str:
    """Serialize an AST back to the grammar."""

    def wrap(child: Node, min_prec: int) -> str:
        s = to_text(child, var)
        return f"({s})" if _prec(child) < min_prec else s

    if isinstance(node, Const):
        return _fmt_const(node.value)
    if isinstance(node, Var):
        return var
    if type(node) in _BINARY:
        symbol, prec = _BINARY[type(node)]
        op = f" {symbol} " if prec == _PREC_ADD else symbol
        return f"{wrap(node.left, prec)}{op}{wrap(node.right, prec + 1)}"
    if isinstance(node, (PowInt, PowReal)):
        e = _fmt_const(node.exponent)  # an int exponent prints as str() does
        return f"{wrap(node.base, _PREC_ATOM)}^{f'({e})' if node.exponent < 0 else e}"
    if isinstance(node, Func):
        return f"{node.name}({to_text(node.arg, var)})"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluation and Taylor jets: one tree walk

_FACTORIALS = np.array([math.factorial(j) for j in range(JET_ORDER_CAP + 1)],
                       dtype=float)


def evaluate(node: Node, x):
    """Evaluate at x (scalar or ndarray) with native float semantics.
    Raises DomainError naming the offending subexpression."""
    x = np.asarray(x, dtype=float)
    value = _jet(node, x, 0)[0]
    if x.ndim == 0:
        return float(value)
    return value if np.ndim(value) else np.full(x.shape, value)


@dataclass(frozen=True)
class TaylorJet:
    """Raw derivatives f(x), f'(x), ..., f^(d)(x) at a base point.

    Raw derivatives, not Taylor coefficients f^(j)/j!: the derivative-test
    bounds downstream consume f^(d) directly.
    """

    x: float
    order: int
    derivatives: np.ndarray


def eval_jet(node: Node, x: float, d: int) -> TaylorJet:
    """Derivatives of the expression up to order d at scalar x."""
    derivs = eval_jet_many(node, np.asarray([x], dtype=float), d)[:, 0]
    return TaylorJet(float(x), d, derivs)


def eval_jet_many(node: Node, xs: np.ndarray, d: int) -> np.ndarray:
    """Vectorized jet: returns array of shape (d+1, len(xs)) whose row j
    holds f^(j) at each point."""
    if d < 0:
        raise ValueError("jet order must be >= 0")
    if d > JET_ORDER_CAP:
        raise OrderCapError(f"jet order {d} exceeds cap {JET_ORDER_CAP}")
    xs = np.asarray(xs, dtype=float)
    out = np.empty((d + 1,) + xs.shape)
    for j, row in enumerate(_jet(node, xs, d)):
        out[j] = row
    out[2:] *= _FACTORIALS[2:d + 1, None]  # 0! = 1! = 1
    return out


def _sum(terms):
    return reduce(operator.add, terms)


def _mul(u: list, v: list) -> list:
    return [_sum(u[i] * v[j - i] for i in range(j + 1)) for j in range(len(u))]


def _div(u: list, v: list, node: Node) -> list:
    if np.any(v[0] == 0.0):
        raise DomainError("division by zero", node)
    w = []
    for j in range(len(u)):
        w.append(reduce(operator.sub, (w[i] * v[j - i] for i in range(j)), u[j]) / v[0])
    return w


def _jet(node: Node, x: np.ndarray, d: int) -> list:
    """Taylor coefficients f^(j)(x)/j!, j = 0..d, as a list of d+1 rows.

    Row 0 is the value. A row may be a scalar that broadcasts against x:
    constants, the constant rows of Var and zero tails.
    """
    if isinstance(node, Const):
        return [node.value] + [0.0] * d
    if isinstance(node, Var):
        return ([x, 1.0] + [0.0] * d)[:d + 1]
    if isinstance(node, Add):
        return [a + b for a, b in zip(_jet(node.left, x, d), _jet(node.right, x, d))]
    if isinstance(node, Sub):
        return [a - b for a, b in zip(_jet(node.left, x, d), _jet(node.right, x, d))]
    if isinstance(node, Mul):
        return _mul(_jet(node.left, x, d), _jet(node.right, x, d))
    if isinstance(node, Div):
        return _div(_jet(node.left, x, d), _jet(node.right, x, d), node)
    if isinstance(node, PowInt):
        u, k = _jet(node.base, x, d), node.exponent
        if k < 0 and np.any(u[0] == 0.0):
            raise DomainError("zero base with negative exponent", node)
        w = [1.0] + [0.0] * d  # the jet of u^0
        if d and k:
            # binary exponentiation keeps polynomial jets exactly polynomial;
            # the product starts from its first factor, since 1 * inf
            # would leave a 0 * inf = NaN in the higher rows
            sq, m, w = u, abs(k), None
            while m:
                if m & 1:
                    w = list(sq) if w is None else _mul(w, sq)
                m >>= 1
                if m:
                    sq = _mul(sq, sq)
            if k < 0:
                w = _div([1.0] + [0.0] * d, w, node)
        w[0] = np.power(u[0], k)
        return w
    if isinstance(node, PowReal):
        # Leibniz power recurrence; requires positive u_0.
        u, alpha = _jet(node.base, x, d), node.exponent
        if np.any(u[0] <= 0.0):
            raise DomainError("non-positive base of real power", node)
        w = [np.power(u[0], alpha)]
        for j in range(1, d + 1):
            w.append(_sum(((alpha + 1) * i - j) * u[i] * w[j - i]
                          for i in range(1, j + 1)) / (j * u[0]))
        return w
    if isinstance(node, Func):
        return _func_jet(node, _jet(node.arg, x, d), d)
    raise TypeError(f"not an expression node: {node!r}")


def _func_jet(node: Func, u: list, d: int) -> list:
    name = node.name
    if name == "exp":
        w = [np.exp(u[0])]
        for j in range(1, d + 1):
            w.append(_sum(i * u[i] * w[j - i] for i in range(1, j + 1)) / j)
        return w
    if name == "log":
        if np.any(u[0] <= 0.0):
            raise DomainError("log of non-positive value", node)
        w = [np.log(u[0])]
        for j in range(1, d + 1):
            terms = ((i / j) * w[i] * u[j - i] for i in range(1, j))
            w.append(reduce(operator.sub, terms, u[j]) / u[0])
        return w
    if name in ("sin", "cos"):
        if d == 0:
            return [np.sin(u[0]) if name == "sin" else np.cos(u[0])]
        s, c = [np.sin(u[0])], [np.cos(u[0])]
        for j in range(1, d + 1):
            s.append(_sum(i * u[i] * c[j - i] for i in range(1, j + 1)) / j)
            c.append(-_sum(i * u[i] * s[j - i] for i in range(1, j + 1)) / j)
        return s if name == "sin" else c
    if name == "sqrt":
        if np.any(u[0] < 0.0):
            raise DomainError("sqrt of negative value", node)
        if d and np.any(u[0] == 0.0):
            raise DomainError("sqrt jet needs a positive argument", node)
        w = [np.sqrt(u[0])]
        for j in range(1, d + 1):
            terms = (w[i] * w[j - i] for i in range(1, j))
            w.append(reduce(operator.sub, terms, u[j]) / (2.0 * w[0]))
        return w
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Polynomial trees in double-double


def polynomial_degree(node: Node) -> Optional[int]:
    """Degree of a polynomial tree, or None for any other tree. A polynomial
    tree is built from Var, Add, Sub, Mul and PowInt with an exponent >= 0
    over subtrees free of the variable, which have degree 0. The degree is
    structural: x^2 - x^2 has degree 2."""
    if not _contains_var(node):
        return 0
    if isinstance(node, Var):
        return 1
    if isinstance(node, PowInt) and node.exponent >= 0:
        d = polynomial_degree(node.base)
        return None if d is None else d * node.exponent
    if type(node) in (Add, Sub, Mul):
        left, right = polynomial_degree(node.left), polynomial_degree(node.right)
        if left is None or right is None:
            return None
        return left + right if isinstance(node, Mul) else max(left, right)
    return None


def evaluate_dd(node: Node, x: np.ndarray) -> Tuple:
    """A polynomial tree (see polynomial_degree) at x in double-double: a
    pair (hi, lo) whose sum carries about 104 bits, from Dekker products and
    two-sums. Subtrees free of the variable enter as their double value."""
    if not _contains_var(node):
        return _jet(node, x, 0)[0], 0.0
    if isinstance(node, Var):
        return x, 0.0
    if isinstance(node, PowInt):
        base, m, w = evaluate_dd(node.base, x), node.exponent, (1.0, 0.0)
        while m:  # binary exponentiation
            if m & 1:
                w = dd_mul(w, base)
            m >>= 1
            if m:
                base = dd_mul(base, base)
        return w
    left, right = evaluate_dd(node.left, x), evaluate_dd(node.right, x)
    if isinstance(node, Mul):
        return dd_mul(left, right)
    if isinstance(node, Sub):
        right = (-right[0], -right[1])
    return dd_add(left, right)


# ---------------------------------------------------------------------------
# Linear independence of {1, f_1, ..., f_k}

INDEPENDENCE_THRESHOLD = 1e-8


@dataclass(frozen=True)
class IndependenceReport:
    verdict: str  # "independent" | "dependent"
    sigma_min: float
    null_direction: Optional[np.ndarray]  # coefficients on [1, f_1, ..., f_k]


def check_linear_independence(fs: Sequence[Node], interval) -> IndependenceReport:
    """Sampled test of linear independence of {1, f_1, ..., f_k}.

    Builds the m x (k+1) sample matrix at m = max(64, 2(k+1)) Chebyshev
    points (avoiding endpoint-clustered ill-conditioning), normalizes each
    column to unit norm, and reads off the smallest singular value; below
    INDEPENDENCE_THRESHOLD the family is dependent. The reported null
    direction is mapped back to coefficients on the unnormalized functions
    and has unit Euclidean norm.
    """
    lo, hi = check_interval(interval)
    k = len(fs)
    m = max(64, 2 * (k + 1))
    xs = chebyshev_nodes(lo, hi, m)
    with np.errstate(over="ignore", invalid="ignore"):
        cols = [np.ones(m)] + [np.asarray(evaluate(f, xs), dtype=float) for f in fs]
    for f, col in zip(fs, cols[1:]):
        if not np.all(np.isfinite(col)):
            raise ValueError(f"samples of {to_text(f)} on [{lo:g}, {hi:g}] are not finite")
    matrix = np.column_stack(cols)
    norms = np.linalg.norm(matrix, axis=0)
    if np.any(norms == 0.0):
        direction = np.zeros(k + 1)
        direction[int(np.argmin(norms))] = 1.0
        return IndependenceReport("dependent", 0.0, direction)
    sigma = np.linalg.svd(matrix / norms, compute_uv=False)
    sigma_min = float(sigma[-1])
    if sigma_min >= INDEPENDENCE_THRESHOLD:
        return IndependenceReport("independent", sigma_min, None)
    _, _, vt = np.linalg.svd(matrix / norms)
    direction = vt[-1] / norms
    direction = direction / np.linalg.norm(direction)
    if direction[int(np.argmax(np.abs(direction)))] < 0:
        direction = -direction
    return IndependenceReport("dependent", sigma_min, direction)
