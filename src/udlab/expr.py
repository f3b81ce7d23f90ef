"""Closed-form analytic expressions in one real variable.

Grammar (EBNF):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := ("-")? power
    power  := atom ("^" power)?
    atom   := number | variable | func "(" expr ")" | "(" expr ")"
    func   in {exp, log, sin, cos, sqrt}

"^" binds tighter than "*"/"/" which bind tighter than "+"/"-", and is
right-associative. Numbers are decimals with an optional exponent.
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
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from .numerics import chebyshev_nodes

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


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str, var: str):
        self.text = text
        self.var = var
        self.pos = 0  # 0-based cursor; errors report 1-based offsets

    def error(self, message: str, pos: Optional[int] = None):
        raise ExprSyntaxError(message, (self.pos if pos is None else pos) + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected '{ch}'")
        self.pos += 1

    def parse(self) -> Node:
        node = self.parse_expr()
        if self.peek() != "":
            self.error("unexpected trailing input")
        return node

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                node = Add(node, self.parse_term())
            elif ch == "-":
                self.pos += 1
                node = Sub(node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                node = Mul(node, self.parse_factor())
            elif ch == "/":
                self.pos += 1
                node = Div(node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> Node:
        if self.peek() == "-":
            self.pos += 1
            inner = self.parse_power()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Mul(Const(-1.0), inner)
        return self.parse_power()

    def parse_power(self) -> Node:
        base = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            exp_start = self.pos
            exponent = self.parse_power()  # right-associative
            return _make_power(base, exponent, self, exp_start)
        return base

    def parse_atom(self) -> Node:
        ch = self.peek()
        if ch == "":
            self.error("unexpected end of input")
        if ch == "(":
            self.pos += 1
            node = self.parse_expr()
            self.expect(")")
            return node
        if ch.isdigit() or ch == ".":
            return self.parse_number()
        if ch.isalpha() or ch == "_":
            return self.parse_identifier()
        self.error(f"unexpected character '{ch}'")

    def parse_number(self) -> Node:
        self.skip_ws()
        start = self.pos
        text = self.text
        n = len(text)
        while self.pos < n and text[self.pos].isdigit():
            self.pos += 1
        if self.pos < n and text[self.pos] == ".":
            self.pos += 1
            while self.pos < n and text[self.pos].isdigit():
                self.pos += 1
        if self.pos < n and text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < n and text[self.pos] in "+-":
                self.pos += 1
            if self.pos < n and text[self.pos].isdigit():
                while self.pos < n and text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent, e.g. "2e" would be "2 * e"
        token = text[start:self.pos]
        try:
            value = float(token)
        except ValueError:
            self.error(f"bad number '{token}'", start)
        if not math.isfinite(value):
            self.error(f"number '{token}' overflows a double", start)
        return Const(value)

    def parse_identifier(self) -> Node:
        self.skip_ws()
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self.pos += 1
        name = text[start:self.pos]
        if name == self.var:
            return Var()
        if name in _FUNCS:
            self.expect("(")
            arg = self.parse_expr()
            self.expect(")")
            return Func(name, arg)
        self.error(f"unknown identifier '{name}'", start)


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
    if isinstance(node, Var):
        return True
    if isinstance(node, (Add, Sub, Mul, Div)):
        return _contains_var(node.left) or _contains_var(node.right)
    if isinstance(node, (PowInt, PowReal)):
        return _contains_var(node.base)
    if isinstance(node, Func):
        return _contains_var(node.arg)
    return False


def parse_expr(text: str, var: str = "x") -> Node:
    """Parse text into an AST. var names the free variable ("x" by default,
    "n" for integer-argument sequence formulas)."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 1)
    return _Parser(text, var).parse()


# ---------------------------------------------------------------------------
# Serialization (round-trips: parse(to_text(t)) is structurally t)

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _prec(node: Node) -> int:
    if isinstance(node, (Add, Sub)):
        return _PREC_ADD
    if isinstance(node, (Mul, Div)):
        return _PREC_MUL
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
    if isinstance(node, Add):
        return f"{wrap(node.left, _PREC_ADD)} + {wrap(node.right, _PREC_ADD + 1)}"
    if isinstance(node, Sub):
        return f"{wrap(node.left, _PREC_ADD)} - {wrap(node.right, _PREC_ADD + 1)}"
    if isinstance(node, Mul):
        return f"{wrap(node.left, _PREC_MUL)}*{wrap(node.right, _PREC_MUL + 1)}"
    if isinstance(node, Div):
        return f"{wrap(node.left, _PREC_MUL)}/{wrap(node.right, _PREC_MUL + 1)}"
    if isinstance(node, PowInt):
        e = str(node.exponent) if node.exponent >= 0 else f"({node.exponent})"
        return f"{wrap(node.base, _PREC_ATOM)}^{e}"
    if isinstance(node, PowReal):
        e = _fmt_const(node.exponent)
        if node.exponent < 0:
            e = f"({e})"
        return f"{wrap(node.base, _PREC_ATOM)}^{e}"
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

    def derivative(self, j: int) -> float:
        return float(self.derivatives[j])


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
        w = [1.0] + [0.0] * d
        if d:
            # binary exponentiation keeps polynomial jets exactly polynomial
            sq, m = u, abs(k)
            while m:
                if m & 1:
                    w = _mul(w, sq)
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
# Linear independence of {1, f_1, ..., f_k}

INDEPENDENCE_THRESHOLD = 1e-8


@dataclass(frozen=True)
class IndependenceReport:
    verdict: str  # "independent" | "dependent"
    sigma_min: float
    null_direction: Optional[np.ndarray]  # coefficients on [1, f_1, ..., f_k]

    @property
    def independent(self) -> bool:
        return self.verdict == "independent"


def check_linear_independence(fs: Sequence[Node], interval, m: Optional[int] = None,
                              threshold: float = INDEPENDENCE_THRESHOLD) -> IndependenceReport:
    """Sampled test of linear independence of {1, f_1, ..., f_k}.

    Builds the m x (k+1) sample matrix at Chebyshev points (avoiding
    endpoint-clustered ill-conditioning), normalizes each column to unit
    norm, and reads off the smallest singular value. The reported null
    direction is mapped back to coefficients on the unnormalized functions
    and has unit Euclidean norm.
    """
    lo, hi = float(interval[0]), float(interval[1])
    k = len(fs)
    if m is None:
        m = max(64, 2 * (k + 1))
    if m < 2 * (k + 1):
        raise ValueError(f"need at least {2 * (k + 1)} sample points, got {m}")
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
    if sigma_min >= threshold:
        return IndependenceReport("independent", sigma_min, None)
    _, _, vt = np.linalg.svd(matrix / norms)
    direction = vt[-1] / norms
    direction = direction / np.linalg.norm(direction)
    if direction[int(np.argmax(np.abs(direction)))] < 0:
        direction = -direction
    return IndependenceReport("dependent", sigma_min, direction)
