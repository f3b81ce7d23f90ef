"""Shared helpers: a seeded generator of well-conditioned random
expressions, used by the jet and round-trip tests, and the step-by-step
sublacunary grid that the walk in weyl is checked against."""

import math

import numpy as np

from udlab import expr as ex

# Safe evaluation window for generated expressions.
X_LO, X_HI = 0.4, 2.2


def _random_node(rng: np.random.Generator, depth: int) -> str:
    """Random expression text, built from templates that keep log/sqrt
    arguments positive on [X_LO, X_HI]."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return "x"
        return f"{rng.uniform(0.3, 2.5):.3f}"
    kind = rng.choice(["add", "sub", "mul", "div", "sin", "cos", "exp",
                       "log", "sqrt", "powi", "powr"])
    a = _random_node(rng, depth - 1)
    b = _random_node(rng, depth - 1)
    if kind == "add":
        return f"({a} + {b})"
    if kind == "sub":
        return f"({a} - {b})"
    if kind == "mul":
        return f"({a})*({b})"
    if kind == "div":
        return f"({a})/({b} + {rng.uniform(3.0, 6.0):.3f})"
    if kind in ("sin", "cos"):
        return f"{kind}({a})"
    if kind == "exp":
        return f"exp(({a})/4)"
    if kind == "log":
        return f"log(x + {rng.uniform(0.5, 2.0):.3f})"
    if kind == "sqrt":
        return f"sqrt(x + {rng.uniform(0.5, 2.0):.3f})"
    if kind == "powi":
        return f"({a})^{rng.integers(2, 4)}"
    return f"(x + {rng.uniform(0.5, 2.0):.3f})^{rng.uniform(0.3, 2.2):.3f}"


def random_expr_and_point(rng: np.random.Generator, max_tries: int = 50):
    """A (node, x) pair with finite values near x and a derivative large
    enough for finite differences to be meaningful."""
    for _ in range(max_tries):
        text = _random_node(rng, depth=int(rng.integers(1, 4)))
        node = ex.parse_expr(text)
        x = float(rng.uniform(X_LO, X_HI))
        try:
            probe = ex.eval_jet_many(node, np.array([x - 1e-4, x, x + 1e-4]), 2)
        except (ex.DomainError, ValueError):
            continue
        if not np.all(np.isfinite(probe)):
            continue
        if abs(probe[1, 1]) < 1e-3 or abs(probe[0, 1]) > 1e6 or abs(probe[2, 1]) > 1e6:
            continue
        return node, x
    raise AssertionError("could not draw a well-conditioned expression")


def stepwise_sublacunary(eps: float, r_max: int):
    """N_r = ceil(exp(r**(1 - eps))) for every r = 1..r_max, each new value
    kept: the loop sublacunary_grid ran before it walked."""
    out = []
    for r in range(1, r_max + 1):
        n = math.ceil(math.exp(r ** (1.0 - eps)))
        if not out or n > out[-1]:
            out.append(n)
    return out


def stepwise_grid(eps: float, top: int):
    """sublacunary:EPS:NMAX as parse_grid built it before the walk: a
    search for the last step r with exp(r**(1 - EPS)) <= NMAX, then the
    stepwise grid up to it, cut below NMAX, then NMAX."""
    r = 2
    while math.exp((r + 1) ** (1.0 - eps)) <= top:
        r += 1
    return [n for n in stepwise_sublacunary(eps, r) if n < top] + [top]
