"""Shared numerical kernels: reproducible reductions, precision-safe
fractional parts, seeded direction sampling, the log-log fit rule, and the
integer, interval and tower-base rules.

Everything here is deterministic for a fixed input array. Prefix means
come from one running sum, a sequential accumulate, so a mean over the
first N values is the same float whichever grid of N it is computed along.
"""

from __future__ import annotations

import math
import numbers
from typing import List, Sequence, Tuple

import numpy as np
import mpmath

# Fractional bits kept for power-tower fractional parts beyond what the
# integer part of the phase needs: mantissa bits of the mpmath route, and
# the margin over the truncation error of the fixed-point route, whose
# error is then at most 2**-96. 64 left worst-case errors a shade above
# 1e-20; 96 gives two orders of margin at negligible cost.
TOWER_GUARD_BITS = 96
UNIT_ROUNDOFF = 2.0 ** -53  # a double rounds with relative error at most this

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant
# The split range of two_prod: while |a|, |b| and |a*b| stay within it, no
# step overflows (134217729 * 2**996 < 2**1024).
SPLIT_MAX = 2.0 ** 996
MIN_FIT_CELLS = 3  # fewest points a log-log fit is made from


def is_number(value, ok) -> bool:
    """value is a real number, not a bool, and ok(value) holds."""
    return (isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
            and ok(value))


def check_integer(value, name: str) -> int:
    """value as an int when it equals one, so 2.0 reads as 2; a bool, a
    string or any other value is refused, naming it."""
    if is_number(value, lambda v: isinstance(v, numbers.Integral)
                 or math.isfinite(v) and v == int(v)):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_interval(interval) -> Tuple[float, float]:
    """The ends (lo, hi) of an interval as floats: both finite, lo < hi."""
    lo, hi = map(float, interval)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"interval [{lo!r}, {hi!r}] needs finite ends with lo < hi")
    return lo, hi


def check_tower_base(g) -> float:
    """A power-tower base as a float: finite and greater than 1."""
    g = float(g)
    if not (math.isfinite(g) and g > 1.0):
        raise ValueError(f"power tower base must be finite and exceed 1, got {g!r}")
    return g


def prefix_means(values: np.ndarray, grid: Sequence[int]) -> np.ndarray:
    """(1/N) * sum(values[:N]) for each N in the grid, from one running sum.

    np.cumsum accumulates in index order, so the sum of the first N values
    does not depend on how many values follow it, nor on the rest of the
    grid. Recursive summation errs by at most about
    (N-1) * 2**-53 * sum|values| (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 4.2); for values of modulus at most 1 each
    component of the mean is within N * 2**-52 of the exact mean."""
    values = np.asarray(values)
    grid = check_prefix_lengths(grid, len(values))
    return np.cumsum(values[:grid.max(initial=0)])[grid - 1] / grid


def check_prefix_lengths(grid: Sequence[int], n: int) -> np.ndarray:
    """Prefix lengths as an int64 array, each an integer (see check_integer)
    in [1, n]."""
    grid = np.array([check_integer(N, "prefix length") for N in grid], dtype=np.int64)
    if np.any((grid < 1) | (grid > n)):
        raise ValueError(f"prefix lengths must lie in [1, {n}]")
    return grid


def e_phase(t):
    """The character e(t) = exp(2*pi*i*t); t in cycles. Computed in place:
    a second complex temporary raises the peak memory of a Weyl sum by half."""
    z = np.array(t, dtype=complex)
    z *= 2j * math.pi
    return np.exp(z, out=z)


def two_prod(a, b):
    """Dekker product: returns (p, err) with a*b == p + err exactly while
    |a|, |b| and |a*b| lie within SPLIT_MAX. Works elementwise on arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p = a * b
    ta = _SPLITTER * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLITTER * b
    bhi = tb - (tb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def two_sum(a, b):
    """Knuth's two-sum: returns (s, err) with a + b == s + err exactly, for
    any finite a and b. Works elementwise on arrays."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def dd_add(u, v):
    """Sum of two double-double pairs (hi, lo), renormalised."""
    s, e = two_sum(u[0], v[0])
    return two_sum(s, e + (u[1] + v[1]))


def dd_mul(u, v):
    """Product of two double-double pairs (hi, lo), renormalised; within
    the split range of two_prod."""
    p, e = two_prod(u[0], v[0])
    return two_sum(p, e + (u[0] * v[1] + u[1] * v[0]))


def frac_product(a, b):
    """Fractional part of a*b in [0, 1), computed in double-double so the
    low bits survive even when |a*b| is far beyond 2**40."""
    p, err = two_prod(a, b)
    f = p - np.floor(p)
    f = f + err
    f = f - np.floor(f)
    # rounding of f+err can land exactly on 1.0
    return np.where(f >= 1.0, f - 1.0, f)


def power_tower_frac_mp(g: float, b: float):
    """Fractional part of g**b as an mpmath float.

    Working precision is ceil(b*log2(g)) + TOWER_GUARD_BITS: enough
    mantissa to place the integer part exactly and still keep
    TOWER_GUARD_BITS fractional bits. Requires a finite g > 1; b may be any real
    (negative exponents give a value in (0,1) whose fractional part is
    itself).
    """
    g = check_tower_base(g)
    int_bits = max(0, int(math.ceil(max(b, 0.0) * math.log2(g))))
    prec = int_bits + TOWER_GUARD_BITS
    with mpmath.workprec(prec):
        value = mpmath.mpf(g) ** mpmath.mpf(b)
        return mpmath.frac(value)


def power_tower_fracs_fixed(g: float, exponents) -> Tuple[np.ndarray, int]:
    """Fractional parts of g**e for non-negative integer exponents e, in
    exact integer fixed point, with the number F of fractional bits used.

    A double g > 1 is exactly M / 2**k. Along the sorted distinct
    exponents, X = floor-truncated g**e * 2**F steps to the next exponent
    by X = (X * M**d) >> (k*d). Each step truncates by less than one unit
    and later steps scale that by g per exponent, so X errs by less than
    g**e_max / (g - 1) units; F = ceil(e_max*log2 g + log2(1/(g-1))) +
    TOWER_GUARD_BITS keeps the fractional part within 2**-TOWER_GUARD_BITS.
    It is read from the low F bits by Python's correctly rounded int
    division, and a value that rounds to 1.0 is returned as 0.0."""
    g = check_tower_base(g)
    distinct, inverse = np.unique(np.asarray(exponents, dtype=np.int64),
                                  return_inverse=True)
    if len(distinct) and distinct[0] < 0:
        raise ValueError("exponents must be non-negative")
    M, den = g.as_integer_ratio()
    k = den.bit_length() - 1
    e_max = int(distinct[-1]) if len(distinct) else 0
    F = math.ceil(e_max * math.log2(g) - math.log2(g - 1.0)) + TOWER_GUARD_BITS
    one = 1 << F
    mask = one - 1
    X, e = one, 0
    fracs = np.empty(len(distinct))
    for i, target in enumerate(distinct.tolist()):
        if target > e:
            d = target - e
            X = (X * M ** d) >> (k * d)
            e = target
        f = (X & mask) / one
        fracs[i] = f if f < 1.0 else 0.0
    return fracs[inverse], F


def chebyshev_nodes(lo: float, hi: float, m: int) -> np.ndarray:
    """m Chebyshev points on [lo, hi], open at the endpoints."""
    j = np.arange(1, m + 1)
    t = np.cos((2 * j - 1) * math.pi / (2 * m))
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * t


def fit_line(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, float]:
    """Least-squares slope, intercept and R^2 of y against x: the one fit
    rule of decay exponents and discrepancy trends, whose callers pass only
    the points above their error. NaN for all three with fewer than
    MIN_FIT_CELLS points."""
    if len(x) < MIN_FIT_CELLS:
        return math.nan, math.nan, math.nan
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res == 0 else 0.0)
    return float(slope), float(intercept), r2


def unit_directions(seed: int, k: int, count: int) -> List[np.ndarray]:
    """The k axis directions of R^k, then seeded uniform unit vectors up to
    count directions in all. The stream depends only on (seed, k, count).
    k < 1 is refused: R^0 has no unit vector to draw."""
    if k < 1:
        raise ValueError(f"need at least one dimension for unit directions, got k = {k}")
    directions = [np.eye(k)[i] for i in range(k)]
    rng = np.random.default_rng(derive_seed(seed, k, count))
    while len(directions) < count:
        v = rng.standard_normal(k)
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            directions.append(v / norm)
    return directions


def derive_seed(master_seed: int, *indices: int) -> int:
    """Stable per-index substream seed: hash of (master, indices) via
    SHA-256. Removing one sample never perturbs another's stream."""
    import hashlib

    text = ":".join(str(v) for v in (master_seed,) + indices)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")
