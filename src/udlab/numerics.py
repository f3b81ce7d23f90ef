"""Shared numerical kernels: reproducible reductions, precision-safe
fractional parts and seeded direction sampling.

Everything here is deterministic for a fixed input array. The tree
reduction uses a fixed splitting shape that depends only on the length of
the data. Prefix means come from one running sum, a sequential
accumulate, so a mean over the first N values is the same float whichever
grid of N it is computed along.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np
import mpmath

TWO_PI = 2.0 * math.pi

# Extra mantissa bits for power-tower fractional parts beyond the integer
# part of the phase. 64 left worst-case errors a shade above 1e-20; 96
# gives two orders of margin at negligible cost.
TOWER_GUARD_BITS = 96

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant


def tree_sum(values: np.ndarray):
    """Sum with a fixed-shape pairwise tree: pad with zeros to the next
    power of two, then fold halves. Bit-stable: the reduction shape depends
    only on len(values), never on chunking or worker count."""
    values = np.asarray(values)
    n = len(values)
    if n == 0:
        return values.dtype.type(0)
    m = 1 << int(n - 1).bit_length() if n > 1 else 1
    buf = np.zeros(m, dtype=values.dtype)
    buf[:n] = values
    while m > 1:
        m >>= 1
        buf = buf[:m] + buf[m:]
    return buf[0]


def prefix_means(values: np.ndarray, grid: Sequence[int]) -> np.ndarray:
    """(1/N) * sum(values[:N]) for each N in the grid, from one running sum.

    np.cumsum accumulates in index order, so the sum of the first N values
    does not depend on how many values follow it, nor on the rest of the
    grid. Recursive summation errs by at most about
    (N-1) * 2**-53 * sum|values| (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 4.2); for values of modulus at most 1 each
    component of the mean is within N * 2**-52 of the exact mean."""
    values = np.asarray(values)
    grid = np.asarray(grid, dtype=np.int64)
    if np.any((grid < 1) | (grid > len(values))):
        raise ValueError(f"prefix lengths must lie in [1, {len(values)}]")
    return np.cumsum(values[:grid.max(initial=0)])[grid - 1] / grid


def e_phase(t):
    """The character e(t) = exp(2*pi*i*t); t in cycles."""
    return np.exp(2j * math.pi * np.asarray(t, dtype=float))


def two_prod(a, b):
    """Dekker product: returns (p, err) with a*b == p + err exactly
    (barring overflow). Works elementwise on arrays."""
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


def frac_product(a, b):
    """Fractional part of a*b in [0, 1), computed in double-double so the
    low bits survive even when |a*b| is far beyond 2**40."""
    p, err = two_prod(a, b)
    f = p - np.floor(p)
    f = f + err
    f = f - np.floor(f)
    # rounding of f+err can land exactly on 1.0
    return np.where(f >= 1.0, f - 1.0, f)


def power_tower_frac_mp(g: float, b: float, guard_bits: int = TOWER_GUARD_BITS):
    """Fractional part of g**b as an mpmath float.

    Working precision is ceil(b*log2(g)) + guard_bits: enough mantissa to
    place the integer part exactly and still keep guard_bits fractional
    bits. Requires g > 1; b may be any real (negative exponents give a
    value in (0,1) whose fractional part is itself).
    """
    if not g > 1.0:
        raise ValueError(f"power tower base must exceed 1, got {g}")
    int_bits = max(0, int(math.ceil(max(b, 0.0) * math.log2(g))))
    prec = int_bits + guard_bits
    with mpmath.workprec(prec):
        value = mpmath.mpf(g) ** mpmath.mpf(b)
        return mpmath.frac(value)


def power_tower_frac(g: float, b: float, guard_bits: int = TOWER_GUARD_BITS) -> float:
    """Double-precision fractional part of g**b under the working-precision
    policy of power_tower_frac_mp."""
    return float(power_tower_frac_mp(g, b, guard_bits))


def chebyshev_nodes(lo: float, hi: float, m: int) -> np.ndarray:
    """m Chebyshev points on [lo, hi], open at the endpoints."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    j = np.arange(1, m + 1)
    t = np.cos((2 * j - 1) * math.pi / (2 * m))
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * t


def unit_directions(seed: int, k: int, count: int) -> List[np.ndarray]:
    """The k axis directions of R^k, then seeded uniform unit vectors up to
    count directions in all. The stream depends only on (seed, k, count)."""
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
