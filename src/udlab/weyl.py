"""Multidimensional exponential-sum averages F_N = (1/|S_N|) sum e(v . x_n).

Point coordinates come in three recipes:

  product     a(n) * f(x) at a fixed x; the phase is reduced mod 1 in
              double-double arithmetic, since for large a(n) the fractional
              part lives entirely below the rounding error of a plain
              double product
  power-tower g(x)**b(n) at a fixed x with g(x) > 1; the integer part
              grows with n and doubles keep none of the signal, so
              integer exponents b(n) >= 0 are reduced mod 1 in exact
              integer fixed point, within 2**-96, and any other exponent
              in mpmath at ceil(b * log2 g) plus guard bits
  raw         caller-supplied vectors

Every average goes through numerics.prefix_means, one running sum in
index order: F_N is the same float whether it is computed alone or along
a grid of prefixes. A frequency whose first nonzero entry is positive is
summed as the conjugate of its negation, so F_N(-v) == conj F_N(v) bit for
bit and the box maximum scans one of each pair v, -v. Non-finite points raise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import expr as ex
from . import numerics
from . import sequences as sq
from .numerics import (TOWER_GUARD_BITS, e_phase, frac_product,
                       power_tower_fracs_fixed, prefix_means)


# ---------------------------------------------------------------------------
# Coordinate recipes and point generators


class ProductCoord:
    """Fractional parts of a(n) * f(x) at fixed x."""

    def __init__(self, seq_spec: sq.SequenceSpec, f: ex.Node, x: float):
        self.seq_spec = seq_spec
        self.f = f
        self.x = float(x)
        self._seq = sq.make_sequence(seq_spec)
        self._fx = float(ex.evaluate(f, self.x))
        self.precision_bits = 104  # double-double mantissa

    def fracs(self, indices: np.ndarray) -> np.ndarray:
        a = np.asarray(self._seq(indices), dtype=float)
        return frac_product(a, self._fx)

    def describe(self) -> str:
        return f"prod:{sq.spec_to_text(self.seq_spec)}|{ex.to_text(self.f)}"


class TowerCoord:
    """Fractional parts of g(x)**b(n) at fixed x, g(x) > 1."""

    def __init__(self, g: ex.Node, b_spec: sq.SequenceSpec, x: float):
        self.g = g
        self.b_spec = b_spec
        self.x = float(x)
        self._b = sq.make_sequence(b_spec)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            self._gx = float(ex.evaluate(g, self.x))
        if not (math.isfinite(self._gx) and self._gx > 1.0):
            raise ValueError(f"power-tower base g(x) = {self._gx} must be finite and exceed 1")
        self.precision_bits = TOWER_GUARD_BITS  # grows with n; updated as used

    def fracs(self, indices: np.ndarray) -> np.ndarray:
        """Non-negative integer exponents go through exact fixed point,
        any other exponent through mpmath, point by point."""
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            b = np.asarray(self._b(indices), dtype=float)
        if not np.all(np.isfinite(b)):
            raise ValueError("power-tower exponents b(n) must be finite")
        out = np.empty(len(b))
        whole = (b >= 0) & (b == np.floor(b))
        if np.any(whole):
            out[whole], bits = power_tower_fracs_fixed(
                self._gx, b[whole].astype(np.int64))
            self.precision_bits = max(self.precision_bits, bits)
        for i in np.flatnonzero(~whole):
            out[i] = float(numerics.power_tower_frac_mp(self._gx, float(b[i])))
            self.precision_bits = max(self.precision_bits, TOWER_GUARD_BITS + math.ceil(
                max(float(b[i]), 0.0) * math.log2(self._gx)))
        return out

    def describe(self) -> str:
        return f"tower:{ex.to_text(self.g)}|{sq.spec_to_text(self.b_spec)}"


class RawCoord:
    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], label: str = "raw"):
        self.fn = fn
        self.label = label
        self.precision_bits = 53

    def fracs(self, indices: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.fn(indices), dtype=float)
        with np.errstate(invalid="ignore"):  # inf gives NaN, refused downstream
            return vals - np.floor(vals)

    def describe(self) -> str:
        return f"raw:{self.label}"


class PointGenerator:
    """A point sequence n -> ([0,1))^k built from per-coordinate recipes
    sharing the same index n."""

    def __init__(self, coords: Sequence):
        if not coords:
            raise ValueError("need at least one coordinate")
        self.coords = list(coords)
        self.dim = len(self.coords)

    def fracs(self, indices) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        return np.column_stack([c.fracs(indices) for c in self.coords])

    @property
    def precision_bits(self) -> int:
        return max(c.precision_bits for c in self.coords)

    def describe(self) -> str:
        return "; ".join(c.describe() for c in self.coords)


# ---------------------------------------------------------------------------
# Weyl sums


def _check_frequency(v, dim: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.int64).reshape(-1)
    if len(v) != dim:
        raise ValueError(f"frequency vector has length {len(v)}, points have dimension {dim}")
    if not np.any(v):
        raise ValueError("frequency vector must be nonzero")
    return v


def _prefix_weyl_means(points: np.ndarray, v: np.ndarray,
                       grid: Sequence[int]) -> np.ndarray:
    """F_N over the first N points, for each N in the grid. A frequency whose
    first nonzero entry is positive is summed as the conjugate of its
    negation, so F_N(-v) == conj F_N(v) exactly."""
    if v[np.flatnonzero(v)[0]] > 0:
        return np.conj(_prefix_weyl_means(points, -v, grid))
    # BLAS rounds a one-row product (dot kernel) unlike longer arrays
    # (gemv kernel); a doubled lone row keeps F_1 equal to longer series
    rows = points if len(points) > 1 else np.repeat(points, 2, axis=0)
    phase = (rows @ v.astype(float))[:len(points)]
    if not np.all(np.isfinite(phase)):
        raise ValueError("point coordinates must be finite")
    return prefix_means(e_phase(phase - np.floor(phase)), grid)


def weyl_sum(gen: PointGenerator, v, N: int) -> complex:
    """(1/N) sum_{n<=N} e(v . x_n) with v a nonzero integer vector."""
    if N < 1:
        raise ValueError("need N >= 1")
    v = _check_frequency(v, gen.dim)
    points = gen.fracs(np.arange(1, N + 1))
    return complex(_prefix_weyl_means(points, v, [N])[0])


@dataclass
class WeylSumSeries:
    v: np.ndarray
    grid: List[int]
    averages: List[complex]
    magnitudes: List[float]
    set_sizes: List[int]
    inverse_size_partial_sums: List[float]
    precision_bits: int
    family: Optional[sq.IndexSetFamily] = None


def weyl_sum_over_sets(gen: PointGenerator, v, family: sq.IndexSetFamily,
                       grid: Sequence[int]) -> WeylSumSeries:
    """F_N over the index sets S_N of the family, for each N in the grid,
    with the divergence diagnostic sum of 1/|S_M|. Every S_N is a prefix of
    the family's index order, so the points of the largest set are made
    once and each F_N is one entry of a running sum along that order."""
    v = _check_frequency(v, gen.dim)
    views = sq.index_set_views(family, grid)
    points = gen.fracs(max(views, key=lambda w: w.size).members())
    averages = [complex(f) for f in _prefix_weyl_means(points, v, [w.size for w in views])]
    return WeylSumSeries(v, [w.N for w in views], averages, [abs(f) for f in averages],
                         [w.size for w in views], [w.partial_inverse_sum for w in views],
                         gen.precision_bits, family)


def prefix_weyl_series(points: np.ndarray, v, grid: Sequence[int]) -> List[complex]:
    """F_N along prefixes {1..N} for each N in the grid, reusing one point
    array. Each F_N equals weyl_sum at that N bit for bit."""
    v = _check_frequency(v, points.shape[1])
    return [complex(f) for f in _prefix_weyl_means(points, v, grid)]


def frequency_box(dim: int, V: int):
    """Nonzero integer vectors with sup-norm <= V, in lexicographic order."""
    for v in itertools.product(range(-V, V + 1), repeat=dim):
        if any(v):
            yield np.asarray(v, dtype=np.int64)


def max_weyl_series(points: np.ndarray, V: int, grid: Sequence[int]
                    ) -> Tuple[List[float], List[np.ndarray]]:
    """max |F_N| over the frequency box ||v||_inf <= V, v != 0, per grid N,
    with its maximizer.

    Ties keep the lexicographically first maximizer (strict improvement
    comparison over the lexicographic enumeration). Only the first half of
    the box, whose first nonzero entries are negative, is scanned: the
    second half holds their negations, and |F_N(-v)| == |F_N(v)| exactly,
    so none of it can improve strictly on its earlier partner.
    """
    if V < 1:
        raise ValueError("need V >= 1")
    box = list(frequency_box(points.shape[1], V))
    box = box[:len(box) // 2]
    best = np.full(len(grid), -1.0)
    best_k = np.zeros(len(grid), dtype=np.int64)
    for k, v in enumerate(box):
        f = _prefix_weyl_means(points, v, grid)
        # hypot rounds as abs(complex) does; np.abs of complex128 may not
        mags = np.hypot(f.real, f.imag)
        better = mags > best
        best[better] = mags[better]
        best_k[better] = k
    return [float(m) for m in best], [box[k] for k in best_k]


def max_weyl_sum(gen: PointGenerator, V: int, N: int) -> Tuple[float, np.ndarray]:
    """Maximum of |F_N| over the frequency box, as max_weyl_series at N."""
    mags, argmax = max_weyl_series(gen.fracs(np.arange(1, N + 1)), V, [N])
    return mags[0], argmax[0]


# ---------------------------------------------------------------------------
# Sublacunary N grids and the averaging gap bound


def sublacunary_grid(eps_prime: float, r_max: int) -> List[int]:
    """N_r = ceil(exp(r**(1 - eps_prime))), deduplicated and increasing.
    Consecutive ratios tend to 1, which is what lets subsequence limits
    carry over to the full sequence."""
    if not (0.0 < eps_prime < 1.0):
        raise ValueError("eps_prime must lie in (0, 1)")
    if r_max < 2:
        raise ValueError("need r_max >= 2")
    out = []
    for r in range(1, r_max + 1):
        n = math.ceil(math.exp(r ** (1.0 - eps_prime)))
        if not out or n > out[-1]:
            out.append(n)
    return out


def cesaro_gap(zs: Sequence[complex], N: int, M: int) -> Tuple[float, float]:
    """|A_N - A_M| for prefix averages of a unit-bounded complex sequence,
    together with the bound 2*(1 - N/M). The caller asserts lhs <= bound."""
    zs = np.asarray(zs, dtype=complex)
    if not (1 <= N < M <= len(zs)):
        raise ValueError("need 1 <= N < M <= len(zs)")
    if np.any(np.abs(zs[:M]) > 1.0 + 1e-12):
        raise ValueError("sequence values must have modulus at most 1")
    prefix = np.cumsum(zs[:M])
    lhs = abs(prefix[N - 1] / N - prefix[M - 1] / M)
    bound = 2.0 * (1.0 - N / M)
    return float(lhs), float(bound)
