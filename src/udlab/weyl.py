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

Every average goes through one kernel, _weyl_means. Characters are
multiplicative, e(v . x) = prod_c e(x_c)**v_c, so it tabulates e(frac(j x_c))
once per column c and |j| in use, each j with its own phase reduction,
forms the terms of a frequency as a product of table rows in column order,
with a row's conj for -j, and sums them in one running sum in index order,
as numerics.prefix_means does. Each term depends on its own point only and
the sum on the terms up to N only, so F_N is the same float whether it is
computed alone or along a grid of prefixes. The conj of a product is the
product of the conjs, so F_N(-v) == conj F_N(v) bit for bit and the box
maximum scans one of each pair v, -v. Within each point, a coordinate
equal to an earlier one is folded into it, so the diagonal at v = (1, -1)
sums exact ones. The tables cover a block of points at a time, so their
memory does not grow with N. Non-finite points raise.
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
from .numerics import (SPLIT_MAX, TOWER_GUARD_BITS, check_integer, check_prefix_lengths,
                       check_tower_base, e_phase, frac_product, power_tower_fracs_fixed,
                       prefix_means)


# ---------------------------------------------------------------------------
# Coordinate recipes and point generators


class ProductCoord:
    """Fractional parts of a(n) * f(x) at fixed x."""

    def __init__(self, seq_spec: sq.SequenceSpec, f: ex.Node, x: float):
        self.seq_spec = seq_spec
        self.f = f
        self.x = float(x)
        self._seq = sq.make_sequence(seq_spec)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            self._fx = float(ex.evaluate(f, self.x))
        if not math.isfinite(self._fx):
            raise ValueError(f"f(x) at x = {self.x!r} is {self._fx}, not finite")
        self.precision_bits = 104  # double-double mantissa

    def fracs(self, indices: np.ndarray) -> np.ndarray:
        """a(n) * f(x) mod 1. An f(x) or a(n) that takes a factor or the
        product outside the split range of numerics.two_prod raises,
        naming x or n."""
        if abs(self._fx) > SPLIT_MAX:
            raise ValueError(f"f(x) at x = {self.x!r} is {self._fx}, outside the split range"
                             " 2**996")
        a = sq.finite_values(self._seq, indices)
        outside = np.abs(a) > SPLIT_MAX / max(1.0, abs(self._fx))
        if np.any(outside):
            k = int(np.argmax(outside))
            raise ValueError(f"sequence value at n = {int(indices[k])} is {float(a[k])}: a(n) * f(x)"
                             f" with f(x) = {self._fx} leaves the split range 2**996")
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
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN g(x) is refused
            self._gx = check_tower_base(ex.evaluate(g, self.x))
        self.precision_bits = TOWER_GUARD_BITS  # grows with n; updated as used

    def fracs(self, indices: np.ndarray) -> np.ndarray:
        """Non-negative integer exponents go through exact fixed point,
        any other exponent through mpmath, point by point."""
        b = sq.finite_values(self._b, indices)
        whole = (b >= 0) & (b == np.floor(b))
        # The largest number either route forms: g**b to ceil(b * log2 g)
        # integer bits in mpmath, the factor M**b with g = M / 2**k in fixed
        # point. Compared without forming the products; b <= 2**26 then fits
        # int64.
        bits_per_unit = np.where(whole, math.log2(self._gx.as_integer_ratio()[0]),
                                 math.log2(self._gx))
        over = b > sq.MAX_MATERIALIZE / bits_per_unit
        if np.any(over):
            k = int(np.argmax(over))
            raise ValueError(f"tower exponent at n = {int(indices[k])} is {float(b[k])}: g(x)**b"
                             f" needs numbers of more than 2**26 bits")
        out = np.empty(len(b))
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
    # an object array keeps each entry as given: a bool in a list stays a bool
    v = np.array([check_integer(c, "frequency entry") for c in np.ravel(np.array(v, object))],
                 dtype=np.int64)
    if len(v) != dim:
        raise ValueError(f"frequency vector has length {len(v)}, points have dimension {dim}")
    if not np.any(v):
        raise ValueError("frequency vector must be nonzero")
    return v


# Rows per character table: the table and buffers take about
# (dim * V + 4) * 2**20 bytes whatever N is.
_BLOCK = 1 << 16


def _fold_groups(block: np.ndarray):
    """The rows of a block grouped by which of their coordinates are equal,
    each group with its owner map: column c -> the first column equal to c
    in those rows. Folding per row keeps F_N free of the rows past N."""
    owner = np.tile(np.arange(block.shape[1]), (len(block), 1))
    for c in range(1, block.shape[1]):
        for d in reversed(range(c)):
            owner[block[:, d] == block[:, c], c] = d
    if np.all(owner == owner[0]):
        return [(slice(None), owner[0])]
    maps, group = np.unique(owner, axis=0, return_inverse=True)
    return [(np.flatnonzero(group == i), m) for i, m in enumerate(maps)]


def _terms(table: dict, w: np.ndarray, n: int, buffers: list):
    """e(w . x) for the rows of one fold group: the product of the table
    rows of w in column order, a row's conj for negative w_c, and exact ones
    for w = 0. Each product goes to a buffer that is neither of its
    operands: numpy may round an in-place complex product of one element
    unlike a longer one, and F_1 alone must equal the first entry of a
    longer series."""
    buffers = [b[:n] for b in buffers]

    def spare(*used):
        return next(b for b in buffers if all(b is not u for u in used))

    terms = None
    for c in np.flatnonzero(w):
        row = table[c, abs(int(w[c]))]
        if w[c] < 0:
            row = np.conj(row, out=spare(terms))
        terms = row if terms is None else np.multiply(terms, row, out=spare(terms, row))
    return 1.0 if terms is None else terms


def _weyl_means(points: np.ndarray, freqs: np.ndarray, grid: Sequence[int]) -> np.ndarray:
    """F_N(v) along the grid for each frequency v of freqs, as an array of
    shape (len(freqs), len(grid)) (see the module docstring). The points
    are tabulated _BLOCK rows at a time; each frequency's running sum is
    carried from block to block, so it is the one sequential sum of
    numerics.prefix_means over all rows."""
    if not np.all(np.isfinite(points)):
        raise ValueError("point coordinates must be finite")
    grid = check_prefix_lengths(grid, len(points))
    stop = int(grid.max(initial=0))
    means = np.empty((len(freqs), len(grid)), dtype=complex)
    carry = np.zeros(len(freqs), dtype=complex)
    buffers = [np.empty(min(stop, _BLOCK), dtype=complex) for _ in range(3)]
    sums = np.empty(min(stop, _BLOCK) + 1, dtype=complex)
    for lo in range(0, stop, _BLOCK):
        block = points[lo:min(stop, lo + _BLOCK)]
        groups = []
        for rows, owner in _fold_groups(block):
            w = np.zeros_like(freqs)
            for c, d in enumerate(owner):
                w[:, d] += freqs[:, c]
            x = block[rows]
            table = {}
            for c, j in {(c, abs(int(wk[c]))) for wk in w for c in np.flatnonzero(wk)}:
                t = j * x[:, c]
                table[c, j] = e_phase(t - np.floor(t))
            groups.append((rows, len(x), w, table))
        n = len(block)
        at = (grid > lo) & (grid <= lo + n)
        first = 0 if lo else 1  # a carry of 0.0 would turn a first -0.0 into 0.0
        for k in range(len(freqs)):
            for rows, size, w, table in groups:
                sums[1:n + 1][rows] = _terms(table, w[k], size, buffers)
            sums[0] = carry[k]
            np.cumsum(sums[first:n + 1], out=sums[first:n + 1])
            carry[k] = sums[n]
            means[k, at] = sums[grid[at] - lo] / grid[at]
    return means


def _one_frequency(points: np.ndarray, v: np.ndarray, grid: Sequence[int]) -> List[complex]:
    return [complex(f) for f in _weyl_means(points, v[None, :], grid)[0]]


def weyl_sum(gen: PointGenerator, v, N: int) -> complex:
    """(1/N) sum_{n<=N} e(v . x_n) with v a nonzero integer vector."""
    v = _check_frequency(v, gen.dim)
    return _one_frequency(gen.fracs(sq.index_range(N)), v, [N])[0]


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
    averages = _one_frequency(points, v, [w.size for w in views])
    return WeylSumSeries(v, [w.N for w in views], averages, [abs(f) for f in averages],
                         [w.size for w in views], [w.partial_inverse_sum for w in views],
                         gen.precision_bits, family)


def prefix_weyl_series(points: np.ndarray, v, grid: Sequence[int]) -> List[complex]:
    """F_N along prefixes {1..N} for each N in the grid, reusing one point
    array. Each F_N equals weyl_sum at that N bit for bit."""
    return _one_frequency(points, _check_frequency(v, points.shape[1]), grid)


FREQUENCY_BOX_CAP = 1 << 16  # frequencies in the scanned half box


def check_frequency_box(dim: int, V: int) -> int:
    """Refuse V < 1, or a box whose half, ((2V+1)^dim - 1)/2 frequencies,
    is more than FREQUENCY_BOX_CAP, by arithmetic alone; return that half."""
    if V < 1:
        raise ValueError(f"need frequency bound V >= 1, got V = {V}")
    half = ((2 * V + 1) ** dim - 1) // 2
    if half > FREQUENCY_BOX_CAP:
        raise ValueError(f"frequency box |v| <= {V} in {dim} dimensions has {half}"
                         f" frequencies up to sign, more than the cap of {FREQUENCY_BOX_CAP}")
    return half


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
    V = check_integer(V, "frequency bound V")
    half = check_frequency_box(points.shape[1], V)
    box = list(itertools.islice(frequency_box(points.shape[1], V), half))
    best = np.full(len(grid), -1.0)
    best_k = np.zeros(len(grid), dtype=np.int64)
    for k, f in enumerate(_weyl_means(points, np.array(box), grid)):
        # hypot rounds as abs(complex) does; np.abs of complex128 may not
        mags = np.hypot(f.real, f.imag)
        better = mags > best
        best[better] = mags[better]
        best_k[better] = k
    return [float(m) for m in best], [box[k] for k in best_k]


def max_weyl_sum(gen: PointGenerator, V: int, N: int) -> Tuple[float, np.ndarray]:
    """Maximum of |F_N| over the frequency box, as max_weyl_series at N."""
    mags, argmax = max_weyl_series(gen.fracs(sq.index_range(N)), V, [N])
    return mags[0], argmax[0]


# ---------------------------------------------------------------------------
# Sublacunary N grids and the averaging gap bound


def sublacunary_grid(eps_prime: float, r_max: int) -> List[int]:
    """N_r = ceil(exp(r**(1 - eps_prime))) for r = 1..r_max, deduplicated
    and increasing. Consecutive ratios tend to 1, which is what lets
    subsequence limits carry over to the full sequence."""
    if not (0.0 < eps_prime < 1.0):
        raise ValueError("eps_prime must lie in (0, 1)")
    if r_max < 2:
        raise ValueError("need r_max >= 2")
    return list(sublacunary_walk(eps_prime, r_max))


def sublacunary_walk(eps_prime: float, r_max: int):
    """Yield each new N_r of sublacunary_grid for r <= r_max, lazily. Where
    N_r climbs by less than one per step r, so that it hits every integer
    and steps repeat values, the walk jumps from each N to the first r that
    can give more, r = (ln N)**(1/(1 - eps_prime)), less 2 for rounding in
    the power; so it takes a few steps per entry, not one per r. An N_r
    past double range is refused."""
    p, r, last = 1.0 - eps_prime, 1, 0
    try:
        while r <= r_max:
            n = math.ceil(math.exp(r ** p))
            if n > last:
                yield n
                if n == last + 1:
                    r = max(r, int(math.log(n) ** (1.0 / p)) - 2)
                last = n
            r += 1
    except OverflowError:
        raise ValueError(f"sublacunary N_r = ceil(exp(r**(1 - {eps_prime!r}))) leaves double"
                         f" range at r = {r}") from None


def cesaro_gap(zs: Sequence[complex], N: int, M: int) -> Tuple[float, float]:
    """|A_N - A_M| for prefix averages of a unit-bounded complex sequence,
    together with the bound 2*(1 - N/M). The caller asserts lhs <= bound."""
    zs = np.asarray(zs, dtype=complex)
    if not (1 <= N < M <= len(zs)):
        raise ValueError("need 1 <= N < M <= len(zs)")
    if np.any(np.abs(zs[:M]) > 1.0 + 1e-12):
        raise ValueError("sequence values must have modulus at most 1")
    mean_n, mean_m = prefix_means(zs[:M], [N, M])
    lhs = abs(mean_n - mean_m)
    bound = 2.0 * (1.0 - N / M)
    return float(lhs), float(bound)
