"""Star discrepancy D*_N: the sup over boxes anchored at the origin of
|empirical frequency - volume|.

Anchored boxes rather than all boxes: the two notions differ by at most a
factor 2^k, and the anchored version admits an exact sorted formula in
one dimension and an exact critical-corner enumeration in two. Exact
methods report error bound 0; the lattice method on m^k thresholds
reports the additive bound k/m.

Atoms are handled by evaluating both the open and the closed count at
every critical corner; the sup over half-open boxes is attained in the
limit at one of the two.

Lattice values along a grid of prefixes come from running histograms, to
which each grid point adds only the points since the previous one; a
single value is the one-point-grid case. Non-finite points are refused.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

EXACT_KD_MAX_N = 4096
GRID_M_DEFAULT_2D = 256
GRID_M_DEFAULT_3D = 64


def _check_unit(points: np.ndarray):
    if not np.all((points >= 0.0) & (points < 1.0)):  # NaN fails both
        raise ValueError("points must be finite and lie in [0, 1)")


def star_discrepancy_1d(points) -> float:
    """Exact D*_N from the sorted formula
    max_i max(i/N - x_(i), x_(i) - (i-1)/N)."""
    x = np.sort(np.asarray(points, dtype=float))
    _check_unit(x)
    n = len(x)
    if n == 0:
        raise ValueError("need at least one point")
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - x, x - (i - 1) / n)))


def _exact_2d(points: np.ndarray) -> float:
    n = len(points)
    order = np.argsort(points[:, 0], kind="stable")
    px = points[order, 0]
    py = points[order, 1]
    corners_a = np.unique(np.concatenate([points[:, 0], [1.0]]))
    corners_b = np.unique(np.concatenate([points[:, 1], [1.0]]))
    best = 0.0
    for a in corners_a:
        i_closed = int(np.searchsorted(px, a, side="right"))
        i_open = int(np.searchsorted(px, a, side="left"))
        ys_closed = np.sort(py[:i_closed])
        ys_open = ys_closed[:i_open] if i_open == i_closed else np.sort(py[:i_open])
        closed = np.searchsorted(ys_closed, corners_b, side="right") / n
        opened = np.searchsorted(ys_open, corners_b, side="left") / n
        vol = a * corners_b
        best = max(best, float(np.max(closed - vol)), float(np.max(vol - opened)))
    return best


def _lattice_dstar(points: np.ndarray, grid: Sequence[int], m: int) -> List[float]:
    """Lattice D* of points[:N] at the corners (i_1..i_k)/m, i in 1..m, for
    each N in the grid, from running histograms of the open bins floor(m x)
    and the closed bins ceil(m x) - 1. The two agree off the lattice lines,
    so closed counts are summed only once some point lies on a line."""
    k = points.shape[1]
    shape = (m,) * k
    scaled = points[:grid[-1]] * m
    open_idx, closed_idx = (
        np.ravel_multi_index(tuple(bins.astype(np.int64).T), shape, mode="clip")
        for bins in (np.floor(scaled), np.ceil(scaled) - 1))
    on_line = np.cumsum(open_idx != closed_idx) > 0
    vol = functools.reduce(np.multiply.outer, [np.arange(1, m + 1) / m] * k)
    opened, closed = np.zeros(m ** k, np.int64), np.zeros(m ** k, np.int64)
    cum, dev = np.empty(shape, np.int64), np.empty(shape)

    def deviation(counts, N):  # cumulative count / N - volume at each corner
        np.cumsum(counts.reshape(shape), axis=0, out=cum)
        for axis in range(1, k):
            np.cumsum(cum, axis=axis, out=cum)
        return np.subtract(np.divide(cum, N, out=dev), vol, out=dev)

    values, start = [], 0
    for N in grid:
        np.add.at(opened, open_idx[start:N], 1)
        np.add.at(closed, closed_idx[start:N], 1)
        start = N
        below = -float(np.min(deviation(opened, N)))
        above = float(np.max(deviation(closed, N) if on_line[N - 1] else dev))
        values.append(max(above, below))
    return values


def star_discrepancy_kd(points, method: str = "exact",
                        m: Optional[int] = None) -> Tuple[float, float]:
    """Star discrepancy of a k-dimensional point set.

    method "exact" (k = 1; or k = 2 and N <= 4096) uses the sorted formula
    in one dimension and in two enumerates critical anchored boxes
    whose corners come from the point coordinates plus 1, with both open
    and closed counts. method "grid" evaluates the defect on the m^k corner
    lattice; the returned value never exceeds the exact one and the error
    bound k/m is additive.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _check_unit(points)
    n, k = points.shape
    if n == 0:
        raise ValueError("need at least one point")
    if method == "exact":
        if k > 2:
            raise ValueError("exact method supports k <= 2 only")
        if k == 2 and n > EXACT_KD_MAX_N:
            raise ValueError(f"exact 2-d method capped at N = {EXACT_KD_MAX_N}")
        value = star_discrepancy_1d(points[:, 0]) if k == 1 else _exact_2d(points)
        return value, 0.0
    if method == "grid":
        rep = dstar_trend(points, [n], "grid", m)
        return rep.values[0], rep.error_bounds[0]
    raise ValueError(f"unknown method '{method}'")


@dataclass
class DiscrepancyReport:
    """D*_N over an N grid with per-point method and additive error bound."""

    dimension: int
    grid: List[int]
    values: List[float]
    error_bounds: List[float]
    methods: List[str]
    source: str
    trend_slope: float  # least-squares slope of log D* vs log N

    def final_value(self) -> float:
        return self.values[-1]


def dstar_trend(points: np.ndarray, grid: Sequence[int], method: str = "auto",
                m: Optional[int] = None, source: str = "") -> DiscrepancyReport:
    """D*_N of the prefixes points[:N] for each N in the grid, with the
    log-log trend slope as an equidistribution diagnostic.

    method "auto" uses the exact formula in one dimension and the corner
    lattice elsewhere.
    """
    grid = [int(N) for N in grid]
    if not grid or grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be nonempty, positive and strictly increasing")
    if grid[-1] > len(points):
        raise ValueError(f"grid reaches N = {grid[-1]} but only {len(points)} points given")
    k = points.shape[1]
    if method == "exact" or (method == "auto" and k == 1):
        values = [star_discrepancy_kd(points[:N], "exact")[0] for N in grid]
        err, label = 0.0, "exact-1d" if k == 1 else "exact-kd"
    elif method in ("auto", "grid"):
        _check_unit(points[:grid[-1]])
        m = (GRID_M_DEFAULT_2D if k <= 2 else GRID_M_DEFAULT_3D) if m is None else m
        if m < 2:
            raise ValueError("need m >= 2 grid cells per axis")
        values, err, label = _lattice_dstar(points, grid, m), k / m, f"grid({m})"
    else:
        raise ValueError(f"unknown method '{method}'")
    slope = float(np.polyfit(np.log(grid), np.log(np.maximum(values, 1e-300)), 1)[0]) \
        if len(grid) >= 2 else 0.0
    return DiscrepancyReport(k, grid, values, [err] * len(grid), [label] * len(grid),
                             source, slope)


def ud_trend(gen, grid: Sequence[int], method: str = "auto",
             m: Optional[int] = None) -> DiscrepancyReport:
    """D*_N along prefixes of a point generator; see dstar_trend."""
    points = gen.fracs(np.arange(1, max(grid, default=0) + 1))
    return dstar_trend(points, grid, method, m, gen.describe())
