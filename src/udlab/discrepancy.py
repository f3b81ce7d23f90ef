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
    if np.any(points < 0.0) or np.any(points >= 1.0):
        raise ValueError("points must lie in [0, 1)")


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


def _grid_counts(points: np.ndarray, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cumulative open/closed counts at the lattice corners (i_1..i_k)/m,
    i in 1..m. Index j of the histogram axis collects points whose
    coordinate lies in bin j."""
    n, k = points.shape
    scaled = points * m
    open_bins = np.minimum(np.floor(scaled), m - 1).astype(np.int64)  # counted open above this corner
    closed_bins = np.minimum(np.ceil(scaled), m).astype(np.int64)     # counted closed from this corner on
    shape = (m + 1,) * k
    open_hist, closed_hist = (
        np.bincount(np.ravel_multi_index(tuple(bins.T), shape),
                    minlength=(m + 1) ** k).reshape(shape)
        for bins in (open_bins, closed_bins))
    for axis in range(k):
        open_hist = np.cumsum(open_hist, axis=axis)
        closed_hist = np.cumsum(closed_hist, axis=axis)
    # corner (i_1..i_k)/m, i >= 1: open count excludes bin i and beyond
    open_cum = open_hist[(slice(0, m),) * k]
    closed_cum = closed_hist[(slice(1, m + 1),) * k]
    return open_cum, closed_cum


def _grid_value(points: np.ndarray, m: int) -> float:
    n, k = points.shape
    open_cum, closed_cum = _grid_counts(points, m)
    axes = np.arange(1, m + 1) / m
    vol = functools.reduce(np.multiply.outer, [axes] * k)
    return float(max(np.max(closed_cum / n - vol), np.max(vol - open_cum / n)))


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
        if m is None:
            m = GRID_M_DEFAULT_2D if k <= 2 else GRID_M_DEFAULT_3D
        if m < 2:
            raise ValueError("need m >= 2 grid cells per axis")
        return _grid_value(points, m), k / m
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
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be nonempty and strictly increasing")
    if grid[-1] > len(points):
        raise ValueError(f"grid reaches N = {grid[-1]} but only {len(points)} points given")
    k = points.shape[1]
    values, errs, methods = [], [], []
    for N in grid:
        prefix = points[:N]
        if method == "exact" or (method == "auto" and k == 1):
            values.append(star_discrepancy_kd(prefix, "exact")[0])
            errs.append(0.0)
            methods.append("exact-1d" if k == 1 else "exact-kd")
        else:
            mm = m or (GRID_M_DEFAULT_2D if k <= 2 else GRID_M_DEFAULT_3D)
            v, e = star_discrepancy_kd(prefix, "grid", mm)
            values.append(v)
            errs.append(e)
            methods.append(f"grid({mm})")
    slope = float(np.polyfit(np.log(grid), np.log(np.maximum(values, 1e-300)), 1)[0]) \
        if len(grid) >= 2 else 0.0
    return DiscrepancyReport(k, grid, values, errs, methods, source, slope)


def ud_trend(gen, grid: Sequence[int], method: str = "auto",
             m: Optional[int] = None) -> DiscrepancyReport:
    """D*_N along prefixes of a point generator; see dstar_trend."""
    points = gen.fracs(np.arange(1, max(grid, default=0) + 1))
    return dstar_trend(points, grid, method, m, gen.describe())
