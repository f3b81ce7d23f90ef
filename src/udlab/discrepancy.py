"""Star discrepancy D*_N: the sup over boxes anchored at the origin of
|empirical frequency - volume|.

Anchored boxes rather than all boxes: the two notions differ by at most a
factor 2^k. One dimension has an exact sorted formula. Every other value
compares cumulative bin counts with the corner volumes, with both the open
and the closed count at every corner, so atoms are handled (the sup over
half-open boxes is attained in the limit at one of the two). The exact
2-d kernel takes as corners the data's own distinct coordinates plus 1,
where the open count is the closed one shifted by one corner, and reports
error bound 0; the lattice kernel takes the m^k corners (i_1..i_k)/m and
reports the additive bound k/m. A prefix whose points occupy few bins is
tabulated on the blocks of corners between occupied bins, where counts
are constant; past that, open and closed counts are kept apart in float
arrays that run along the grid, already cumulated along the last axis:
each table adds the step function of the points since the last one, and
is summed along its first axis in permuted rows, where contiguous chunk
adds replace a scalar scan.
Non-finite points are refused.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .numerics import check_integer, fit_line
from .sequences import index_range

EXACT_KD_MAX_N = 4096
GRID_M_DEFAULT_2D = 256
GRID_M_DEFAULT_3D = 64
CORNER_BLOCK = 2 ** 17  # cells per row block of a corner count table
LATTICE_CORNER_CAP = 2 ** 24  # m^k corners per prefix: 4096^2, the largest exact 2-d table


def _check_unit(points: np.ndarray):
    if not np.all((points >= 0.0) & (points < 1.0)):  # NaN fails both
        raise ValueError("points must be finite and lie in [0, 1)")


def star_discrepancy_1d(points) -> float:
    """Exact D*_N from the sorted formula
    max_i max(i/N - x_(i), x_(i) - (i-1)/N)."""
    return star_discrepancy_kd(np.asarray(points, dtype=float)[:, None])[0]


def _exact_2d_dstar(closed_idx: np.ndarray, x: np.ndarray, y: np.ndarray, N: int) -> float:
    """Exact D* of N points in 2-d over the anchored boxes with corners in
    x by y, the points' distinct coordinates plus 1 (see _exact_dstar).

    Row j of closed_idx holds point j's index in x and in y; its open
    index on each axis is one more, so the open count table is the closed
    one shifted by one corner on each axis and is compared with the
    volumes one corner on (at a first corner the open count is 0). Counts
    cumulated along y are written as step functions (_along_rows) in
    blocks of rows of about CORNER_BLOCK / 4 cells, whose float tables
    stay in a 2 MB cache, and the rows are added down each block from the
    last row of the block before."""
    rest = len(y)
    rows = max(1, CORNER_BLOCK // 4 // rest)
    flat = np.sort(closed_idx[:, 0] * rest + closed_idx[:, 1])
    ends = np.searchsorted(flat, np.arange(0, len(x) + rows, rows) * rest)  # each block's points
    carry = np.zeros(rest, np.int32)  # counts <= EXACT_KD_MAX_N
    dstar = float(max(x[0], y[0]))
    for b, r0 in enumerate(range(0, len(x), rows)):
        n = min(rows, len(x) - r0)
        cum = _along_rows(flat[ends[b]:ends[b + 1]] - r0 * rest, n * rest, rest,
                          np.int32).reshape(n, rest)
        cum[0] += carry
        for r in range(1, n):
            np.add(cum[r - 1], cum[r], out=cum[r])
        carry, dev = cum[-1], cum / N
        vol = np.multiply.outer(x[r0:r0 + rows + 1], y)  # one row past the block
        shifted = vol[1:, 1:] - dev[:len(vol) - 1, :-1]  # empty past the last row
        dstar = max(dstar, float(np.max(dev - vol[:n])), float(np.max(shifted, initial=0.0)))
    return dstar


def _along_rows(cells: np.ndarray, size: int, width: int, dtype) -> np.ndarray:
    """The counts of the sorted flat cells, in 0..size - 1, cumulated along
    rows of width cells: a step function, written by one np.repeat. Its
    level steps up at each cell and drops to 0 at the end of each row that
    holds a cell; where a cell starts the next row, the drop comes first."""
    row_end = (cells // width + 1) * width
    bounds = np.empty(2 * len(cells) + 2, np.int64)  # where each level starts, then size
    bounds[0], bounds[1:-1:2], bounds[-1] = 0, cells, size
    bounds[2:-1:2] = np.minimum(np.append(cells[1:], size), row_end)  # a cell's level ends
    levels = np.zeros(len(bounds) - 1, dtype)
    levels[1::2] = np.arange(1, len(cells) + 1) - np.searchsorted(cells, row_end - width)
    return np.repeat(levels, np.diff(bounds))


def _cumulate(src: np.ndarray, out: np.ndarray, first: int):
    """out = src cumulated along its axes first, first + 1, ... (a copy of
    src when there are none)."""
    for axis in range(first, src.ndim):
        src = np.cumsum(src, axis=axis, out=out)
    if src is not out:
        out[...] = src


def _corner_dstar(closed_idx: np.ndarray, open_idx: np.ndarray,
                  corners: Sequence[np.ndarray], grid: Sequence[int]) -> List[float]:
    """D* of points[:N], for each N in the grid, over the anchored boxes
    with corners in the product of the per-axis coordinate lists `corners`.

    Row j of closed_idx and open_idx holds point j's bin on each axis: the
    point lies in the closed (open) box up to corner index i when every
    closed (open) bin is <= i; bins lie in 0..len(corners[a]) - 1 on axis
    a. Open counts never exceed closed ones, so D* =
    max(closed - volume, volume - open): the closed table is compared above
    the volumes and the open one below. While open and closed bins agree on
    every point of a prefix, the closed table serves as the open one.

    Counts change only at a bin some point occupies, closed or open, so on
    each axis the occupied bins (and bin 0) start blocks of corners on
    which every count is constant. Volumes grow along each axis and
    fl(C/N - v) never rises as v grows, so a block's extremes sit at its
    lower corner (closed) and its upper corner, the next occupied bin - 1
    (open). A prefix whose table of blocks has at most half the table's
    corners and at most CORNER_BLOCK cells is tabulated on those blocks
    alone; occupancy only grows, so the prefixes from the first one past
    that limit go to _running_dstar."""
    shape, bins = tuple(len(c) for c in corners), (closed_idx, open_idx)
    own_open = np.cumsum(np.any(bins[0] != bins[1], axis=1))[np.subtract(grid, 1)] > 0
    limit = min(CORNER_BLOCK, math.prod(shape) // 2)
    occupied = [np.arange(n) == 0 for n in shape]  # bin 0 starts the first block
    values, start = [], 0
    for g, N in enumerate(grid):
        for side in bins:
            for mask, new in zip(occupied, side[start:N].T):
                mask[new] = True
        start = N
        lows = [np.flatnonzero(mask) for mask in occupied]
        sizes = tuple(len(low) for low in lows)
        if math.prod(sizes) > limit:
            return values + _running_dstar(*bins, corners, grid[g:], own_open[g:])
        block = [np.cumsum(mask) - 1 for mask in occupied]  # bin -> block index
        highs = [np.append(low[1:], n) - 1 for low, n in zip(lows, shape)]
        lower, upper = (functools.reduce(np.multiply.outer,
                                         [c[i] for c, i in zip(corners, ends)])
                        for ends in (lows, highs))
        value = 0.0
        for side, idx in enumerate(bins[:1 + own_open[g]]):
            flat = np.ravel_multi_index(tuple(b[i] for b, i in zip(block, idx[:N].T)), sizes)
            table = np.bincount(flat, minlength=lower.size).reshape(sizes)
            for axis in range(len(sizes)):
                np.cumsum(table, axis=axis, out=table)
            dev = table / N
            if not side:
                value = max(value, float(np.max(dev - lower)))
            if side or not own_open[g]:
                value = max(value, float(np.max(upper - dev)))
        values.append(value)
    return values


def _running_dstar(closed_bins: np.ndarray, open_bins: np.ndarray,
                   corners: Sequence[np.ndarray], grid: Sequence[int],
                   own_open: np.ndarray) -> List[float]:
    """_corner_dstar over the whole table, with own_open[g] set when some
    point of prefix g has its open bin apart from its closed one.

    Tables are built in blocks of rows of about CORNER_BLOCK cells. Per
    block and side, a float array `run` of counts cumulated along the last
    axis runs along the grid: each table built adds the step function
    (_along_rows) of the points since that side's last table, so the open
    side adds nothing until its first. A histogram over axes 1..k-1 holds
    the rows before the block; cumulated, it is the carry. A table is run
    cumulated along the middle axes 1..k-2 (np.cumsum, at k >= 3), then
    along axis 0 in permuted rows: block row b * width + c is stored at
    row (c, b) of a (width, chunks) grid, so width - 1 adds of contiguous
    chunks (reading run directly at k <= 2), chunks - 1 adds that run the
    chunk totals (the carry first) and one broadcast add finish it, where
    np.cumsum along an axis would be a scalar loop over every cell.
    Padding rows repeat the block's last corner, so each equals a real
    cell. Counts are integers below 2^53: every sum is exact, and the max
    and min do not depend on the cells' order."""
    shape, last = tuple(len(c) for c in corners), np.subtract(grid, 1)
    rest = int(np.prod(shape[1:]))
    line = shape[-1] if len(shape) > 1 else 1  # cells along the last axis of a block row
    rows = max(1, CORNER_BLOCK // rest)
    bins = [np.divmod(np.ravel_multi_index(tuple(idx.T), shape), rest)  # row, cell in row
            for idx in (closed_bins, open_bins)]
    below, above = np.zeros(len(grid)), np.zeros(len(grid))
    for r0 in range(0, shape[0], rows):
        n = min(rows, shape[0] - r0)
        width = max(1, math.isqrt(n) // 2)
        chunks = -(-n // width)
        # storage row (c, b) holds block row b * width + c; padding repeats row n - 1
        order = np.minimum(np.add.outer(np.arange(width), np.arange(chunks) * width), n - 1)
        vol = functools.reduce(np.multiply.outer, [corners[0][r0 + order], *corners[1:]])
        table, offsets = np.empty(vol.shape), np.empty((chunks,) + shape[1:])
        totals = offsets.reshape(chunks, rest)  # a view, one row per chunk
        for side, (row, col) in enumerate(bins):
            inside, prior = (row >= r0) & (row < r0 + n), row < r0
            local = row[inside] - r0
            cells = ((local % width) * chunks + local // width) * rest + col[inside]
            before = col[prior]
            cut, cut_before = (np.append(0, np.cumsum(mask)[last]) for mask in (inside, prior))
            run, hist_before, done = np.zeros(vol.size), np.zeros(rest), 0
            for g, N in enumerate(grid):
                np.add.at(hist_before, before[cut_before[g]:cut_before[g + 1]], 1.0)
                if side and not own_open[g]:
                    continue
                if cut[g + 1] > done:
                    run += _along_rows(np.sort(cells[done:cut[g + 1]]), run.size, line, float)
                    done = cut[g + 1]
                src = run.reshape(vol.shape)
                for axis in range(2, table.ndim - 1):  # the middle axes, at k >= 3
                    src = np.cumsum(src, axis=axis, out=table)
                table[0] = src[0]
                for c in range(1, width):
                    np.add(table[c - 1], src[c], out=table[c])
                _cumulate(hist_before.reshape(offsets[:1].shape), offsets[:1], 1)
                offsets[1:] = table[-1, :-1]
                for b in range(1, chunks):
                    np.add(totals[b - 1], totals[b], out=totals[b])
                table += offsets
                np.divide(table, N, out=table)
                np.subtract(table, vol, out=table)
                if not side:
                    above[g] = max(above[g], float(np.max(table)))
                if side or not own_open[g]:
                    below[g] = max(below[g], -float(np.min(table)))
    return np.maximum(above, below).tolist()


def _exact_dstar(points: np.ndarray, grid: Sequence[int]) -> List[float]:
    """Exact D* of points[:N] for each N in the grid (see dstar_trend)."""
    points = np.asarray(points, dtype=float)
    k = points.shape[1]
    values = []
    for N in grid:
        if k == 1:
            x, i = np.sort(points[:N, 0]), np.arange(1, N + 1)
            values.append(float(np.max(np.maximum(i / N - x, x - (i - 1) / N))))
        else:
            prefix = points[:N].T
            corners = [np.unique(np.append(c, 1.0)) for c in prefix]
            closed = np.stack([np.searchsorted(u, c) for u, c in zip(corners, prefix)], 1)
            values.append(_exact_2d_dstar(closed, *corners, N))
    return values


def star_discrepancy_kd(points, method: str = "exact",
                        m: Optional[int] = None) -> Tuple[float, float]:
    """Star discrepancy of a k-dimensional point set and its additive error
    bound: dstar_trend at N = len(points)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) == 0:
        raise ValueError("need at least one point")
    rep = dstar_trend(points, [len(points)], method, m)
    return rep.values[0], rep.error_bounds[0]


def _check_grid(grid: Sequence[int]) -> List[int]:
    """The prefix lengths N of a grid as ints (see check_integer): nonempty,
    positive and strictly increasing."""
    grid = [check_integer(N, "prefix length") for N in grid]
    if not grid or grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be nonempty, positive and strictly increasing")
    return grid


def check_method(method: str, k: int, n_max: int, m: Optional[int] = None
                 ) -> Tuple[str, Optional[int]]:
    """The method ("exact" or "grid") and lattice size m that dstar_trend
    runs on k-dimensional points up to N = n_max, "auto" resolved and m
    defaulted. Refuses k < 1, an unknown method, exact with an m, with
    k > 2 or with a 2-d N past EXACT_KD_MAX_N, and a lattice with a
    non-integral m, m < 2 or more than LATTICE_CORNER_CAP corners, by
    arithmetic alone."""
    if k < 1:
        raise ValueError(f"points need at least one coordinate, got k = {k}")
    asked = method
    if method == "auto":
        method = "exact" if k == 1 else "grid"
    if method == "exact":
        if k > 2:
            raise ValueError(f"exact method supports k <= 2 only, got k = {k}")
        if k == 2 and n_max > EXACT_KD_MAX_N:
            raise ValueError(f"exact 2-d method capped at N = {EXACT_KD_MAX_N}, got N = {n_max}")
        if m is not None:
            raise ValueError(f"grid size m = {m} needs --method grid; the {asked} method"
                             f" is exact at k = {k} and takes no m")
        return method, None
    if method != "grid":
        raise ValueError(f"unknown method '{method}'")
    m = ((GRID_M_DEFAULT_2D if k <= 2 else GRID_M_DEFAULT_3D) if m is None
         else check_integer(m, "grid size m"))
    if m < 2:
        raise ValueError(f"need m >= 2 grid cells per axis, got m = {m}")
    if m ** k > LATTICE_CORNER_CAP:
        raise ValueError(f"lattice of m^k = {m}^{k} corners is more than the cap of"
                         f" {LATTICE_CORNER_CAP} = 4096^2")
    return method, m


@dataclass
class DiscrepancyReport:
    """D*_N over an N grid with per-point method and additive error bound."""

    dimension: int
    grid: List[int]
    values: List[float]
    error_bounds: List[float]
    methods: List[str]
    source: str
    trend_slope: float  # slope of log D* vs log N over the prefixes above their bound

    def final_value(self) -> float:
        return self.values[-1]

    def below_bound(self) -> List[bool]:
        """Per prefix: the value does not exceed its additive error bound, so
        the prefix is left out of the trend fit (flagged in the CSV)."""
        return [v <= e for v, e in zip(self.values, self.error_bounds)]


def dstar_trend(points: np.ndarray, grid: Sequence[int], method: str = "auto",
                m: Optional[int] = None, source: str = "") -> DiscrepancyReport:
    """D*_N of the prefixes points[:N] for each N in the grid, with the
    log-log trend slope as an equidistribution diagnostic. The slope is
    fitted by numerics.fit_line over the prefixes whose value exceeds its
    error bound; with fewer than MIN_FIT_CELLS of them it is NaN.

    method "exact" (k = 1; or k = 2 and N <= 4096) uses the sorted formula
    in one dimension; in two it runs the exact corner-count kernel on the
    critical corners, the prefix's distinct coordinates plus 1 on each
    axis. method "grid" runs the lattice kernel on the m^k corners (a
    prefix whose points occupy few bins on the blocks between them, with
    the same values); a value never exceeds the exact one and the error
    bound k/m is additive. "auto" is
    "exact" in one dimension and "grid" elsewhere.
    """
    points = np.asarray(points)
    if points.ndim != 2:
        raise ValueError(f"points must be an (N, k) array, got shape {points.shape}")
    grid = _check_grid(grid)
    if grid[-1] > len(points):
        raise ValueError(f"grid reaches N = {grid[-1]} but only {len(points)} points given")
    k = points.shape[1]
    method, m = check_method(method, k, grid[-1], m)
    _check_unit(points[:grid[-1]])
    if method == "exact":
        values = _exact_dstar(points, grid)
        err, label = 0.0, "exact-1d" if k == 1 else "exact-kd"
    else:
        scaled = points[:grid[-1]] * m
        # a closed bin -1 (x = 0) is bin 0; m x rounds below m for x < 1
        values = _corner_dstar(np.maximum(np.ceil(scaled) - 1, 0).astype(np.int64),
                               np.floor(scaled).astype(np.int64),
                               [np.arange(1, m + 1) / m] * k, grid)
        err, label = k / m, f"grid({m})"
    rep = DiscrepancyReport(k, grid, values, [err] * len(grid), [label] * len(grid),
                            source, math.nan)
    above = ~np.array(rep.below_bound())
    rep.trend_slope = fit_line(np.log(grid)[above], np.log(np.array(values)[above]))[0]
    return rep


def ud_trend(gen, grid: Sequence[int], method: str = "auto",
             m: Optional[int] = None) -> DiscrepancyReport:
    """D*_N along prefixes of a point generator; see dstar_trend. The
    grid and method are checked before any point is made."""
    grid = _check_grid(grid)
    check_method(method, gen.dim, grid[-1], m)
    points = gen.fracs(index_range(grid[-1]))
    return dstar_trend(points, grid, method, m, gen.describe())
