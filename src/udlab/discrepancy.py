"""Star discrepancy D*_N: the sup over boxes anchored at the origin of
|empirical frequency - volume|.

Anchored boxes rather than all boxes: the two notions differ by at most a
factor 2^k. One dimension has an exact sorted formula. Every other value
comes from one corner-count kernel, which compares the closed and the
open count below each corner with its volume, so atoms are handled (the
sup over half-open boxes is attained in the limit at one of the two).
Exact 2-d D* takes as corners the prefix's distinct coordinates plus 1,
with error bound 0; the lattice takes the m^k corners (i_1..i_k)/m, with
the additive bound k/m. Where every point's open bin is its closed bin
+ 1, as on exact corners, the open count is the closed one a corner
back, and one table serves both. Non-finite points are refused.
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
CORNER_BLOCK = 2 ** 16  # cells per row block of a corner count table
PERMUTED_ROWS = 64  # row blocks this tall (at least 4) are scanned in permuted rows
LATTICE_CORNER_CAP = 2 ** 24  # m^k corners per prefix: 4096^2, the largest exact 2-d table


def _check_unit(points: np.ndarray):
    if not np.all((points >= 0.0) & (points < 1.0)):  # NaN fails both
        raise ValueError("points must be finite and lie in [0, 1)")


def star_discrepancy_1d(points) -> float:
    """Exact D*_N from the sorted formula
    max_i max(i/N - x_(i), x_(i) - (i-1)/N)."""
    return star_discrepancy_kd(np.asarray(points, dtype=float)[:, None])[0]


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


def _corner_dstar(closed_idx: np.ndarray, open_idx: np.ndarray,
                  corners: Sequence[np.ndarray], grid: Sequence[int]) -> List[float]:
    """D* of points[:N], for each N in the grid, over the anchored boxes
    with corners in the product of the per-axis coordinate lists `corners`.

    Row j of closed_idx and open_idx holds point j's bin on each axis: the
    point lies in the closed (open) box up to corner index i when every
    closed (open) bin is <= i; bins lie in 0..len(corners[a]) - 1 on axis
    a. Open counts never exceed closed ones, so D* = max(closed - volume,
    volume - open), the closed table compared above the volumes and the
    open one below; the closed one serves as both while the bins agree on
    every point, and a corner back when every open bin is the closed + 1.

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

    Tables are built in blocks of equal rows, about CORNER_BLOCK cells (the
    last block repeats the table's last row), of counts of the smallest
    signed type holding N, whose sums are exact. Per block and side, `run`
    holds counts cumulated along the last axis: each table adds the step
    function (_along_rows) of the points since that side's last table,
    those of earlier blocks in its first row, over the carry, the block
    before's last row at the side's first table. A table is then
    cumulated along the middle axes (np.cumsum, k >= 3) and along axis 0,
    row by row or, in blocks of PERMUTED_ROWS rows or more, in permuted
    rows: block row b * width + c at (c, b) of a (width, chunks) grid,
    where one reduction and chunks - 1 adds give the chunk offsets and
    width adds of contiguous chunks the table (np.cumsum along an axis is
    a scalar loop).

    When every open bin is the closed bin + 1 on every axis, the open count
    at a corner is the closed count one corner back, 0 at a first corner.
    Only the closed table is then built and compared below `nxt`, the
    volumes one corner on (each block's volume rows run one row past it);
    the first corners add max_a corners[a][0], as every corner list ends
    at 1. Compares with nxt 0, past an axis's last corner, are left out:
    like the last row's against its own volume row, they cannot exceed
    the top corner's 1 - 1 = 0."""
    shape, last = tuple(len(c) for c in corners), np.subtract(grid, 1)
    shifted = np.array_equal(open_bins, closed_bins + 1)
    count = np.min_scalar_type(-grid[-1] - 1)  # signed, so it holds N too
    rest, line = math.prod(shape[1:]), (shape[-1] if len(shape) > 1 else 1)
    rows = -(-shape[0] // -(-shape[0] * rest // CORNER_BLOCK))
    width = math.isqrt(rows) // 2 if rows >= PERMUTED_ROWS else rows
    chunks = -(-rows // width)
    rows, reach = width * chunks, np.arange(-1, len(grid))
    blocks = -(-shape[0] // rows)
    # storage row (c, b) of block i is row i * rows + b * width + c; (width, b) is one on
    starts = corners[0][np.minimum(np.add.outer(np.arange(blocks) * rows, np.add.outer(
        np.arange(width + 1), np.arange(chunks) * width)), shape[0] - 1)]
    one_on, one_back = ((Ellipsis,) + (s,) * (len(shape) - 1)
                        for s in (slice(1, None), slice(None, -1)))
    sides = []
    for idx in (closed_bins, open_bins)[:2 - shifted]:
        row, col = np.divmod(np.ravel_multi_index(tuple(idx.T), shape), rest)
        block, local = np.divmod(row, rows)
        window = np.searchsorted(last, np.arange(len(row)))  # the first prefix it is in
        by_block = np.argsort(block, kind="stable")  # in prefix order within a block
        by_window = np.argsort(window * blocks + block, kind="stable")
        cells = ((local % width) * chunks + local // width) * rest + col
        sides.append(((block * len(grid) + window)[by_block], cells[by_block],
                      (window * blocks + block)[by_window], col[by_window],
                      np.zeros(shape[1:], count)))
    value = np.full(len(grid), max(c[0] for c in corners) if shifted else 0.0)
    volumes = np.empty((width + 1, chunks) + shape[1:])
    table, offsets = (np.empty(n + shape[1:], count) for n in ((width, chunks), (chunks,)))
    totals = offsets.reshape(chunks, rest)  # a view, one row per chunk
    dev = np.empty(table.shape)
    spare = np.empty(table.shape) if shifted else dev
    for b in range(blocks):
        ext = functools.reduce(np.multiply.outer, [starts[b], *corners[1:-1]])
        if len(shape) > 1:
            ext = np.multiply.outer(ext, corners[-1], out=volumes)
        vol, nxt = ext[:width], ext[1:][one_on]
        for side, (block_key, cells, window_key, window_col, carry) in enumerate(sides):
            ends = np.searchsorted(block_key, b * len(grid) + reach, "right")
            run, base = None, carry.copy()
            for g, N in enumerate(grid):
                if side and not own_open[g]:
                    continue
                fresh, new = run is None, cells[ends[0 if run is None else g]:ends[g + 1]]
                if not fresh:  # prefix g's points in the blocks before count in the first row
                    lo, hi = np.searchsorted(window_key, [g * blocks, g * blocks + b])
                    new = np.append(new, window_col[lo:hi])
                new = _along_rows(np.sort(new), rows * rest, line, count)
                run = new if fresh else np.add(run, new, out=run)
                src = run.reshape(table.shape)
                for axis in range(2, table.ndim - 1):  # the middle axes, at k >= 3
                    src = np.cumsum(src, axis=axis, out=table)
                offsets[0] = base
                np.add.reduce(src[:, :-1], axis=0, out=offsets[1:])
                for c in range(1, chunks):
                    np.add(totals[c - 1], totals[c], out=totals[c])
                np.add(src[0], offsets, out=table[0])
                for c in range(1, width):
                    np.add(table[c - 1], src[c], out=table[c])
                if fresh:  # the block's last row: the carry of the next block
                    carry[...] = table[-1, -1]
                np.divide(table, N, out=dev)
                np.subtract(dev, vol, out=spare)
                if not side:
                    value[g] = max(value[g], float(np.max(spare)))
                if side or not (own_open[g] or shifted):
                    value[g] = max(value[g], -float(np.min(spare)))
                if shifted:
                    back = dev[one_back]
                    value[g] = max(value[g], float(np.max(np.subtract(nxt, back, out=back))))
    return value.tolist()


def _exact_dstar(points: np.ndarray, grid: Sequence[int]) -> List[float]:
    """Exact D* of points[:N] for each N in the grid (see dstar_trend)."""
    values = []
    for N in grid:
        prefix = np.asarray(points[:N], dtype=float).T
        if len(prefix) == 1:
            x, i = np.sort(prefix[0]), np.arange(1, N + 1)
            values.append(float(np.max(np.maximum(i / N - x, x - (i - 1) / N))))
        else:
            corners = [np.unique(np.append(c, 1.0)) for c in prefix]
            closed = np.stack([np.searchsorted(u, c) for u, c in zip(corners, prefix)], 1)
            values.append(_corner_dstar(closed, closed + 1, corners, [N])[0])
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
    in one dimension; in two, the corner-count kernel (_corner_dstar) on
    the critical corners, the prefix's distinct coordinates plus 1, where
    every open bin is the closed one + 1. method "grid" runs the same
    kernel on the m^k lattice corners; a value never exceeds the exact one
    and the error bound k/m is additive. "auto" is "exact" in one
    dimension and "grid" elsewhere.
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
