import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udlab import cli
from udlab import discrepancy as dc
from udlab import expr as ex
from udlab import lab
from udlab import sequences as sq
from udlab import weyl as wy
from udlab.discrepancy import (dstar_trend, star_discrepancy_1d,
                               star_discrepancy_kd, ud_trend)

PHI = (1 + math.sqrt(5)) / 2
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# coordinates in [0, 1), half of them atoms on the 1/7 grid, so that point
# sets carry ties along both axes and repeated points
COORD = st.one_of(st.integers(0, 6).map(lambda i: i / 7),
                  st.floats(0.0, 1.0, exclude_max=True))
POINTS_2D = st.lists(st.tuples(COORD, COORD), min_size=1, max_size=40).map(np.array)


def brute_force_2d(points, extra_resolution=64):
    """Independent oracle: scan anchored boxes over all corners drawn from
    the point coordinates plus a refinement grid, with open and closed
    counts from direct comparisons: entry (i, j) of the integer product of
    the corner-by-point indicator matrices counts the points below corner
    (cands[i], cands[j])."""
    points = np.asarray(points)
    n = len(points)
    cands = np.unique(np.concatenate(
        [points[:, 0], points[:, 1], np.linspace(0, 1, extra_resolution), [1.0]]))
    x, y = points[None, :, 0], points[None, :, 1]
    c = cands[:, None]
    closed = ((x <= c).astype(np.int64) @ (y <= c).astype(np.int64).T) / n
    opened = ((x < c).astype(np.int64) @ (y < c).astype(np.int64).T) / n
    volume = cands[:, None] * cands[None, :]
    return max(0.0, float(np.max(closed - volume)), float(np.max(volume - opened)))


def lattice_oracle(points, m):
    """Independent lattice oracle: at every corner (i_1..i_k)/m count the
    points with ceil(m x) <= i (closed) and floor(m x) < i (open) in every
    coordinate by direct comparison."""
    n, k = points.shape
    scaled = points * m
    corners = np.arange(1, m + 1)
    closed = [(np.ceil(scaled[:, j, None]) <= corners).astype(np.int64) for j in range(k)]
    opened = [(np.floor(scaled[:, j, None]) < corners).astype(np.int64) for j in range(k)]
    spec = ",".join("n" + "abcd"[j] for j in range(k)) + "->" + "abcd"[:k]
    vol = np.ones((m,) * k)
    for j in range(k):
        vol = vol * (corners / m).reshape((m,) + (1,) * (k - 1 - j))
    return max(np.max(np.einsum(spec, *closed) / n - vol),
               np.max(vol - np.einsum(spec, *opened) / n))


def running_kernel_starts(monkeypatch):
    """The first prefix of each _running_dstar call, appended as it runs."""
    starts = []
    running = dc._running_dstar

    def spy(*args):
        starts.append(args[3][0])
        return running(*args)
    monkeypatch.setattr(dc, "_running_dstar", spy)
    return starts


@st.composite
def row_cells(draw):
    """(sorted flat cells, size, width): rows of up to 9 cells, with the
    first and last cell of every row drawn often, and repeated cells."""
    rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    ends = sorted({r * width for r in range(rows)} | {r * width + width - 1 for r in range(rows)})
    cells = draw(st.lists(st.one_of(st.integers(0, rows * width - 1), st.sampled_from(ends)),
                          max_size=3 * rows * width))
    return np.sort(np.array(cells, dtype=np.int64)), rows * width, width


class TestAlongRows:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(row_cells(), st.sampled_from([float, np.int32]))
    @example((np.zeros(0, np.int64), 6, 3), float)  # no cells
    @example((np.array([0, 0, 2, 3]), 4, 1), np.int32)  # width 1
    @example((np.array([1, 1, 4]), 5, 5), float)  # a single row
    @example((np.array([2, 3, 3, 5, 6, 8]), 9, 3), np.int32)  # both ends of neighbouring rows
    def test_equals_cumsum_of_bincount(self, case, dtype):
        cells, size, width = case
        got = dc._along_rows(cells, size, width, dtype)
        assert got.dtype == dtype and got.shape == (size,)
        expected = np.cumsum(np.bincount(cells, minlength=size).reshape(-1, width), axis=1)
        assert np.array_equal(got.reshape(-1, width), expected)


class TestOneDimensional:
    def test_single_point(self):
        assert star_discrepancy_1d([0.5]) == 0.5

    def test_midpoint_lattice(self):
        n = 4
        pts = [(2 * i - 1) / (2 * n) for i in range(1, n + 1)]
        assert star_discrepancy_1d(pts) == 1 / (2 * n)

    def test_total_clustering(self):
        assert star_discrepancy_1d([0.0, 0.0, 0.0]) == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        pts = rng.random(64)
        assert star_discrepancy_1d(pts) == star_discrepancy_1d(pts[rng.permutation(64)])

    def test_range_validation(self):
        with pytest.raises(ValueError):
            star_discrepancy_1d([0.5, 1.0])
        with pytest.raises(ValueError):
            star_discrepancy_1d([-0.1])


class TestTwoDimensional:
    def test_single_point_hand_value(self):
        value, err = star_discrepancy_kd([[0.5, 0.5]], "exact")
        assert value == 0.75 and err == 0.0

    def test_exact_equals_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            pts = rng.random((int(rng.integers(4, 65)), 2))
            exact, _ = star_discrepancy_kd(pts, "exact")
            assert exact == pytest.approx(brute_force_2d(pts), abs=1e-12)

    def test_exact_with_duplicate_points(self):
        pts = np.array([[0.25, 0.25]] * 3 + [[0.7, 0.7]])
        exact, _ = star_discrepancy_kd(pts, "exact")
        assert exact == pytest.approx(brute_force_2d(pts), abs=1e-12)

    def test_grid_sandwich(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            pts = rng.random((int(rng.integers(16, 200)), 2))
            exact, _ = star_discrepancy_kd(pts, "exact")
            for m in (32, 128, 256):
                g, err = star_discrepancy_kd(pts, "grid", m)
                assert err == 2 / m
                assert exact - err - 1e-12 <= g <= exact + 1e-12

    def test_product_lattice_order_one_over_m(self):
        # midpoint product lattice, m = 10: exact D* = 0.0975 (frozen from
        # the brute-force oracle; the scale is 1/m)
        m = 10
        lat = np.array([[(i + 0.5) / m, (j + 0.5) / m]
                        for i in range(m) for j in range(m)])
        exact, _ = star_discrepancy_kd(lat, "exact")
        assert exact == pytest.approx(0.0975, abs=1e-12)
        g, err = star_discrepancy_kd(lat, "grid", 1000)
        assert exact - err - 1e-12 <= g <= exact + 1e-12

    def test_one_dimensional_consistency_is_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pts = rng.random(int(rng.integers(1, 250)))
            assert star_discrepancy_kd(pts.reshape(-1, 1), "exact")[0] == \
                star_discrepancy_1d(pts)
        # past the 2-d size cap: the O(N log N) sorted formula has none
        pts = rng.random(5000)
        assert star_discrepancy_kd(pts.reshape(-1, 1), "exact") == \
            (star_discrepancy_1d(pts), 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(POINTS_2D)
    def test_exact_equals_brute_force_with_atoms(self, pts):
        exact, _ = star_discrepancy_kd(pts, "exact")
        assert exact == pytest.approx(brute_force_2d(pts), abs=1e-12)

    @pytest.mark.parametrize("block", [1, 16, dc.CORNER_BLOCK])
    def test_exact_on_eighths_equals_brute_force(self, monkeypatch, block):
        # coordinates k/8 put ties on both axes and repeated points in every
        # prefix; small blocks carry the shifted open table's first row
        # across row blocks
        monkeypatch.setattr(dc, "CORNER_BLOCK", block)
        rng = np.random.default_rng(13)
        for n in (1, 2, 7, 40, 300):
            pts = rng.integers(0, 8, (n, 2)) / 8
            exact, _ = star_discrepancy_kd(pts, "exact")
            assert exact == pytest.approx(brute_force_2d(pts), abs=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 300), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1, 16, dc.CORNER_BLOCK]), st.sampled_from([2, 5, 16, 64]))
    def test_repeated_x_equals_brute_force_and_lattice(self, n, seed, block, m):
        # x on the 1/4 grid: each x corner holds many points; y half on
        # the 1/7 grid, and about a fifth of the points repeat the first
        rng = np.random.default_rng(seed)
        y = np.where(rng.random(n) < 0.5, rng.integers(0, 7, n) / 7, rng.random(n))
        pts = np.stack([rng.integers(0, 4, n) / 4, y], 1)
        pts[rng.random(n) < 0.2] = pts[0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dc, "CORNER_BLOCK", block)
            exact, _ = star_discrepancy_kd(pts, "exact")
        assert exact == pytest.approx(brute_force_2d(pts), abs=1e-12)
        g, err = star_discrepancy_kd(pts, "grid", m)
        assert g - 1e-12 <= exact <= g + err + 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(POINTS_2D, st.sampled_from([2, 5, 7, 16, 64]))
    def test_lattice_sandwich_with_atoms(self, pts, m):
        exact, _ = star_discrepancy_kd(pts, "exact")
        g, err = star_discrepancy_kd(pts, "grid", m)
        assert err == 2 / m
        assert g - 1e-12 <= exact <= g + err + 1e-12

    def test_analysis_curve_trend_pinned(self):
        # (0.3 n, 0.3 n^2): the exact trend, frozen bit for bit; at N = 1024
        # and 4096 the count tables take 15 and 231 row blocks
        gen = wy.PointGenerator([wy.ProductCoord(sq.identity(), ex.parse_expr("x"), 0.3),
                                 wy.ProductCoord(sq.identity(), ex.parse_expr("x^2"), 0.3)])
        rep = ud_trend(gen, [16, 64, 256, 1024, 4096], "exact")
        assert rep.values == [0.22000000000000008, 0.12187499999999918,
                              0.11031249999999682, 0.10689843749998651,
                              0.10596093749994973]
        assert rep.methods == ["exact-kd"] * 5

    def test_method_caps(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            star_discrepancy_kd(rng.random((10, 3)), "exact")
        with pytest.raises(ValueError):
            star_discrepancy_kd(rng.random((5000, 2)), "exact")

    @pytest.mark.parametrize("method, dim, top, m, message", [
        ("grid", 2, 100, 20000, r"m\^k = 20000\^2 corners is more than the cap of 16777216"),
        ("grid", 3, 100, 3000, r"m\^k = 3000\^3 corners is more than the cap"),
        ("grid", 2, 100, 4097, r"m\^k = 4097\^2 corners"),
        ("grid", 3, 100, 257, r"m\^k = 257\^3 corners"),
        ("grid", 2, 100, 1, "need m >= 2 grid cells per axis, got m = 1"),
        ("bogus", 2, 100, None, "unknown method 'bogus'"),
        ("exact", 3, 100, None, "exact method supports k <= 2 only, got k = 3"),
        ("exact", 2, 5000, None, "exact 2-d method capped at N = 4096, got N = 5000"),
        # m was ignored: these printed exact rows and exited 0
        ("exact", 2, 100, 64, "grid size m = 64 needs --method grid; the exact method is"
                              " exact at k = 2 and takes no m"),
        ("auto", 1, 100, 64, "grid size m = 64 needs --method grid; the auto method is"
                             " exact at k = 1 and takes no m"),
    ])
    def test_method_refused_before_any_point(self, method, dim, top, m, message, monkeypatch):
        # the lattice builds m^k corners per prefix: --m 20000 at k = 2 was
        # still running after 20 s, --m 3000 at k = 3 after 10 s
        gen = wy.PointGenerator([wy.ProductCoord(sq.identity(), ex.parse_expr("x"), 0.3)] * dim)

        def no_points(self, indices):
            raise AssertionError("points made before the method was checked")
        monkeypatch.setattr(wy.PointGenerator, "fracs", no_points)
        with pytest.raises(ValueError, match=message):
            ud_trend(gen, [10, top], method, m)

    def test_cli_refuses_m_with_exact(self, capsys):
        argv = ["discrepancy", "--gen", "x=0.3; prod:identity|x", "--grid", "100,1000",
                "--m", "64"]
        for extra in ([], ["--method", "exact"]):
            assert cli.main(argv + extra) == 2
            captured = capsys.readouterr()
            assert not captured.out
            assert "needs --method grid" in captured.err

    def test_non_integral_lattice_size_is_refused(self):
        # m = 64.5 ran corners up to 65/64.5 > 1 and reported the bound 2/64.5
        with pytest.raises(ValueError, match="grid size m must be an integer, got 64.5"):
            dc.check_method("grid", 2, 100, 64.5)
        pts = np.random.default_rng(1).random((50, 2))
        with pytest.raises(ValueError, match="grid size m must be an integer"):
            star_discrepancy_kd(pts, "grid", 64.5)
        assert dc.check_method("grid", 2, 100, 64.0) == ("grid", 64)
        assert star_discrepancy_kd(pts, "grid", 64.0) == star_discrepancy_kd(pts, "grid", 64)

    def test_lattice_corner_cap_is_inclusive(self):
        assert dc.check_method("grid", 2, 100, 4096) == ("grid", 4096)
        assert dc.check_method("grid", 3, 100, 256) == ("grid", 256)
        assert dc.check_method("auto", 3, 100) == ("grid", dc.GRID_M_DEFAULT_3D)


class TestThreeDimensionalGrid:
    def test_uniform_grid_small_defect(self):
        rng = np.random.default_rng(9)
        pts = rng.random((4096, 3))
        value, err = star_discrepancy_kd(pts, "grid", 64)
        assert err == 3 / 64
        assert value < 0.08  # random 4096-point set is roughly uniform

    def test_clustered_set_large_defect(self):
        pts = np.full((100, 3), 0.01)
        value, _ = star_discrepancy_kd(pts, "grid", 64)
        assert value > 0.95


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_entry_point_raises(self, bad):
        points = np.random.default_rng(13).random((20, 2))
        points[7, 1] = bad
        calls = [lambda: star_discrepancy_1d(points[:, 1]),
                 lambda: star_discrepancy_kd(points, "exact"),
                 lambda: star_discrepancy_kd(points, "grid", 16),
                 lambda: dstar_trend(points, [5, 20], "grid", 16),
                 lambda: dstar_trend(points[:, 1:], [5, 20])]
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()


class TestEmptyPoints:
    @pytest.mark.parametrize("points, message", [
        ([], "at least one coordinate, got k = 0"),
        (np.empty((3, 0)), "at least one coordinate, got k = 0"),
        (np.empty((0, 2)), "need at least one point"),
    ], ids=["list", "3x0", "0x2"])
    def test_refused(self, points, message):
        # the first two failed inside numpy: "need at least one array to stack"
        with pytest.raises(ValueError, match=message):
            star_discrepancy_kd(points)


class TestTrend:
    def test_golden_ratio_low_discrepancy(self):
        gen = wy.PointGenerator([wy.ProductCoord(sq.identity(),
                                                 ex.parse_expr("x"), PHI)])
        rep = ud_trend(gen, [10 ** 3, 10 ** 4, 10 ** 5])
        for N, d in zip(rep.grid, rep.values):
            assert d <= 5 * math.log(N) / N
        assert rep.trend_slope < -0.5
        assert rep.methods == ["exact-1d"] * 3

    def test_diagonal_saturates_near_one_quarter(self):
        # the diagonal carries its mass on a measure-zero set; the anchored
        # defect sup_{a,b} |min(a,b) - ab| = 1/4 (frozen from computation)
        gen = wy.PointGenerator([wy.ProductCoord(sq.identity(), ex.parse_expr("x"), PHI),
                                 wy.ProductCoord(sq.identity(), ex.parse_expr("x"), PHI)])
        rep = ud_trend(gen, [10 ** 3, 10 ** 4], method="grid", m=256)
        assert 0.2 <= rep.values[-1] <= 0.3

    def test_zero_sequence_pins_at_one(self):
        gen = wy.PointGenerator([wy.ProductCoord(sq.identity(),
                                                 ex.parse_expr("0*x"), 0.3)])
        rep = ud_trend(gen, [10, 100])
        assert rep.values == [1.0, 1.0]

    def test_grid_validation(self):
        gen = wy.PointGenerator([wy.ProductCoord(sq.identity(),
                                                 ex.parse_expr("x"), PHI)])
        with pytest.raises(ValueError):
            ud_trend(gen, [100, 100])

    @pytest.mark.parametrize("method", ["exact", "grid"])
    @pytest.mark.parametrize("bad", [2.9, 10.7, True])
    def test_non_integral_prefix_lengths_are_refused(self, monkeypatch, method, bad):
        # they were truncated: [2.9, 10] reported the grid [2, 10], and
        # [True, 5] the prefix N = 1
        points = np.random.default_rng(11).random((20, 2))
        message = f"prefix length must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=message):
            dstar_trend(points, [bad, 11], method)
        gen = wy.PointGenerator([wy.ProductCoord(sq.identity(), ex.parse_expr("x"), 0.3)] * 2)

        def no_points(self, indices):
            raise AssertionError("points made before the grid was checked")
        monkeypatch.setattr(wy.PointGenerator, "fracs", no_points)
        with pytest.raises(ValueError, match=message):
            ud_trend(gen, [bad, 11], method)

    def test_integral_float_prefix_lengths_read_as_integers(self):
        points = np.random.default_rng(11).random((20, 2))
        rep = dstar_trend(points, [2.0, np.float64(10.0), np.int64(20)], "exact")
        assert rep.grid == [2, 10, 20] and all(type(N) is int for N in rep.grid)
        assert rep == dstar_trend(points, [2, 10, 20], "exact")

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2), ()])
    def test_points_not_n_by_k_are_refused(self, shape):
        # a 1-d array failed in numpy: "tuple index out of range". The shape
        # is checked first, so a grid past the points is not what is named
        points = np.full(shape, 0.25)
        with pytest.raises(ValueError, match=rf"points must be an \(N, k\) array, got shape "
                                             rf"{re.escape(str(shape))}"):
            dstar_trend(points, [10 ** 6])

    def test_kd_reads_one_row_as_one_point(self):
        assert star_discrepancy_kd([0.1, 0.2, 0.7], "grid", 16) == \
            star_discrepancy_kd([[0.1, 0.2, 0.7]], "grid", 16)

    def test_lattice_trend_equals_value_of_each_prefix(self):
        # the trend and the one-prefix value agree bit for bit,
        # also with atoms on the lattice lines (multiples of 1/m, and 0)
        # (3-d, m = 64 has four row blocks of count tables)
        rng = np.random.default_rng(10)
        grid_700 = [1, 2, 5, 40, 300, 649, 650, 700]
        for k, ms, grid in ((1, (16, 10), grid_700), (2, (64, 24), grid_700),
                            (3, (16, 12), grid_700), (3, (64,), [1, 9, 30, 31, 40])):
            for m in ms:
                points = rng.random((grid[-1], k))
                on_line = rng.random(points.shape) < 0.2
                points[on_line] = rng.integers(0, m, on_line.sum()) / m
                points[grid[-2]:] = points[3]
                rep = dstar_trend(points, grid, "grid", m)
                assert rep.values == [star_discrepancy_kd(points[:N], "grid", m)[0]
                                      for N in grid]
                for N, value in zip(grid, rep.values):
                    assert value == lattice_oracle(points[:N], m)
                assert rep.methods == [f"grid({m})"] * len(grid)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 10, 37, 64])
    @pytest.mark.parametrize("block_rows", [1, 7, 19, None])
    def test_lattice_trend_equals_oracle_in_every_block_layout(self, monkeypatch, k, m,
                                                              block_rows):
        # blocks of 1, 7 or 19 rows, or CORNER_BLOCK cells (None), stored
        # in permuted rows from 4 rows up: small blocks carry from one block
        # to the next; 19 rows (10 chunks of 2, so blocks of 20) and m = 37
        # in one block (13 chunks of 3) pad past the last row. The grid
        # steps by one point, and no point lies on a lattice line before
        # the fourth prefix, so the open table starts mid-grid.
        monkeypatch.setattr(dc, "PERMUTED_ROWS", 4)
        if block_rows is not None:
            monkeypatch.setattr(dc, "CORNER_BLOCK", block_rows * m ** (k - 1))
        rng = np.random.default_rng(100 * m + 10 * k + (block_rows or 0))
        grid = [1, 2, 3, 4, 5, 9, 10, 23, 24]
        points = rng.random((grid[-1], k))
        later = points[grid[2]:]
        on_line = rng.random(later.shape) < 0.3
        later[on_line] = rng.integers(0, m, on_line.sum()) / m
        later[0, 0] = rng.integers(1, m) / m  # open bin one past the closed one
        later[-2:] = later[0]
        rep = dstar_trend(points, grid, "grid", m)
        assert rep.values == [lattice_oracle(points[:N], m) for N in grid]

    @pytest.mark.parametrize("k, m", [(1, 2), (1, 10), (1, 37), (1, 64), (2, 2), (2, 10),
                                      (2, 37), (2, 64), (3, 2), (3, 10), (3, 37)])
    @pytest.mark.parametrize("block_rows", [1, 7, 19, None])
    def test_lattice_points_on_interior_lines_in_every_block_layout(self, monkeypatch, k, m,
                                                                    block_rows):
        # every coordinate is j/m with 1 <= j <= m - 1, so every open bin is
        # the closed bin + 1: the running kernel builds the closed table
        # alone and compares it below the volumes one corner on. The first
        # two points sit on the top line (m - 1)/m, near 1, where D* is the
        # volume below them; points 11 to top put a point on every line of
        # every axis, so the running kernel takes over by N = top. (k = 3
        # stops at m = 37, as the oracle grows with m^3.)
        if block_rows is not None:
            monkeypatch.setattr(dc, "CORNER_BLOCK", block_rows * m ** (k - 1))
        rng = np.random.default_rng(3000 + 100 * m + 10 * k + (block_rows or 0))
        top = 11 + m - 1
        grid = [1, 2, 3, 10, 11, top, top + 1, top + 9]
        lines = rng.integers(1, m, (grid[-1], k))
        lines[:2] = m - 1
        lines[11:top] = np.stack([rng.permutation(np.arange(1, m)) for _ in range(k)], 1)
        lines[-3:] = lines[3]
        points = lines / m
        assert np.array_equal(points * m, lines)  # on the lines exactly
        starts = running_kernel_starts(monkeypatch)
        rep = dstar_trend(points, grid, "grid", m)
        assert rep.values == [lattice_oracle(points[:N], m) for N in grid]
        assert len(starts) == 1 and starts[0] <= top, starts

    def test_dstar_at_the_first_corners_below_a_cluster_near_one(self):
        # no point lies below the smallest coordinate on an axis: exact D* is
        # then the largest first corner's volume, which the shifted compare
        # adds as a constant; on the lattice, whose first corner is 1/m, the
        # same box is the corner one below the points, met by the compare
        # one corner on
        assert star_discrepancy_kd([[0.9, 0.9]], "exact") == (0.9, 0.0)
        cluster = np.array([[0.9, 0.95], [0.9, 0.9], [0.95, 0.9]])
        assert star_discrepancy_kd(cluster, "exact")[0] == 0.9 == brute_force_2d(cluster)
        for points, m in (([[0.9, 0.9]], 10), ([[0.75, 0.5], [0.5, 0.75]], 4),
                          ([[0.875, 0.75, 0.875]], 8)):
            points = np.array(points)
            assert star_discrepancy_kd(points, "grid", m)[0] == lattice_oracle(points, m)
        assert star_discrepancy_kd([[0.9, 0.9]], "grid", 10)[0] == 0.9

    @pytest.mark.parametrize("k, m", [(1, 2), (1, 10), (1, 37), (1, 64), (2, 2), (2, 10),
                                      (2, 37), (2, 64), (3, 2), (3, 10), (3, 37)])
    @pytest.mark.parametrize("block_rows", [1, 7, 19, None])
    def test_lattice_grid_step_adds_many_points_in_every_block_layout(self, monkeypatch, k, m,
                                                                      block_rows):
        # the first 200 points fill the lattice, so the running tables take
        # over by N = 200; then one grid step adds 12 + 4 m points: 12
        # repeats of one point (one cell), and for every bin of the first
        # axis points in the first two and last two bins of the last axis,
        # half of them on lattice lines, so that one step fills the last
        # cell of a row and the first of the next. No point before that
        # step lies on a line, so the open side's first table adds every
        # point up to it. (k = 3 stops at m = 37: at m = 64 the oracle
        # takes 0.5 s per prefix.)
        if block_rows is not None:
            monkeypatch.setattr(dc, "CORNER_BLOCK", block_rows * m ** (k - 1))
        rng = np.random.default_rng(2000 + 100 * m + 10 * k + (block_rows or 0))
        top = 201 + 12 + 4 * m
        grid = [1, 2, 200, 201, top, top + 1, top + 40]
        points = rng.random((grid[-1], k))
        step = points[201:top]
        step[:12] = step[0]
        step[12:, 0] = (np.arange(4 * m) // 4 + 0.5) / m
        if k > 1:
            step[12:, -1] = np.tile([0.5, 1, m - 1, m - 0.5], m) / m
        later = points[top:]
        on_line = rng.random(later.shape) < 0.3
        later[on_line] = rng.integers(0, m, on_line.sum()) / m
        starts = running_kernel_starts(monkeypatch)
        rep = dstar_trend(points, grid, "grid", m)
        assert rep.values == [lattice_oracle(points[:N], m) for N in grid]
        assert len(starts) == 1 and starts[0] <= 200, starts

    @pytest.mark.parametrize("m", [3, 6])
    @pytest.mark.parametrize("block_rows", [1, 2, None])
    def test_four_dimensional_lattice_trend_equals_oracle(self, monkeypatch, m, block_rows):
        # k = 4 has two middle axes, cumulated between the last axis's rows
        # and the first axis's chunk scan
        if block_rows is not None:
            monkeypatch.setattr(dc, "CORNER_BLOCK", block_rows * m ** 3)
        rng = np.random.default_rng(40 + 10 * m + (block_rows or 0))
        grid = [1, 2, 5, 30, 31, 100, 240]
        points = rng.random((grid[-1], 4))
        later = points[grid[3]:]
        on_line = rng.random(later.shape) < 0.3
        later[on_line] = rng.integers(0, m, on_line.sum()) / m
        later[-20:] = later[0]
        starts = running_kernel_starts(monkeypatch)
        rep = dstar_trend(points, grid, "grid", m)
        assert rep.values == [lattice_oracle(points[:N], m) for N in grid]
        assert len(starts) == 1 and starts[0] <= grid[-2], starts

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 10, 37, 64])
    def test_lattice_trend_crosses_from_occupied_bins_to_running_tables(self, monkeypatch,
                                                                        k, m):
        # on each axis the first 12 points lie in a quarter of the bins, so
        # the first prefixes are tabulated on their occupied bins; the later
        # points range over the lattice, and the running kernel takes the
        # grid from the first prefix past the limit on. Points at x = 0
        # (closed bin -1), on lattice lines (open bin one past the closed
        # one) and at the largest double below 1 (bin m - 1: m x stays below
        # m for an integer m) lie on both sides of the crossing
        rng = np.random.default_rng(1000 + 10 * m + k)
        grid = [1, 2, 3, 4, 5, 8, 12, 20, 30, 45, 80, 150]
        points = rng.random((150, k))
        for axis in range(k):
            few = rng.choice(m, max(1, m // 4), replace=False)
            points[:12, axis] = (rng.choice(few, 12) + rng.random(12)) / m
        on_line = rng.random(points.shape) < 0.3
        points[on_line] = np.floor(points[on_line] * m) / m
        points[[0, 25], 0] = 0.0
        points[[2, 40], -1] = np.nextafter(1.0, 0.0)
        starts = running_kernel_starts(monkeypatch)
        rep = dstar_trend(points, grid, "grid", m)
        assert rep.values == [lattice_oracle(points[:N], m) for N in grid]
        assert len(starts) == 1 and grid[0] < starts[0] <= grid[-1], starts

    def test_sparse_calibration_prefixes_skip_the_running_tables(self, monkeypatch):
        # sample 0 (x = 0.3206...) occupies few of the 256 bins per axis:
        # its prefixes up to N = 371 are tabulated on their occupied bins
        # alone, those below 256 with the frozen values
        frozen, config, grid = self.calibration_sample0()

        def running(*args):
            raise AssertionError("running-histogram kernel reached")
        monkeypatch.setattr(dc, "_running_dstar", running)
        small = [N for N in grid if N < 256]
        rep = ud_trend(lab.build_generator(config, frozen["x"]), small, "grid", frozen["m"])
        assert len(small) == 30 and rep.values == frozen["values"][:30]

    def test_lattice_memory_does_not_grow_with_the_grid(self, monkeypatch):
        # 16 row blocks of 2 rows (k = 3, m = 32): a carry kept per prefix
        # and side would add 2 * 40 * 32^2 * 8 bytes = 655 kB at 40 prefixes.
        # The prefixes up to 8 of the last grid are tabulated on their
        # occupied bins, in tables of at most CORNER_BLOCK cells: half the
        # lattice, 16,384 cells, would take 131 kB per table
        monkeypatch.setattr(dc, "CORNER_BLOCK", 2 * 32 ** 2)
        points = np.random.default_rng(3).random((2000, 3))
        peaks = []
        later = list(range(50, 2001, 50))
        for grid in ([1000, 2000], later, [1, 2, 4, 8, 16, 24, 32] + later):
            tracemalloc.start()
            try:
                dstar_trend(points, grid, "grid", 32)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks[1:]) <= peaks[0] + 32 * 1024, peaks

    @staticmethod
    def calibration_sample0():
        with open(os.path.join(FIXTURES, "calibration_sample0_lattice.json")) as fh:
            frozen = json.load(fh)
        with open(os.path.join(FIXTURES, "calibration.json")) as fh:
            config = lab.ExperimentConfig.from_dict(json.load(fh)["config"])
        return frozen, config, lab.parse_grid(config.n_grid)

    def test_calibration_sample_lattice_values_frozen(self):
        # every prefix of calibration sample 0, not only the final value
        # that the calibration fixture pins
        frozen, config, grid = self.calibration_sample0()
        assert lab.sample_x(config, frozen["sample"]) == frozen["x"]
        assert grid == frozen["grid"] and len(grid) == 99
        rep = ud_trend(lab.build_generator(config, frozen["x"]), grid, "grid", frozen["m"])
        assert rep.values == frozen["values"]

    PLASTIC = "x=0.7548776662466927; prod:identity|x; prod:identity|x^2"

    def test_slope_fits_only_prefixes_above_their_bound(self):
        # lattice values down to 0.0004 under the bound 2/64 = 0.03125 used
        # to set the slope: -0.8925 on pow2:4..14
        gen = lab.parse_generator(self.PLASTIC)
        rep = ud_trend(gen, lab.parse_grid("pow2:4..14"), "grid", 64)
        assert rep.below_bound() == [False] * 4 + [True] * 7
        assert rep.trend_slope == np.polyfit(np.log(rep.grid[:4]), np.log(rep.values[:4]), 1)[0]
        assert rep.trend_slope == pytest.approx(-0.798, abs=5e-4)
        flags = [row[-1] for row in lab.discrepancy_csv_rows(rep)[1]]
        assert flags == [""] * 4 + ["below bound"] * 7
        rep = ud_trend(gen, lab.parse_grid("pow2:8..14"), "grid", 64)
        assert all(rep.below_bound()) and math.isnan(rep.trend_slope)

    def test_cli_names_the_prefixes_left_out(self, capsys):
        argv = ["discrepancy", "--gen", self.PLASTIC, "--grid", "pow2:8..14", "--method",
                "grid", "--m", "64"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert "# trend slope (log D* ~ log N): nan" in out
        assert [line for line in out if "left out" in line] == [
            "# 7 of 7 prefixes at or below their error bound 0.03125; left out of the trend fit"]
        assert cli.main(argv[:3] + ["--grid", "pow2:4..12", "--method", "exact"]) == 0
        assert "left out" not in capsys.readouterr().out

    def test_exact_slope_fits_every_prefix(self):
        # the bound is 0, so every prefix is fitted, as before; fewer than 3
        # prefixes give NaN (one prefix used to read 0.0)
        gen = wy.PointGenerator([wy.ProductCoord(sq.identity(), ex.parse_expr("x"), PHI)])
        grid = [10, 100, 1000, 10000]
        rep = ud_trend(gen, grid)
        assert not any(rep.below_bound())
        assert rep.trend_slope == np.polyfit(np.log(grid), np.log(rep.values), 1)[0]
        for short in ([10], [10, 100]):
            assert math.isnan(ud_trend(gen, short).trend_slope)

    def test_trend_of_given_points_matches_generator_trend(self):
        gen = wy.PointGenerator([wy.ProductCoord(sq.identity(), ex.parse_expr("x"), PHI),
                                 wy.ProductCoord(sq.identity(), ex.parse_expr("x^2"), PHI)])
        grid = [16, 64, 256]
        points = gen.fracs(np.arange(1, 257))
        assert dstar_trend(points, grid, "grid", 64, gen.describe()) == \
            ud_trend(gen, grid, "grid", 64)
        with pytest.raises(ValueError):
            dstar_trend(points[:255], grid)
