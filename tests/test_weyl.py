import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udlab import expr as ex
from udlab import numerics
from udlab import sequences as sq
from udlab import weyl as wy
from udlab.numerics import (e_phase, frac_product, power_tower_frac_mp,
                            prefix_means)

from conftest import stepwise_sublacunary

PHI = (1 + math.sqrt(5)) / 2
X = ex.parse_expr("x")
X2 = ex.parse_expr("x^2")
ZERO = ex.parse_expr("0*x")


def linear_gen(x, dim=1):
    return wy.PointGenerator([wy.ProductCoord(sq.identity(), X, x)
                              for _ in range(dim)])


def curve_gen(x, seq=sq.identity()):
    """(a(n) x, a(n) x^2): two coordinates, so phases v . x_n round."""
    return wy.PointGenerator([wy.ProductCoord(seq, X, x), wy.ProductCoord(seq, X2, x)])


class TestWeylSum:
    def test_zero_sequence_is_one(self):
        gen = wy.PointGenerator([wy.ProductCoord(sq.identity(), ZERO, 0.4)])
        for n in (1, 3, 10):
            assert wy.weyl_sum(gen, [1], n) == 1.0

    def test_half_cycle_cancellation(self):
        assert abs(wy.weyl_sum(linear_gen(0.5), [1], 2)) < 1e-15

    def test_quarter_cycle_four_terms(self):
        assert abs(wy.weyl_sum(linear_gen(0.25), [1], 4)) < 1e-15

    def test_magnitude_never_exceeds_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            gen = linear_gen(float(rng.random()))
            assert abs(wy.weyl_sum(gen, [int(rng.integers(1, 5))],
                                   int(rng.integers(1, 500)))) <= 1.0 + 1e-12

    def test_conjugation(self):
        gen = linear_gen(PHI)
        a = wy.weyl_sum(gen, [2], 1000)
        b = wy.weyl_sum(gen, [-2], 1000)
        assert abs(a - np.conj(b)) < 1e-12

    def test_frequency_validation(self):
        gen = linear_gen(0.3)
        with pytest.raises(ValueError):
            wy.weyl_sum(gen, [0], 10)
        with pytest.raises(ValueError):
            wy.weyl_sum(gen, [1, 1], 10)

    def test_non_integral_frequency_is_refused(self):
        # the int64 cast read [1.7] as [1] and [0.5] as the zero frequency
        gen = linear_gen(0.3)
        for v in ([1.7], [0.5]):
            with pytest.raises(ValueError, match=f"frequency entry must be an integer, got {v[0]}"):
                wy.weyl_sum(gen, v, 10)
        assert wy.weyl_sum(gen, [2.0], 10) == wy.weyl_sum(gen, [2], 10)
        points = gen.fracs(sq.index_range(50))
        # True is no frequency in any form; a list's bools once became ints
        pairs = np.stack([points[:, 0], points[:, 0]], 1)
        for v in ([True, -1], (-1, np.True_), np.array([True, False]), [[1], [False]]):
            with pytest.raises(ValueError, match="frequency entry must be an integer, got "):
                wy.prefix_weyl_series(pairs, v, [10])
        with pytest.raises(ValueError, match="frequency bound V must be an integer, got 2.5"):
            wy.max_weyl_series(points, 2.5, [50])
        assert wy.max_weyl_series(points, 2.0, [50]) == wy.max_weyl_series(points, 2, [50])

    def test_unit_magnitude_iff_phases_coincide(self):
        # x = 1/3, v = 3: phases all integral
        assert abs(wy.weyl_sum(linear_gen(1 / 3), [3], 100)) == pytest.approx(1.0, abs=1e-12)
        # generic x: strictly smaller
        assert abs(wy.weyl_sum(linear_gen(PHI), [1], 100)) < 0.999


class TestOverIndexSets:
    def test_prefixes_reduce_to_weyl_sum(self):
        gen = linear_gen(PHI)
        series = wy.weyl_sum_over_sets(gen, [1], sq.prefixes(), [5, 50, 500])
        for N, f in zip(series.grid, series.averages):
            assert f == wy.weyl_sum(gen, [1], N)

    def test_geometric_zero_sequence(self):
        gen = wy.PointGenerator([wy.ProductCoord(sq.identity(), ZERO, 0.4)])
        series = wy.weyl_sum_over_sets(gen, [1], sq.geometric(2.0), [1, 2, 3, 4])
        assert series.magnitudes == [1.0, 1.0, 1.0, 1.0]
        assert series.set_sizes == [2, 4, 8, 16]

    def test_strided_non_ud_witness(self):
        # along even indices, n*(1/2) is always integral: |F_N| = 1
        series = wy.weyl_sum_over_sets(linear_gen(0.5), [1], sq.strided(2),
                                       [2, 4, 8])
        assert all(abs(m - 1.0) < 1e-14 for m in series.magnitudes)

    def test_divergence_diagnostic(self):
        series = wy.weyl_sum_over_sets(linear_gen(0.3), [1], sq.prefixes(), [1, 2, 3])
        assert series.inverse_size_partial_sums[-1] == pytest.approx(1 + 0.5 + 1 / 3)

    def test_prefix_series_equals_direct_sums(self):
        gen = linear_gen(PHI)
        # small and large prefixes of one running sum: entry N-1 does not
        # depend on how many values follow it
        grid = [3, 17, 250, 999, 4095, 4096, 4097, 12289]
        points = gen.fracs(np.arange(1, 12290))
        series = wy.prefix_weyl_series(points, [1], grid)
        for N, f in zip(grid, series):
            assert f == wy.weyl_sum(gen, [1], N)
            assert abs(f) <= 1.0 + 1e-12

    def test_partial_inverse_sums_are_one_running_sum(self):
        # one pass up to max(grid), adding 1/|S_M| in index order, gives the
        # per-N diagnostic of index_sets bit for bit
        gen = linear_gen(PHI)
        for family, grid in ((sq.prefixes(), [1, 2, 7, 100, 2500]),
                             (sq.geometric(1.5), [1, 3, 4, 12]),
                             (sq.strided(3), [2, 5, 300])):
            series = wy.weyl_sum_over_sets(gen, [1], family, grid)
            assert series.inverse_size_partial_sums == \
                [sq.index_sets(family, N).partial_inverse_sum for N in grid]
            for N, partial in zip(grid, series.inverse_size_partial_sums):
                running = 0.0
                for M in range(1, N + 1):
                    running += 1.0 / sq.index_set_size(family, M)
                assert partial == running

    def test_raw_coordinate_recipe(self):
        gen = wy.PointGenerator([wy.RawCoord(lambda n: n * math.sqrt(2)),
                                 wy.RawCoord(lambda n: n * math.sqrt(3))])
        assert gen.dim == 2
        pts = gen.fracs([1, 2])
        assert pts[0, 0] == pytest.approx(math.sqrt(2) % 1)
        assert abs(wy.weyl_sum(gen, [1, 1], 2000)) < 0.05

    def test_points_are_generated_once(self, monkeypatch):
        gen = curve_gen(0.3)
        calls = []
        fracs = gen.fracs
        monkeypatch.setattr(gen, "fracs", lambda n: calls.append(len(n)) or fracs(n))
        for family, largest in ((sq.prefixes(), 3), (sq.geometric(2.0), 8),
                                (sq.strided(4), 3),
                                (sq.custom_nested([[2], [1, 2], [1, 2, 5]]), 3)):
            calls.clear()
            wy.weyl_sum_over_sets(gen, [3, -5], family, [1, 2, 3])
            assert calls == [largest], family

    def test_builtin_families_equal_weyl_sum_in_index_order(self):
        # geometric S_N = {1..|S_N|}; strided S_N = {c, 2c, .., cN}, the
        # first N points of the sequence c*n
        v = [3, -5]
        for x in (0.3, 0.7548776662466927, PHI):
            gen = curve_gen(x)
            series = wy.weyl_sum_over_sets(gen, v, sq.geometric(1.5), range(1, 15))
            assert series.averages == [wy.weyl_sum(gen, v, size)
                                       for size in series.set_sizes]
            grid = [1, 2, 5, 40, 333]
            series = wy.weyl_sum_over_sets(gen, v, sq.strided(3), grid)
            by_three = curve_gen(x, sq.affine(3.0))
            assert series.averages == [wy.weyl_sum(by_three, v, N) for N in grid]

    def test_custom_nested_sets_off_the_sorted_order(self):
        # S_1 = {2} is no prefix of the sorted S_3 = (1, 2, 3); the index
        # order is 2, 1, 3
        gen = curve_gen(0.7548776662466927)
        sets = [[2], [1, 2], [1, 2, 3]]
        v = np.array([3, -5])
        series = wy.weyl_sum_over_sets(gen, v, sq.custom_nested(sets), [1, 2, 3])
        for s, f in zip(sets, series.averages):
            want = np.mean([np.exp(2j * math.pi * float(gen.fracs([n])[0] @ v))
                            for n in s])
            assert abs(f - want) <= 1e-15

    def test_one_point_sum_is_first_prefix_entry(self):
        # a lone point goes through the same phase kernel as a long array
        for x, v in ((0.3, [-2, 7]), (0.7548776662466927, [3, -5])):
            gen = curve_gen(x)
            points = gen.fracs(np.arange(1, 6))
            assert wy.weyl_sum(gen, v, 1) == wy.prefix_weyl_series(points, v, [1, 5])[0]

    def test_custom_nested_family_path(self):
        fam = sq.custom_nested([[1], [1, 2], [1, 2, 3]])
        series = wy.weyl_sum_over_sets(linear_gen(0.25), [1], fam, [1, 2, 3])
        assert series.set_sizes == [1, 2, 3]
        # phases 1/4, 2/4, 3/4: partial averages by hand
        assert series.averages[0] == pytest.approx(1j)
        assert series.averages[1] == pytest.approx((1j - 1) / 2)


class TestMaxWeylSum:
    def test_frequency_box_past_cap_is_refused_before_it_is_built(self, monkeypatch):
        # V = 40 at k = 3 (531,440 frequencies) took 11 s and 126 MB on 16 points
        def no_box(dim, V):
            raise AssertionError("box built before it was checked")
        monkeypatch.setattr(wy, "frequency_box", no_box)
        points = np.zeros((16, 3))
        with pytest.raises(ValueError, match="box \\|v\\| <= 40 in 3 dimensions has 265720"
                           " frequencies up to sign, more than the cap of 65536"):
            wy.max_weyl_series(points, 40, [16])
        with pytest.raises(ValueError, match="need frequency bound V >= 1, got V = 0"):
            wy.max_weyl_series(points, 0, [16])
        wy.check_frequency_box(2, 180)  # 65160 frequencies up to sign
        with pytest.raises(ValueError, match="has 65884 frequencies"):
            wy.check_frequency_box(2, 181)

    def test_zero_sequence_tie_break(self):
        gen = wy.PointGenerator([wy.ProductCoord(sq.identity(), ZERO, 0.4),
                                 wy.ProductCoord(sq.identity(), ZERO, 0.4)])
        mag, v = wy.max_weyl_sum(gen, 2, 40)
        assert mag == 1.0
        assert list(v) == [-2, -2]  # lexicographically first among ties

    def test_golden_ratio_small(self):
        gen = linear_gen(PHI)
        mag, v = wy.max_weyl_sum(gen, 3, 10 ** 4)
        assert mag <= 0.02
        points = gen.fracs(np.arange(1, 10 ** 4 + 1))
        mags, argmax = wy.max_weyl_series(points, 3, [100, 5000, 10 ** 4])
        assert mags[-1] == mag and np.array_equal(argmax[-1], v)

    def test_series_is_first_maximum_of_abs_over_box(self):
        points = np.random.default_rng(4).random((1000, 2))
        grid = list(range(1, 1001))
        box = list(wy.frequency_box(2, 2))
        rows = [[abs(f) for f in wy.prefix_weyl_series(points, v, grid)] for v in box]
        mags, argmax = wy.max_weyl_series(points, 2, grid)
        for i, column in enumerate(zip(*rows)):
            assert mags[i] == max(column)
            assert np.array_equal(argmax[i], box[column.index(max(column))])

    def test_negated_frequency_is_exact_conjugate(self):
        rng = np.random.default_rng(11)
        grid = [1, 2, 9, 400, 1500]
        for dim in (1, 2, 3):
            points = rng.random((1500, dim))
            for _ in range(4):
                v = rng.integers(-4, 5, dim)
                if not v.any():
                    continue
                plus = wy.prefix_weyl_series(points, v, grid)
                minus = wy.prefix_weyl_series(points, -v, grid)
                assert minus == [np.conj(f) for f in plus]

    def test_maximizer_has_negative_leading_entry(self):
        points = np.random.default_rng(12).random((3000, 2))
        for V in (1, 3):
            _, argmax = wy.max_weyl_series(points, V, [10, 100, 3000])
            for v in argmax:
                assert v[np.flatnonzero(v)[0]] < 0

    def test_diagonal_obstruction(self):
        gen = linear_gen(PHI, dim=2)
        assert wy.weyl_sum(gen, [1, -1], 10 ** 4) == 1.0
        mag, v = wy.max_weyl_sum(gen, 1, 10 ** 4)
        assert mag == 1.0
        assert abs(v[0]) == 1 and v[1] == -v[0]


class TestCharacterKernel:
    """Every entry point sums through one table of characters per column."""

    @staticmethod
    def raw_gen(points):
        # RawCoord reduces x - floor(x), the identity on [0, 1)
        return wy.PointGenerator([wy.RawCoord(lambda n, col=col: col[n - 1])
                                  for col in points.T])

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_entry_points_agree_bit_for_bit(self, data):
        k = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 80))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        columns = []
        for c in range(k):
            kind = data.draw(st.sampled_from(["fresh", "repeat", "prefix", "zero"]))
            if kind in ("repeat", "prefix") and c:
                # a copy of an earlier column, whole or on its first m rows only
                col = columns[data.draw(st.integers(0, c - 1))].copy()
                if kind == "prefix":
                    m = data.draw(st.integers(0, n))
                    col[m:] = rng.random(n - m)
                columns.append(col)
            else:
                columns.append(np.zeros(n) if kind == "zero" else rng.random(n))
        points = np.column_stack(columns)
        with pytest.MonkeyPatch.context() as mp:
            # small blocks carry the running sums across block ends
            mp.setattr(wy, "_BLOCK", data.draw(st.sampled_from([1, 7, wy._BLOCK])))
            self.check_entry_points(data, points)

    def check_entry_points(self, data, points):
        n, k = points.shape
        grid = sorted({1, n} | set(data.draw(st.lists(st.integers(1, n), max_size=4))))
        v = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k)
                               .filter(any)))
        gen = self.raw_gen(points)
        V = 1 if k == 3 else 2
        box = list(wy.frequency_box(k, V))
        rows = []
        for w in [v] + box:
            series = wy.prefix_weyl_series(points, w, grid)
            assert series == [wy.weyl_sum(gen, w, N) for N in grid]
            assert wy.prefix_weyl_series(points, -w, grid) == [f.conjugate() for f in series]
            rows.append([abs(f) for f in series])
        mags, argmax = wy.max_weyl_series(points, V, grid)
        for i, column in enumerate(zip(*rows[1:])):
            assert mags[i] == max(column)
            assert np.array_equal(argmax[i], box[column.index(max(column))])

    def test_columns_equal_on_a_prefix_fold_per_row(self):
        # a(1) = 1 in both columns, so only the first points have equal
        # coordinates; F_N must not depend on the rows past N
        gen = wy.PointGenerator([wy.ProductCoord(sq.identity(), X, 0.3),
                                 wy.ProductCoord(sq.power(2), X, 0.3)])
        points = gen.fracs(np.arange(1, 11))
        for v in ([1, 1], [2, 3], [3, 3], [1, -1], [-4, 2]):
            series = wy.prefix_weyl_series(points, v, range(1, 11))
            assert series == [wy.weyl_sum(gen, v, N) for N in range(1, 11)], v
        assert wy.prefix_weyl_series(points, [1, -1], [1]) == [1.0]

    def test_running_sum_is_carried_across_blocks(self):
        # one column at frequency 1 has terms e_phase(x): the blocked sum
        # equals prefix_means over all terms at once, bit for bit
        x = np.random.default_rng(8).random(2 * wy._BLOCK + 100)
        grid = [1, wy._BLOCK - 1, wy._BLOCK, wy._BLOCK + 1, 2 * wy._BLOCK + 1, len(x)]
        assert wy.prefix_weyl_series(x[:, None], [1], grid) == \
            [complex(f) for f in prefix_means(e_phase(x), grid)]
        mags, _ = wy.max_weyl_series(x[:, None], 1, grid)
        assert mags == [abs(f) for f in prefix_means(e_phase(x), grid)]

    def test_equal_columns_fold(self):
        rng = np.random.default_rng(21)
        x, y = rng.random(700), rng.random(700)
        grid = [1, 2, 50, 699, 700]
        for a in (1, -3, 5):
            for b in (1, -2, 4):
                assert wy.prefix_weyl_series(np.column_stack([x, x, y]), [a, -a, b], grid) \
                    == wy.prefix_weyl_series(y[:, None], [b], grid)
            # all columns fold to frequency 0: the mean of exact ones
            assert wy.prefix_weyl_series(np.column_stack([x, y, x]), [a, 0, -a], grid) \
                == [1.0] * len(grid)

    def test_matches_120_bit_reference(self):
        """Against the exact mean of the same double points, each component
        of F_N errs by at most N * 2**-52 from the running sum (see
        numerics.prefix_means), plus the error of one term. With u = 2**-53
        and x in [0, 1): j * x rounds by at most u * j cycles, and frac is
        exact; e_phase rounds 2 pi t by at most 4 pi u and each of cos, sin
        by at most 2u; each of the k - 1 complex products adds at most
        sqrt(5) u. So a term errs by at most
        2 pi u sum_c |v_c| + k (4 pi + 3) u + 3 (k - 1) u."""
        N, u = 2000, 2.0 ** -53
        points = curve_gen(0.7548776662466927).fracs(np.arange(1, N + 1))
        for v in ([1, 0], [0, 1], [3, -5], [-2, 7], [5, 5], [-1, -4]):
            got = wy.prefix_weyl_series(points, v, [N])[0]
            with mpmath.workprec(120):
                total = mpmath.mpc(0)
                for row in points:
                    total += mpmath.expjpi(2 * (v[0] * mpmath.mpf(row[0])
                                                + v[1] * mpmath.mpf(row[1])))
                want = total / N
            k = len(v)
            term = (2 * math.pi * u * sum(map(abs, v)) + k * (4 * math.pi + 3) * u
                    + 3 * (k - 1) * u)
            bound = N * 2.0 ** -52 + term
            assert abs(got.real - want.real) <= bound, v
            assert abs(got.imag - want.imag) <= bound, v


class TestNonFinite:
    def test_non_finite_coordinates_raise(self):
        gen = wy.PointGenerator([wy.RawCoord(lambda n: n * PHI),
                                 wy.RawCoord(lambda n: np.where(n == 5, np.inf, n * 0.3))])
        points = gen.fracs(np.arange(1, 11))
        with pytest.raises(ValueError, match="finite"):
            wy.weyl_sum(gen, [1, 1], 10)
        with pytest.raises(ValueError, match="finite"):
            wy.prefix_weyl_series(points, [0, -1], [4, 10])
        with pytest.raises(ValueError, match="finite"):
            wy.max_weyl_series(points, 1, [10])


class TestSublacunaryGrid:
    def test_first_values(self):
        grid = wy.sublacunary_grid(0.5, 9)
        assert grid[0] == 3          # ceil(e)
        assert 8 in grid             # ceil(e^2) at r = 4
        assert 21 in grid            # ceil(e^3) at r = 9

    def test_increasing_dedup(self):
        grid = wy.sublacunary_grid(0.3, 60)
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_ratios_tend_to_one(self):
        grid = wy.sublacunary_grid(0.5, 500)
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert ratios[-1] < 1.03
        assert ratios[-1] < ratios[len(ratios) // 4]

    def test_domain(self):
        with pytest.raises(ValueError):
            wy.sublacunary_grid(1.0, 10)
        with pytest.raises(ValueError):
            wy.sublacunary_grid(0.0, 10)
        with pytest.raises(ValueError):
            wy.sublacunary_grid(0.5, 1)
        # exp(r^0.99) leaves double range at r = 759; used to raise a bare
        # OverflowError: math range error
        with pytest.raises(ValueError, match=r"1 - 0\.01\)\)\) leaves double range at r = 759"):
            wy.sublacunary_grid(0.01, 1000)

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85,
                                     0.9, 0.92, 0.95])
    def test_walk_equals_stepwise_loop(self, eps):
        for r_max in [2, 3, 10, 57, 500, 5000, 20000, 100000]:
            try:
                expected = stepwise_sublacunary(eps, r_max)
            except OverflowError:
                with pytest.raises(ValueError, match="leaves double range"):
                    wy.sublacunary_grid(eps, r_max)
            else:
                assert wy.sublacunary_grid(eps, r_max) == expected, r_max


class TestCesaroGap:
    def test_constant_sequence(self):
        lhs, bound = wy.cesaro_gap(np.ones(10), 3, 7)
        assert lhs == 0.0 and lhs <= bound

    def test_alternating_tight(self):
        lhs, bound = wy.cesaro_gap([1.0, -1.0], 1, 2)
        assert lhs == 1.0 and bound == 1.0

    def test_seeded_exhaustive(self):
        rng = np.random.default_rng(11)
        zs = np.exp(2j * np.pi * rng.random(256))
        prefix = np.cumsum(zs)
        avg = prefix / np.arange(1, 257)
        for N in range(1, 256):
            diffs = np.abs(avg[N - 1] - avg[N:])
            bounds = 2.0 * (1.0 - N / np.arange(N + 1, 257))
            assert np.all(diffs <= bounds + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            wy.cesaro_gap([1.0, 1.0], 2, 2)
        with pytest.raises(ValueError):
            wy.cesaro_gap([1.0, 3.0], 1, 2)


class TestPrecisionPolicy:
    def test_tower_fracs_match_512bit_reference(self):
        with mpmath.workprec(512):
            for n in (1, 7, 50, 137, 200):
                ref = mpmath.frac(mpmath.mpf(1.5) ** n)
                got = power_tower_frac_mp(1.5, float(n))
                assert abs(ref - got) <= mpmath.mpf("1e-20")

    def test_tower_base_validation(self):
        with pytest.raises(ValueError):
            wy.TowerCoord(ex.parse_expr("x"), sq.identity(), 0.9)
        with pytest.raises(ValueError):   # g(x) = inf
            wy.TowerCoord(ex.parse_expr("exp(x)"), sq.identity(), 1000.0)
        with pytest.raises(ValueError):   # b(800) = inf
            wy.TowerCoord(X, sq.custom("exp(n)"), 1.5).fracs(np.array([1, 800]))

    @pytest.mark.parametrize("g", [math.inf, math.nan, 1.0, 0.5])
    def test_power_tower_frac_mp_refuses_base(self, g):
        # an infinite base used to raise OverflowError
        with pytest.raises(ValueError, match="must be finite and exceed 1"):
            power_tower_frac_mp(g, 2.5)
        with pytest.raises(ValueError, match="must be finite and exceed 1"):
            numerics.power_tower_fracs_fixed(g, [1, 2])

    def test_power_tower_fracs_fixed_refuses_negative_exponent(self):
        with pytest.raises(ValueError, match="exponents must be non-negative"):
            numerics.power_tower_fracs_fixed(1.5, [2, -1, 3])

    def test_non_finite_exponent_and_product_name_n(self):
        with pytest.raises(ValueError, match="at n = 35 is inf"):
            wy.TowerCoord(X, sq.power(200.0), 1.5).fracs(np.arange(1, 100))
        # product coordinates used to warn and go on to NaN points
        with pytest.raises(ValueError, match="at n = 35 is inf"):
            wy.ProductCoord(sq.power(200.0), X, 0.3).fracs(np.arange(1, 100))

    def test_values_outside_the_split_range_raise(self):
        # a 134217729 * a split overflows past about 1.3e300
        with pytest.raises(ValueError, match="at n = 32 is 1.07"):
            wy.ProductCoord(sq.power(200.0), X, 0.3).fracs(np.arange(1, 34))
        with pytest.raises(ValueError, match="at n = 7 is 7.0"):  # a(n) f(x) = 7e299
            wy.ProductCoord(sq.custom("1e199*n"), X, 1e100).fracs(np.arange(1, 9))
        with pytest.raises(ValueError, match="f\\(x\\) at x = 1000.0 is inf"):
            wy.ProductCoord(sq.identity(), ex.parse_expr("exp(x)"), 1000.0)
        with pytest.raises(ValueError, match="f\\(x\\) at x = 1e\\+300 is 1e\\+300"):
            wy.ProductCoord(sq.identity(), X, 1e300).fracs(np.arange(1, 4))

    def test_tower_exponent_bit_budget(self):
        # b * log2(g) integer bits above 2**26 are refused before either route
        with pytest.raises(ValueError, match="tower exponent at n = 3 is 3000000000000.0"):
            wy.TowerCoord(X, sq.custom("1e12*n"), 1.5).fracs(np.array([3, 1]))
        with pytest.raises(ValueError, match="tower exponent at n = 1 is 1e\\+300"):
            wy.TowerCoord(X, sq.custom("1e300*n - 0.5"), 1.5).fracs(np.array([1]))
        # integer exponents: the fixed-point factor M**b has b * log2(M)
        # bits with g = M / 2**k, about 52 per unit for g = 1.1 and for a
        # base next to 1, where b * log2(g) alone would admit b past 2**63
        with pytest.raises(ValueError, match="tower exponent at n = 1 is 100000000.0"):
            wy.TowerCoord(X, sq.custom("1e8*n"), 1.1).fracs(np.array([1]))
        with pytest.raises(ValueError, match="tower exponent at n = 30 is 1.59"):
            wy.TowerCoord(X, sq.power(13), 1.000000000001).fracs(np.array([1, 30]))
        assert wy.TowerCoord(X, sq.identity(), 1.5).fracs(np.array([5000])).shape == (1,)

    def test_product_fracs_match_high_precision(self):
        # fractional parts of n*x for n up to 10^7: double-double keeps
        # them where a plain double product loses the low bits
        x = 0.7548776662466927  # irrational-ish double
        ns = np.array([10 ** 3, 10 ** 5, 10 ** 7], dtype=float)
        got = frac_product(ns, x)
        with mpmath.workprec(200):
            for n, g in zip(ns, got):
                ref = mpmath.frac(mpmath.mpf(int(n)) * mpmath.mpf(x))
                assert abs(float(ref) - g) < 1e-15

    def test_prefix_means_match_exact_for_integers(self):
        # integer values make every partial sum exact, so each mean is
        # the correctly rounded N-th prefix mean
        rng = np.random.default_rng(3)
        vals = rng.integers(-1000, 1000, size=9000).astype(float)
        grid = [1, 4095, 4096, 4097, 8192, 9000]
        exact = [sum(int(v) for v in vals[:N]) / N for N in grid]
        assert list(prefix_means(vals, grid)) == exact
        with pytest.raises(ValueError):
            prefix_means(vals, [0])

    @pytest.mark.parametrize("bad", [2.5, 10.7, True])
    def test_non_integral_prefix_lengths_are_refused(self, bad):
        # they were truncated: [10.7, 20] gave F_10, and [2.5] the mean of 2 values
        points = curve_gen(0.3).fracs(np.arange(1, 21))
        message = f"prefix length must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=message):
            wy.prefix_weyl_series(points, [1, -1], [bad, 20])
        with pytest.raises(ValueError, match=message):
            prefix_means(np.ones(20), [bad])

    def test_integral_float_prefix_lengths_read_as_integers(self):
        points = curve_gen(0.3).fracs(np.arange(1, 21))
        assert wy.prefix_weyl_series(points, [1, -1], [10.0, np.float64(20)]) == \
            wy.prefix_weyl_series(points, [1, -1], [10, 20])
        vals = np.arange(20.0)
        assert np.array_equal(prefix_means(vals, [3.0, 20.0]), prefix_means(vals, [3, 20]))

    def test_prefix_means_within_recursive_summation_bound(self):
        # a running sum of N unit phases errs by at most (N-1) 2^-53 N per
        # component, so each mean is within N 2^-52 of the exact mean
        n = 2 ** 17
        grid = [1, 2, 100, 4097, 10 ** 4, 65536, n]
        phases = {"random": np.random.default_rng(5).random(n),
                  "golden ratio": linear_gen(PHI).fracs(np.arange(1, n + 1))[:, 0]}
        for name, t in phases.items():
            vals = e_phase(t)
            for N, f in zip(grid, prefix_means(vals, grid)):
                for part, got in ((vals.real, f.real), (vals.imag, f.imag)):
                    assert abs(got - math.fsum(part[:N]) / N) <= N * 2.0 ** -52, \
                        (name, N)


def dyadic_tower_frac(g: float, b: int) -> float:
    """frac(g**b) exactly: g = M/2**k, so g**b = M**b / 2**(k*b); Python's
    int division rounds the low k*b bits correctly."""
    M, den = g.as_integer_ratio()
    kb = (den.bit_length() - 1) * b
    f = (M ** b % (1 << kb)) / (1 << kb)
    return f if f < 1.0 else 0.0


class TestTowerFixedPoint:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(g=st.floats(min_value=1.0, max_value=4.0, exclude_min=True),
           ns=st.lists(st.integers(min_value=1, max_value=600), min_size=1, max_size=8))
    def test_matches_exact_dyadic_value(self, g, ns):
        got = wy.TowerCoord(X, sq.identity(), g).fracs(np.array(ns))
        assert got.tolist() == [dyadic_tower_frac(g, n) for n in ns]

    @pytest.mark.parametrize("spec", [sq.identity(), sq.sqrt_residue(),
                                      sq.affine(3.0, 2.0), sq.affine(2.0, -2.0)])
    def test_unsorted_repeated_sparse_indices(self, spec):
        # sqrtres and affine(2, -2) reach b = 0 at n = 1 (and sqrtres at 4, 9)
        g = 1.2345678901234567
        indices = np.array([977, 4, 1, 9, 977, 250, 2, 4, 31, 1])
        b = np.asarray(sq.make_sequence(spec)(indices)).astype(int)
        got = wy.TowerCoord(X, spec, g).fracs(indices)
        assert got.tolist() == [dyadic_tower_frac(g, int(e)) for e in b]
        singles = [wy.TowerCoord(X, spec, g).fracs(np.array([n]))[0] for n in indices]
        assert got.tolist() == singles

    def test_integer_exponents_make_no_mpmath_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mpmath tower on an integer exponent")
        monkeypatch.setattr(numerics, "power_tower_frac_mp", refuse)
        g = 1.618
        coord = wy.TowerCoord(X, sq.identity(), g)
        got = coord.fracs(np.arange(1, 513))
        want, bits = numerics.power_tower_fracs_fixed(g, np.arange(1, 513))
        assert np.array_equal(got, want)
        assert coord.precision_bits == bits == math.ceil(
            512 * math.log2(g) - math.log2(g - 1.0)) + numerics.TOWER_GUARD_BITS

    def test_real_exponents_use_mpmath(self):
        # b = n/2 mixes integer and half-integer exponents in one call
        g = 1.75
        indices = np.array([7, 2, 33, 8, 1, 100])
        got = wy.TowerCoord(X, sq.affine(0.5), g).fracs(indices)
        assert got.tolist() == [float(power_tower_frac_mp(g, n / 2)) for n in indices]
