import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udlab import scatter as sc
from udlab import sequences as sq
from udlab.scatter import (fit_scatter, joint_scatter_check, scatter_sum,
                           weyl_growth_check)

IDENTITY = sq.make_sequence(sq.identity())
CONSTANT = sq.make_sequence(sq.custom("0*n + 1"))


def array_evaluator(values):
    return lambda n: values[np.asarray(n) - 1]


class TestScatterSum:
    def test_constant_sequence(self):
        # all 6 pairs contribute 1
        assert scatter_sum(CONSTANT, 4, 0.5).S == 6 / 16

    def test_identity_hand_enumeration(self):
        expect = (1 + 0.5 + 1 / 3 + 1 + 0.5 + 1) / 16
        assert scatter_sum(IDENTITY, 4, 1.0).S == pytest.approx(expect, abs=1e-15)

    def test_affine_hand_enumeration(self):
        a = sq.make_sequence(sq.affine(2.0, 0.0))
        assert scatter_sum(a, 3, 1.0).S == pytest.approx((0.5 + 0.25 + 0.5) / 9,
                                                         abs=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            scatter_sum(IDENTITY, 1, 1.0)
        with pytest.raises(ValueError):
            scatter_sum(IDENTITY, 10, 0.0)
        with pytest.raises(ValueError):
            scatter_sum(IDENTITY, 10, 1.5)
        with pytest.raises(ValueError):
            scatter_sum(IDENTITY, 10, 1.0, mode="bucketed", eta=0.2)

    def test_upper_bound_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 400))
            vals = rng.normal(size=n) * 10 ** rng.uniform(-2, 3)
            s = scatter_sum(array_evaluator(vals), n, 1.0).S
            assert 0.0 <= s <= (n - 1) / (2 * n) + 1e-15

    def test_bucketed_matches_exact_within_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(200, 1500))
            vals = np.cumsum(rng.random(n) * 10 ** rng.uniform(-1, 3))
            ev = array_evaluator(vals)
            for delta in (0.25, 0.5, 1.0):
                exact = scatter_sum(ev, n, delta, mode="exact")
                bucket = scatter_sum(ev, n, delta, mode="bucketed", eta=0.01)
                assert abs(exact.S - bucket.S) <= bucket.error_bound + 1e-15
                assert abs(exact.S - bucket.S) / exact.S <= delta * 0.01 + 1e-12

    def test_shift_and_negation_invariance(self):
        rng = np.random.default_rng(3)
        vals = np.cumsum(rng.random(200) * 5)
        base = scatter_sum(array_evaluator(vals), 200, 0.5).S
        shifted = scatter_sum(array_evaluator(vals + 17.25), 200, 0.5).S
        negated = scatter_sum(array_evaluator(-vals), 200, 0.5).S
        assert shifted == pytest.approx(base, abs=1e-13)
        assert negated == pytest.approx(base, abs=1e-13)

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=300) * 40
        ev = array_evaluator(vals)
        s = [scatter_sum(ev, 300, d).S for d in (0.25, 0.5, 1.0)]
        assert s[0] >= s[1] >= s[2]

    def test_auto_mode_switches(self):
        assert scatter_sum(IDENTITY, 512, 1.0).method == "exact"
        assert scatter_sum(IDENTITY, 2 ** 13 + 1, 1.0).method.startswith("bucketed")

    def test_iterated_exp_uses_exact_block_differences(self):
        ev = sq.make_sequence(sq.iterated_exp())
        n = 60
        got = scatter_sum(ev, n, 1.0, mode="exact").S
        # independent oracle from the evaluator's pairwise differences
        total = 0.0
        for nn in range(2, n + 1):
            for mm in range(1, nn):
                d = ev.abs_diff(nn, mm)
                total += 1.0 if d <= 1 else d ** -1.0
        assert got == pytest.approx(total / (n * n), rel=1e-12)


class TestFitScatter:
    def test_constant_never_decays(self):
        rep = fit_scatter(CONSTANT, 0.5, [8, 16, 32, 64])
        assert all(s == pytest.approx((N - 1) / (2 * N), abs=1e-12)
                   for s, N in zip(rep.S, rep.grid))
        assert rep.eps_hat < 0 and not rep.evidence_scattered

    def test_power_half_reports_scattered_evidence(self):
        # the conservative eps_hat is a min over the grid, so the verdict
        # needs N large enough that S has dropped below 1/log N
        rep = fit_scatter(sq.make_sequence(sq.power(0.5)), 1.0,
                          [2 ** k for k in range(10, 14)])
        assert rep.evidence_scattered
        assert "evidence" in rep.label

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            fit_scatter(IDENTITY, 1.0, [8, 16, 32])           # too few
        with pytest.raises(ValueError):
            fit_scatter(IDENTITY, 1.0, [4, 16, 32, 64])       # min < 8
        with pytest.raises(ValueError):
            fit_scatter(IDENTITY, 1.0, [8, 16, 16, 64])       # not increasing

    def test_methods_recorded_per_point(self):
        rep = fit_scatter(IDENTITY, 1.0, [8, 16, 32, 2 ** 14])
        assert rep.methods[0] == "exact"
        assert rep.methods[-1].startswith("bucketed")
        assert rep.error_bounds[0] == 0.0


class TestGrowthCheck:
    def test_identity_passes(self):
        rep = weyl_growth_check(IDENTITY, 1000, 1.0, 0.5, budget=10 ** 7)
        assert rep.verdict == "pass" and rep.coverage == "exhaustive"
        assert rep.witness is None

    def test_sqrt_residue_fails_with_verified_witness(self):
        a = sq.make_sequence(sq.sqrt_residue())
        rep = weyl_growth_check(a, 100, 0.1, 0.5, budget=10 ** 7)
        assert rep.verdict == "fail"
        n, m = rep.witness
        assert m > n + n / math.log(n) ** 1.1
        assert abs(a(m) - a(n)) <= 0.5

    def test_spec_pair_4_9_is_a_violation(self):
        # the block structure puts 4 and 9 at value 0 with 9 beyond the
        # growth threshold of 4
        a = sq.make_sequence(sq.sqrt_residue())
        assert 9 > 4 + 4 / math.log(4) ** 1.1
        assert a(9) == a(4) == 0.0

    def test_sampled_path_still_finds_block_collisions(self):
        a = sq.make_sequence(sq.sqrt_residue())
        rep = weyl_growth_check(a, 3000, 0.1, 0.5, budget=2000, seed=4)
        assert rep.coverage == "sampled"
        assert rep.verdict == "fail"
        n, m = rep.witness
        assert m > n + n / math.log(n) ** 1.1 and abs(a(m) - a(n)) <= 0.5

    def test_iterated_exp_fails_growth(self):
        ev = sq.make_sequence(sq.iterated_exp())
        rep = weyl_growth_check(ev, 200, 0.5, 0.5, budget=10 ** 6)
        assert rep.verdict == "fail"
        n, m = rep.witness
        assert ev.abs_diff(n, m) <= 0.5

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            weyl_growth_check(IDENTITY, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            weyl_growth_check(IDENTITY, 100, -1.0, 1.0)


def nan_at_five(n):
    v = np.asarray(n, dtype=float)
    return np.where(v == 5, np.nan, v)


class NanDifferenceHook:
    """The identity, except that every difference from n = 5 reads NaN
    through the exact-difference hook."""

    def __call__(self, n):
        return np.asarray(n, dtype=float)

    def abs_diff(self, n, m):
        n = np.asarray(n)
        return np.where(n == 5, np.nan, np.abs(n - np.asarray(m)).astype(float))


class TestNonFinite:
    def test_overflowing_values_raise(self):
        # n^1000 is inf from n = 3 on; this used to give S = nan and
        # evidence_scattered = True
        ev = sq.make_sequence(sq.custom("n^1000"))
        with pytest.raises(ValueError, match="finite"):
            fit_scatter(ev, 1.0, [8, 16, 32, 64])
        with pytest.raises(ValueError, match="finite"):
            joint_scatter_check([sq.custom("n^1000"), sq.identity()], 1.0,
                                [8, 16, 32, 64], 3)

    @pytest.mark.parametrize("mode", ["exact", "bucketed"])
    def test_nan_value_raises_in_pair_sum(self, mode):
        with pytest.raises(ValueError, match="finite"):
            scatter_sum(nan_at_five, 64, 1.0, mode=mode)

    def test_nan_value_raises_in_growth_scan(self):
        with pytest.raises(ValueError, match="finite"):
            weyl_growth_check(nan_at_five, 100, 0.5, 0.5)

    def test_nan_hook_difference_raises(self):
        hook = NanDifferenceHook()
        with pytest.raises(ValueError, match="NaN"):
            scatter_sum(hook, 64, 1.0, mode="exact")
        with pytest.raises(ValueError, match="NaN"):
            weyl_growth_check(hook, 100, 0.5, 0.5)
        with pytest.raises(ValueError, match="NaN"):
            weyl_growth_check(hook, 3000, 0.1, 0.5, budget=2000)

    def test_infinite_hook_differences_stay_legal(self):
        # iterated-exp blocks overflow doubles from n = e^7 ~ 1097 on
        ev = sq.make_sequence(sq.iterated_exp())
        assert np.isinf(ev.abs_diff(1200, 10))
        assert math.isfinite(scatter_sum(ev, 1200, 1.0, mode="exact").S)
        assert weyl_growth_check(ev, 1200, 0.5, 0.5).verdict == "fail"


def iterexp_block_sum(N: int, delta: float) -> float:
    """S_delta(N) of exp(exp(floor(log n))) from its blocks in mpmath: pairs
    inside a block cost 1, pairs across blocks j < l cost
    min(|exp(e^l) - exp(e^j)|^-delta, 1) each."""
    mpmath.mp.prec = 80
    counts = {}
    for n in range(1, N + 1):
        j = int(mpmath.floor(mpmath.log(n)))
        counts[j] = counts.get(j, 0) + 1
    blocks = sorted(counts)
    total = mpmath.mpf(0)
    for i, j in enumerate(blocks):
        total += counts[j] * (counts[j] - 1) // 2
        for l in blocks[i + 1:]:
            gap = mpmath.exp(mpmath.exp(l)) - mpmath.exp(mpmath.exp(j))
            total += counts[j] * counts[l] * min(gap ** -delta, 1)
    return float(total / N ** 2)


class TestPairsBeyondDoubleRange:
    @pytest.mark.parametrize("delta", [0.001, 0.1, 1.0])
    def test_iterated_exp_matches_block_sum(self, delta):
        # from n = 1097 on, differences exceed 2^1024; at delta = 0.001 each
        # such pair still costs up to 2^-1.02, not 0
        ev = sq.make_sequence(sq.iterated_exp())
        got = scatter_sum(ev, 1200, delta)
        assert got.method == "exact" and got.error_bound == 0.0
        assert got.S == pytest.approx(iterexp_block_sum(1200, delta), rel=1e-13)

    def test_overflowing_plain_differences(self):
        # finite values whose differences overflow: refused where their
        # price 2^(-1024 delta) is above 2^-53, priced 0 beyond that
        ev = array_evaluator(np.array([1e308, -1e308] * 32))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="overflow"):
                scatter_sum(ev, 64, 0.01, mode="exact")
            assert scatter_sum(ev, 64, 1.0, mode="exact").S == pytest.approx(
                32 * 31 / 64 ** 2, rel=1e-15)


class CountingEvaluator:
    """A plain evaluator (no abs_diff hook) that counts its calls."""

    def __init__(self, spec):
        self.evaluate = sq.make_sequence(spec)
        self.calls = 0

    def __call__(self, n):
        self.calls += 1
        return self.evaluate(n)


class TestOneEvaluationPerCall:
    @pytest.mark.parametrize("N, budget, coverage", [
        (1000, 10 ** 7, "exhaustive"), (3000, 2000, "sampled")])
    def test_growth_scan_evaluates_once(self, N, budget, coverage):
        a = CountingEvaluator(sq.log_power(2.5))
        rep = weyl_growth_check(a, N, 0.1, 0.5, budget=budget)
        assert rep.coverage == coverage
        assert a.calls == 1

    def test_exact_sum_evaluates_once(self):
        a = CountingEvaluator(sq.power(0.5))
        scatter_sum(a, 1500, 1.0, mode="exact")
        assert a.calls == 1

    def test_fit_scatter_evaluates_once(self):
        # exact and bucketed grid points share one a(1..max grid)
        a = CountingEvaluator(sq.power(0.5))
        rep = fit_scatter(a, 1.0, [8, 300, 2 ** 13, 2 ** 13 + 7])
        assert rep.methods[-2] == "exact" and rep.methods[-1].startswith("bucketed")
        assert a.calls == 1

    def test_growth_scan_never_evaluates_a1(self):
        # a(1) divides by zero; the growth condition never constrains n = 1
        a = sq.make_sequence(sq.custom("n + 1/(n-1)"))
        with pytest.raises(ValueError, match="division by zero"):
            a(1)
        assert weyl_growth_check(a, 200, 0.5, 0.5).verdict == "pass"


class TestJointScatter:
    def test_structure_and_axis_directions(self):
        rep = joint_scatter_check([sq.identity(), sq.power(0.5)], 1.0,
                                  [8, 16, 32, 64], directions=5, seed=2)
        assert len(rep.reports) == 5
        assert np.array_equal(rep.directions[0], [1, 0])
        assert np.array_equal(rep.directions[1], [0, 1])
        assert rep.min_eps_hat == min(r.eps_hat for r in rep.reports)
        assert "sampled" in rep.label

    def test_degenerate_pair_direction(self):
        # (identity, identity) along (1,-1): difference is constantly zero,
        # every pair contributes 1
        combo = sq.linear_combination([(1.0, sq.identity()), (-1.0, sq.identity())])
        ev = sq.make_sequence(combo)
        for N in (8, 32, 128):
            assert scatter_sum(ev, N, 1.0).S == pytest.approx((N - 1) / (2 * N),
                                                              abs=1e-13)

    def test_log_direction_not_scattered(self):
        # (n + log n, identity) along (1,-1)/sqrt(2) is proportional to log n,
        # whose pair sum decays slower than any power of log N
        w = 1 / math.sqrt(2)
        combo = sq.linear_combination([(w, sq.n_plus_log()), (-w, sq.identity())])
        rep = fit_scatter(sq.make_sequence(combo), 1.0,
                          [2 ** k for k in range(10, 15)])
        assert all(s * math.log(N) > 0.3 for s, N in zip(rep.S, rep.grid))

    def test_axis_direction_reduces_to_single_sequence(self):
        grid = [8, 16, 32, 64]
        rep = joint_scatter_check([sq.identity(), sq.power(0.5)], 1.0, grid,
                                  directions=2, seed=0)
        solo = fit_scatter(sq.make_sequence(sq.identity()), 1.0, grid)
        assert rep.reports[0].S == solo.S

    def test_growth_pass_implies_scattered_evidence(self):
        # exhaustive growth pass at (eps, g) forces the pair sum below
        # (log N)^-(1+eps') for eps' < eps on the same range
        lp = sq.make_sequence(sq.log_power(2.5))
        growth = weyl_growth_check(lp, 10 ** 4, 0.4, 0.3, budget=10 ** 8)
        assert growth.verdict == "pass" and growth.coverage == "exhaustive"
        rep = fit_scatter(lp, 1.0, [2 ** k for k in range(10, 14)])
        assert rep.eps_hat > 0
        assert rep.evidence_scattered

    def test_validation(self):
        with pytest.raises(ValueError):
            joint_scatter_check([sq.identity()], 1.0, [8, 16, 32, 64], 3)
        with pytest.raises(ValueError):
            joint_scatter_check([sq.identity(), sq.identity()], 1.0,
                                [8, 16, 32, 64], 1)


def fsum_pair_sum(vals, delta: float) -> float:
    """S_delta(N) by a pure-Python fsum over all pairs m < n."""
    vals = [float(v) for v in vals]
    prices = (1.0 if abs(x - y) <= 1.0 else abs(x - y) ** -delta
              for n, x in enumerate(vals) for y in vals[:n])
    return math.fsum(prices) / len(vals) ** 2


class RowPrices:
    """Pair differences that are inf, priced 0 at delta >= 53/1024, except
    in the given rows: S(N) is then the sum of a few row sums, so a change
    in how one of them is summed shows in the last bit of S."""

    def __init__(self, rows):
        self.rows = np.asarray(rows)

    def __call__(self, n):
        return np.asarray(n, dtype=float)

    def abs_diff(self, n, m):
        hi, lo = np.maximum(n, m), np.minimum(n, m)
        d = 1.0 + (hi * 7919 + lo * 104729) % 1013 / 7.3
        return np.where(np.isin(hi, self.rows), d, np.inf)


class TestExactKernel:
    """The one-pass lower-triangle kernel against independent oracles."""

    @pytest.mark.parametrize("block", [16, 300, sc._BLOCK_ELEMENTS])
    def test_matches_fsum_oracle(self, monkeypatch, block):
        # unsorted values with ties; small blocks put many block boundaries
        # (and truncated last blocks) inside N <= 300
        monkeypatch.setattr(sc, "_BLOCK_ELEMENTS", block)
        rng = np.random.default_rng(11)
        for n in [2, 3, 17, 64, 129, 300] + [int(k) for k in rng.integers(2, 301, 4)]:
            vals = np.round(rng.normal(size=n) * 10 ** rng.uniform(-1, 2), 1)
            vals[rng.integers(0, n, n // 3)] = vals[0]
            ev = array_evaluator(vals)
            for delta in (0.25, 0.5, 1.0):
                want = fsum_pair_sum(vals, delta)
                got = scatter_sum(ev, n, delta, mode="exact").S
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("block", [300, 4000, sc._BLOCK_ELEMENTS])
    def test_fit_scatter_equals_scatter_sum_bitwise(self, monkeypatch, block):
        # the block layout depends on the row index only, so a grid point
        # gets the same S whatever the largest N of the pass; RowPrices
        # makes a row summed in another order show in the last bit of S
        monkeypatch.setattr(sc, "_BLOCK_ELEMENTS", block)
        grid = [8, 20, 37, 50, 100, 200, 361, 362, 363, 500, 1000]
        rng = np.random.default_rng(12)
        for a in (RowPrices(grid), sq.make_sequence(sq.power(0.5)),
                  array_evaluator(rng.normal(size=1000) * 30)):
            for delta in (0.25, 0.5, 1.0):
                rep = fit_scatter(a, delta, grid)
                assert rep.S == [scatter_sum(a, N, delta).S for N in grid]

    def test_iterated_exp_prices_agree_across_grid(self):
        ev = sq.make_sequence(sq.iterated_exp())
        grid = [8, 600, 1100, 1200]
        rep = fit_scatter(ev, 0.01, grid)
        assert rep.S == [scatter_sum(ev, N, 0.01).S for N in grid]


def brute_force_count(vals: np.ndarray, t: float) -> int:
    """Pairs i < j of sorted vals with vals[i] >= vals[j] - t: the rounded
    needle vals[j] - t is the comparison the bucket edges are counted by."""
    return int(np.count_nonzero(np.tril(vals[None, :] >= vals[:, None] - t, -1)))


value_lists = st.lists(st.one_of(st.integers(-40, 40).map(lambda k: k / 4),
                                 st.floats(-1e5, 1e5, allow_nan=False)),
                       min_size=2, max_size=120)


class TestBucketProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(value_lists, st.lists(st.floats(0.0, 1e5), min_size=1, max_size=6))
    def test_merge_counts_equal_brute_force(self, vals, thresholds):
        vals = np.sort(np.asarray(vals, dtype=float))
        got = sc._count_pairs_within(vals, np.asarray(thresholds))
        assert list(got) == [brute_force_count(vals, t) for t in thresholds]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(value_lists, st.sampled_from([0.25, 0.5, 1.0]), st.sampled_from([0.005, 0.01, 0.05]))
    def test_bucketed_within_error_bound(self, vals, delta, eta):
        vals = np.asarray(vals, dtype=float)
        ev, n = array_evaluator(vals), len(vals)
        exact = scatter_sum(ev, n, delta, mode="exact").S
        bucket = scatter_sum(ev, n, delta, mode="bucketed", eta=eta)
        # slack for the rounding of the two sums, far below the bound
        assert abs(bucket.S - exact) <= bucket.error_bound + 1e-13 * exact
