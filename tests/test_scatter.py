import math
import re

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

    def test_count_is_an_integer(self):
        # 10.0 raised numpy's TypeError from an index range ending at 11.0
        a = sq.make_sequence(sq.power(0.5))
        assert scatter_sum(a, 10.0, 1.0) == scatter_sum(a, 10, 1.0)
        for N in (10.7, True):
            with pytest.raises(ValueError, match=re.escape(f"N must be an integer, got {N!r}")):
                scatter_sum(a, N, 1.0)

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

    def test_bucketed_prices_a_pair_across_the_rounded_needle(self):
        # 1.1 - 0.1 rounds to 1.0 but fl(1.1 - 1) = 0.1000000000000001 > 0.1:
        # the pair is counted beyond edge 1; with no bucket above it (span
        # <= 1) it was priced 0, and S read 0.0 for 0.25
        vals = np.array([0.1, 1.1])
        for delta in (0.25, 1.0):
            bucket = scatter_sum(array_evaluator(vals), 2, delta, mode="bucketed")
            assert abs(bucket.S - 0.25) <= bucket.error_bound + 1e-16

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

    def test_grid_points_are_integers(self):
        # 8.9 was truncated to 8 and fitted there
        rep = fit_scatter(IDENTITY, 1.0, [8.0, 16, 32.0, 64])
        assert rep.grid == [8, 16, 32, 64] and all(type(N) is int for N in rep.grid)
        assert rep.S == fit_scatter(IDENTITY, 1.0, [8, 16, 32, 64]).S
        for bad in (8.9, True):
            with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
                fit_scatter(IDENTITY, 1.0, [bad, 16, 32, 64])

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

    def test_counts_and_seed_are_integers(self):
        # N = 100.5 passed and printed N=100.5; budget = 1e3 raised numpy's
        # TypeError in the sampled branch; seeds 1, 1.0 and True drew three
        # streams (188877, 188889 and 188876 pairs checked)
        a = sq.make_sequence(sq.power(0.5))
        assert weyl_growth_check(a, 100.0, 0.1, 0.5) == weyl_growth_check(a, 100, 0.1, 0.5)
        sampled = weyl_growth_check(a, 20000, 0.5, 0.5, budget=1000, seed=1)
        assert sampled.coverage == "sampled"
        assert weyl_growth_check(a, 20000.0, 0.5, 0.5, budget=1e3, seed=1.0) == sampled
        for name, bad in [("N", 100.5), ("budget", 1000.5), ("seed", True), ("seed", 1.5)]:
            args = {"N": 100, name: bad}
            message = f"{name} must be an integer, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                weyl_growth_check(a, eps=0.1, g=0.5, **args)

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

    @pytest.mark.parametrize("spec,eps,g,verdict", [(sq.identity(), 1.0, 0.5, "pass"),
                                                    (sq.log_power(1.5), 0.3, 0.5, "fail")])
    def test_block_size_invariance(self, monkeypatch, spec, eps, g, verdict):
        a, N, reports = sq.make_sequence(spec), 300, []
        for block in (1, 1000, sc._BLOCK_ELEMENTS):
            monkeypatch.setattr(sc, "_BLOCK_ELEMENTS", block)
            reports.append(weyl_growth_check(a, N, eps, g))
        assert reports[0] == reports[1] == reports[2]
        rep = reports[0]
        assert rep.verdict == verdict and rep.coverage == "exhaustive"
        # the constrained pairs up to and including the witness, row by row
        last = rep.witness or (N, N)
        assert rep.pairs_checked == sum(
            1 for n in range(2, N + 1) for m in range(n + 1, N + 1)
            if m > n + n / math.log(n) ** (1 + eps) and (n, m) <= last)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(["increasing", "decreasing", "plateaued", "one-step-back"]),
           st.lists(st.sampled_from([0.0, 0.05, 0.2, 0.3, 0.5, 1.0, 2.5]),
                    min_size=7, max_size=70),
           st.integers(0, 10 ** 6), st.sampled_from([0.1, 0.5, 2.0]),
           st.sampled_from([0.25, 0.5, 1.0]))
    def test_monotone_values_match_row_major_oracle(self, shape, steps, pick, eps, g):
        # a(2..N) from steps: the scan may stop at each row's boundary pair
        # only when the values never fall or never rise; one step back to
        # a(2) breaks that, and the row blocks must find the witness past
        # the boundary pair
        vals = np.concatenate(([0.0], np.cumsum(steps)))
        if shape == "increasing":
            vals += 0.01 * np.arange(len(vals))
        elif shape == "decreasing":
            vals = -vals
        elif shape == "one-step-back":
            k = 1 + pick % (len(vals) - 1)
            vals[k:] -= vals[k]
        N = len(vals) + 1
        a = array_evaluator(np.concatenate(([math.nan], vals)))  # a(1) is never read
        constrained = [(n, m) for n in range(2, N + 1) for m in range(n + 1, N + 1)
                       if m > n + n / math.log(n) ** (1 + eps)]
        witness = next(((n, m) for n, m in constrained
                        if not abs(vals[m - 2] - vals[n - 2]) > g), None)
        want = sc.GrowthReport(eps, g, N, "pass" if witness is None else "fail", witness,
                               "exhaustive", sum(1 for p in constrained
                                                 if witness is None or p <= witness))
        for block in (1, 1000, sc._BLOCK_ELEMENTS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sc, "_BLOCK_ELEMENTS", block)
                assert weyl_growth_check(a, N, eps, g) == want

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            weyl_growth_check(IDENTITY, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            weyl_growth_check(IDENTITY, 100, -1.0, 1.0)

    @pytest.mark.parametrize("eps, g, budget, message", [
        (math.inf, 0.3, 10, "eps and g must be finite and positive, got eps = inf, g = 0.3"),
        (0.4, math.inf, 10, "got eps = 0.4, g = inf"),
        (math.nan, 0.3, 10, "got eps = nan"),
        (0.4, 0.3, -5, "budget must be >= 0, got -5"),
    ])
    def test_out_of_range_parameters_refused_before_any_value(self, eps, g, budget, message):
        # --eps inf printed "verdict: pass", --g inf a witness, and
        # --budget -5 "sampled (88 pairs)"
        def no_values(n):
            raise AssertionError("sequence evaluated before the parameters were checked")
        with pytest.raises(ValueError, match=re.escape(message)):
            weyl_growth_check(no_values, 10 ** 4, eps, g, budget=budget)


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
        # price 2^(-1024 delta) is above 2^-53, priced 0 beyond that, with
        # no RuntimeWarning from the subtraction (pytest makes it an error);
        # unordered, then rising and falling (no absolute value)
        for vals in ([1e308, -1e308] * 32, [-1e308] * 32 + [1e308] * 32,
                     [1e308] * 32 + [-1e308] * 32):
            ev = array_evaluator(np.array(vals))
            with pytest.raises(ValueError, match="overflow"):
                scatter_sum(ev, 64, 0.01, mode="exact")
            assert scatter_sum(ev, 64, 1.0, mode="exact").S == pytest.approx(
                32 * 31 / 64 ** 2, rel=1e-15)

    def test_bucketed_refuses_an_infinite_span(self):
        # this warned, then raised OverflowError from ceil(log(inf))
        ev = array_evaluator(np.array([1e308, -1e308] * 32))
        with pytest.raises(ValueError, match=re.escape("finite span, got max - min = inf")):
            scatter_sum(ev, 64, 1.0, mode="bucketed")

    @pytest.mark.parametrize("vals, witness", [
        ([1e308, -1e308] * 32, (2, 6)),         # no order: the block scan
        ([-1e308] * 32 + [1e308] * 32, (2, 6)),  # one step overflows: the monotone scan
    ])
    def test_growth_scan_with_overflowing_differences(self, vals, witness):
        # an inf difference exceeds g; the ties decide, with no warning
        rep = weyl_growth_check(array_evaluator(np.array(vals)), 64, 0.5, 0.5)
        assert (rep.verdict, rep.witness, rep.coverage) == ("fail", witness, "exhaustive")


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

    def test_directions_and_seed_are_integers(self):
        # directions = 2.5 ran 3 directions
        specs, grid = [sq.identity(), sq.power(0.5)], [8, 16, 32, 64]
        rep = joint_scatter_check(specs, 1.0, grid, directions=3.0, seed=2.0)
        want = joint_scatter_check(specs, 1.0, grid, directions=3, seed=2)
        assert [r.S for r in rep.reports] == [r.S for r in want.reports]
        assert all(np.array_equal(u, v) for u, v in zip(rep.directions, want.directions))
        for directions, seed, message in [(2.5, 0, "directions must be an integer, got 2.5"),
                                          (3, True, "seed must be an integer, got True")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                joint_scatter_check(specs, 1.0, grid, directions, seed)

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
    in how one of them is summed shows in the last bit of S. Differences
    in those rows start at low; those below 1, and 0, price 1."""

    def __init__(self, rows, low=1.0):
        self.rows = np.asarray(rows)
        self.low = low

    def __call__(self, n):
        return np.asarray(n, dtype=float)

    def abs_diff(self, n, m):
        hi, lo = np.maximum(n, m), np.minimum(n, m)
        d = self.low + (hi * 7919 + lo * 104729) % 1013 / 7.3
        return np.where(np.isin(hi, self.rows), d, np.inf)


def ordered_values(rng, n: int):
    """Values for each path of the exact kernel, by name: never decreasing
    or never increasing with ties and gaps of exactly 1, and spans past
    2^53 (where a gap of 1 rounds to 0 or 2) sorted, reversed and shuffled."""
    steps = np.sort(rng.choice([0.0, 1.0, 1.0, 0.25, 3.0], size=n))
    rising = np.cumsum(rng.permutation(steps)) - 0.5 * n
    wide = np.concatenate((2.0 ** 53 + np.arange(n // 2) - n // 4,
                           rng.uniform(-1, 1, n - n // 2) * 2.0 ** 60))
    return {"rising": rising, "falling": rising[::-1].copy(), "wide rising": np.sort(wide),
            "wide falling": np.sort(wide)[::-1].copy(), "wide": rng.permutation(wide)}


def direct_block_sums(a, Ns, delta: float):
    """S(N) by the exact kernel's direct formula, frozen: on the blocks of
    _BLOCK_ELEMENTS pairs, min(|d|^-delta, 1), an inf d priced
    exp2(-delta * log2_abs_diff) where a has that hook, zeros on and above
    the diagonal, np.sum along each row, fsum of the row sums. a is an
    array of values a(1..) or an evaluator with the abs_diff hook."""
    top = max(Ns)
    row_sums = np.zeros(top + 1)
    lo = 2
    while lo <= top:
        hi = lo + max(1, (math.isqrt(lo * lo + 4 * sc._BLOCK_ELEMENTS) - lo) // 2)
        ns, cols = np.arange(lo, min(hi, top + 1))[:, None], np.arange(1, hi)
        ms = np.minimum(cols, top)[None, :]
        with np.errstate(divide="ignore", over="ignore"):
            d = a.abs_diff(ns, ms) if hasattr(a, "abs_diff") else np.abs(a[ns - 1] - a[ms - 1])
            c = np.minimum(np.power(d, -delta), 1.0)
        big = np.isinf(d)
        if hasattr(a, "log2_abs_diff") and np.any(big):
            c[big] = np.exp2(-delta * a.log2_abs_diff(*(idx[big] for idx in
                                                        np.broadcast_arrays(ns, ms))))
        c[:, lo - 1:] = np.where(cols[lo - 1:] < ns, c[:, lo - 1:], 0.0)
        row_sums[lo:lo + len(ns)] = np.sum(c, axis=1)
        lo = hi
    return [math.fsum(row_sums[:N + 1]) / (N * N) for N in Ns]


class TestExactKernel:
    """The one-pass lower-triangle kernel against independent oracles."""

    @pytest.mark.parametrize("block", [16, 300, sc._BLOCK_ELEMENTS])
    def test_matches_fsum_oracle(self, monkeypatch, block):
        # unsorted values with ties, then values in order (no absolute value,
        # a clamp from the first row's d <= 1 on); small blocks put many
        # block boundaries (and truncated last blocks) inside N <= 300
        monkeypatch.setattr(sc, "_BLOCK_ELEMENTS", block)
        rng = np.random.default_rng(11)
        for n in [2, 3, 17, 64, 129, 300] + [int(k) for k in rng.integers(2, 301, 4)]:
            vals = np.round(rng.normal(size=n) * 10 ** rng.uniform(-1, 2), 1)
            vals[rng.integers(0, n, n // 3)] = vals[0]
            cases = [vals] + (list(ordered_values(rng, n).values()) if n in (3, 64, 300) else [])
            for vals in cases:
                ev = array_evaluator(vals)
                for delta in (0.25, 0.5, 1.0):
                    want = fsum_pair_sum(vals, delta)
                    got = scatter_sum(ev, n, delta, mode="exact").S
                    assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("block", [16, 300, 4000, sc._BLOCK_ELEMENTS])
    def test_equals_direct_block_formula_bitwise(self, monkeypatch, block):
        # the clamp max(d, 1) before the price, the reciprocal at delta = 1
        # and the skipped absolute value and clamp of ordered values leave
        # every price, and so every row sum and S, as the direct formula has
        # it; so do the hook's differences and the inf differences of values
        # of infinite span (priced 0), unordered, rising and falling
        monkeypatch.setattr(sc, "_BLOCK_ELEMENTS", block)
        rng = np.random.default_rng(13)
        Ns = [2, 3, 8, 63, 64, 65, 361, 362, 700]
        mixed = np.round(rng.normal(size=700) * 30, 1)
        mixed[rng.integers(0, 700, 200)] = mixed[0]
        huge = rng.choice([1e308, -1e308, 1.5e308], size=700)
        huge[rng.integers(0, 700, 40)] = np.round(rng.normal(size=40) * 3, 1)
        for name, a in [("mixed", mixed), *ordered_values(rng, 700).items(),
                        ("huge", huge), ("huge rising", np.sort(huge)),
                        ("huge falling", np.sort(huge)[::-1].copy()),
                        ("row prices", RowPrices(Ns[2:], low=0.0))]:
            ev = a if hasattr(a, "abs_diff") else array_evaluator(a)
            for delta in (0.25, 0.5, 1.0):
                got = sc._exact_sums(ev, Ns, delta)
                assert got == direct_block_sums(a, Ns, delta), (name, delta)
        tower, grid = sq.make_sequence(sq.iterated_exp()), [8, 600, 1100, 1200]
        for delta in (0.01, 1.0):  # blocks 0..6 finite, block 7 (n >= 1097) past 2^1024
            assert sc._exact_sums(tower, grid, delta) == direct_block_sums(tower, grid, delta)

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


def brute_force_moments(vals: np.ndarray, t: float):
    """Pairs i < j of sorted vals counted beyond t, vals[i] < fl(vals[j] - t)
    (the rounded needle the bucket edges are counted by): their number, the
    real sum of d = vals[j] - vals[i] rounded once, the sum of fl(d)^2, and
    the magnitude sum (|u_i| + |u_j|)^2 that the sum of d^2 is formed from,
    u = vals - median."""
    i, j = np.nonzero(np.triu(vals[:, None] < (vals - t)[None, :], 1))
    u = np.abs(vals - vals[len(vals) // 2])
    sum_d = math.fsum(np.concatenate((vals[j], -vals[i])))
    return (len(i), sum_d, math.fsum((vals[j] - vals[i]) ** 2),
            math.fsum((u[i] + u[j]) ** 2))


value_lists = st.lists(st.one_of(st.integers(-40, 40).map(lambda k: k / 4),
                                 st.floats(-1e5, 1e5, allow_nan=False)),
                       min_size=2, max_size=120)

U = 2.0 ** -53


class TestBucketProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(value_lists, st.lists(st.floats(0.0, 1e5), min_size=1, max_size=6))
    def test_merge_counts_equal_brute_force(self, vals, thresholds):
        # counts exactly; the sum of d within its reported rounding bound
        # (plus the oracle's one rounding); the sum of d^2 within 8 (n + 2) u
        # times the magnitudes it is formed from
        vals = np.sort(np.asarray(vals, dtype=float))
        counts, moments = sc._far_moments(vals, np.asarray(thresholds))
        for t, count, (sum_d, sum_dd, bound) in zip(thresholds, counts, moments):
            want, want_d, want_dd, size = brute_force_moments(vals, t)
            assert count == want
            assert abs(sum_d - want_d) <= bound + U * abs(want_d)
            assert abs(sum_dd - want_dd) <= 8 * (len(vals) + 2) * U * size

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(value_lists, st.sampled_from([0.25, 0.5, 1.0]), st.sampled_from([0.005, 0.01, 0.05]))
    def test_bucketed_within_error_bound(self, vals, delta, eta):
        vals = np.asarray(vals, dtype=float)
        ev, n = array_evaluator(vals), len(vals)
        exact = scatter_sum(ev, n, delta, mode="exact").S
        bucket = scatter_sum(ev, n, delta, mode="bucketed", eta=eta)
        # slack for the rounding of the two sums, far below the bound
        assert abs(bucket.S - exact) <= bucket.error_bound + 1e-13 * exact

    @pytest.mark.parametrize("spec", [sq.power(0.5), sq.log_power(2.0), sq.power(0.9)])
    def test_bucketed_close_to_exact(self, spec):
        # the bound allows (1 + eta)^(delta/2) - 1, about 5e-3 at delta = 1;
        # the Taylor value inside the bracket lands within about 3e-6
        a = sq.make_sequence(spec)
        for delta in (1.0, 0.5):
            exact = scatter_sum(a, 8192, delta, mode="exact").S
            bucket = scatter_sum(a, 8192, delta, mode="bucketed", eta=0.01).S
            assert abs(bucket - exact) / exact <= 1e-5

    def test_one_merge_per_coarse_edge(self, monkeypatch):
        # (log n)^2 spans 123 at N = 2^16: 41 edges of ratio 1.133, where
        # buckets of ratio 1 + eta took 486
        sizes, far_moments = [], sc._far_moments

        def counting(vals, edges):
            sizes.append(len(edges))
            return far_moments(vals, edges)

        monkeypatch.setattr(sc, "_far_moments", counting)
        scatter_sum(sq.make_sequence(sq.log_power(2.0)), 2 ** 16, 1.0, mode="bucketed", eta=0.01)
        assert len(sizes) == 1 and sizes[0] <= 50

    @pytest.mark.parametrize("delta", [0.01, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("eta", [0.001, 0.01, 0.05])
    def test_edge_ratio_is_the_widest_within_the_bound(self, delta, eta):
        def width(r):
            return delta * (delta + 1) * (r - 1) ** 2 * r ** delta / 8
        r = sc._edge_ratio(delta, eta)
        rho = (1 + eta) ** (delta / 2) - 1
        assert width(r) <= rho < width(r + 1e-9)
