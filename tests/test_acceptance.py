"""Acceptance suite.

One test per pinned criterion, each printing a status line with its
runtime (run with `pytest tests/test_acceptance.py -v -s` to see them).
Every tolerance is pinned here, not tuned at runtime.

Two checks compare a measurement against a law derived in closed form,
not only against a fitted exponent; their docstrings carry the
derivation, and each has a companion covering the neighbouring claim:

  * test_criterion_2_power_half_slope_pinned_window: the n^0.5 pair sum
    carries a ln N factor, S(N) sqrt(N) = (2/3) ln N - 4/9 + O(N^-1/2)
  * test_criterion_6a_monomial_exponents_pinned_interval: x^d on [1, 2]
    has no stationary point, so |I(R)| = c_d / R (1 + O(R^-2)) for every d
"""

import json
import math
import os
import time

import mpmath
import numpy as np
import pytest

from udlab import expr as ex
from udlab import lab
from udlab import sequences as sq
from udlab import weyl as wy
from udlab.discrepancy import star_discrepancy_1d, star_discrepancy_kd
from udlab.numerics import power_tower_frac_mp
from udlab.oscillatory import (decay_fit, osc_integral, vdc_bound_first,
                               vdc_bound_high)
from udlab.scatter import fit_scatter, scatter_sum, weyl_growth_check

from test_discrepancy import brute_force_2d
from conftest import random_expr_and_point

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def report(name: str, ok: bool, elapsed: float, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.1f}s) {detail}")


# -- criterion 1 -------------------------------------------------------------

def _seeded_sequence(rng: np.random.Generator, kind: int, n: int) -> np.ndarray:
    scale = 10.0 ** rng.uniform(-2, 3)
    if kind == 0:
        return np.cumsum(rng.random(n)) * scale
    if kind == 1:
        return rng.normal(size=n) * scale
    if kind == 2:
        return np.arange(1, n + 1) ** rng.uniform(0.3, 1.5) * scale
    return np.sort(rng.random(n)) * scale


def test_criterion_1_bucketed_matches_exact():
    """Bucketed scattered sums (eta = 0.01) agree with the exact O(N^2)
    pair sum within 1% relative error on 50 seeded sequences, N <= 4096,
    delta in {0.25, 0.5, 1}. Budget 60 s."""
    t0 = time.time()
    rng = np.random.default_rng(20250809)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(256, 4097))
        vals = _seeded_sequence(rng, trial % 4, n)
        ev = lambda idx, v=vals: v[np.asarray(idx) - 1]
        for delta in (0.25, 0.5, 1.0):
            exact = scatter_sum(ev, n, delta, mode="exact").S
            bucketed = scatter_sum(ev, n, delta, mode="bucketed", eta=0.01).S
            worst = max(worst, abs(exact - bucketed) / exact)
    elapsed = time.time() - t0
    ok = worst <= 0.01 and elapsed <= 60
    report("criterion 1: bucketed vs exact scattered sums", ok, elapsed,
           f"worst rel err {worst:.2e}")
    assert worst <= 0.01
    assert elapsed <= 60


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_power_half_slope_pinned_window():
    """Pinned decay rate for a(n) = n^0.5 at delta = 1 over N in
    {2^8, ..., 2^14}: the log-corrected slope of log(S / ln N) against
    log N is -0.5 +/- 0.1, and S(N) sqrt(N) matches its closed form at
    every grid point. Budget 30 s.

    Law: near pairs (sqrt n - sqrt m <= 1) number (4/3) N^(3/2), and far
    pairs give N^(3/2) ((2/3) ln N - 16/9) through a harmonic tail, so
    S(N) sqrt(N) = (2/3) ln N - 4/9 + O(N^-1/2). The plain slope of log S
    is then -1/2 + 1/(ln N - 2/3), about -0.355 here (checked by the
    companion); dividing out ln N leaves -1/2 + O(1/ln^2 N), about -0.49.
    Oracle: |S sqrt(N) - (2/3) ln N + 4/9| <= 1/sqrt(N) + sqrt(N) * the
    bucketed error bound (non-zero only at N = 2^14).
    """
    t0 = time.time()
    rep = fit_scatter(sq.make_sequence(sq.power(0.5)), 1.0,
                      [2 ** k for k in range(8, 15)])
    elapsed = time.time() - t0
    grid = np.asarray(rep.grid, dtype=float)
    slope = float(np.polyfit(np.log(grid), np.log(np.asarray(rep.S) / np.log(grid)), 1)[0])
    gaps = [abs(S * math.sqrt(N) - 2 / 3 * math.log(N) + 4 / 9)
            for S, N in zip(rep.S, rep.grid)]
    allowed = [1 / math.sqrt(N) + math.sqrt(N) * err
               for N, err in zip(rep.grid, rep.error_bounds)]
    law_ok = all(g <= lim for g, lim in zip(gaps, allowed))
    ok = abs(slope + 0.5) <= 0.1 and law_ok and elapsed <= 30
    report("criterion 2: n^0.5 log-corrected slope on pinned window", ok,
           elapsed, f"slope of S/ln N {slope:.4f} (pinned -0.5 +/- 0.1), "
           f"max |S sqrt(N) - (2/3) ln N + 4/9| {max(gaps):.4f}")
    assert elapsed <= 30
    assert abs(slope + 0.5) <= 0.1, (
        f"slope of log(S / ln N) is {slope:.4f}; the law "
        f"S sqrt(N) = (2/3) ln N - 4/9 gives -1/2 + O(1/ln^2 N), see docstring")
    for N, g, lim in zip(rep.grid, gaps, allowed):
        assert g <= lim, (
            f"N={N}: |S sqrt(N) - (2/3) ln N + 4/9| = {g:.4g} exceeds "
            f"{lim:.4g} = 1/sqrt(N) + sqrt(N) * error bound")


def test_criterion_2_companion_scatteredness():
    """Companion (passing): n^0.5 is scattered on the covered range, and
    the measured slope matches the log-corrected law frozen from the
    brute-force oracle (-0.355 +/- 0.03 on this window, with
    S * sqrt(N) / ln N in [0.55, 0.70] at the top of the grid)."""
    t0 = time.time()
    rep = fit_scatter(sq.make_sequence(sq.power(0.5)), 1.0,
                      [2 ** k for k in range(8, 15)])
    ratio = rep.S[-1] * math.sqrt(rep.grid[-1]) / math.log(rep.grid[-1])
    qual = fit_scatter(sq.make_sequence(sq.power(0.5)), 1.0,
                       [2 ** k for k in range(10, 15)])
    elapsed = time.time() - t0
    ok = (abs(rep.slope_logN + 0.355) <= 0.03 and 0.55 <= ratio <= 0.70
          and qual.evidence_scattered)
    report("criterion 2 companion: log-corrected law + scatteredness", ok,
           elapsed, f"slope {rep.slope_logN:.4f}, S*sqrt(N)/ln N = {ratio:.3f}")
    assert ok
    assert elapsed <= 30


# -- criterion 3 -------------------------------------------------------------

def test_criterion_3_log_square_lower_bound():
    """For a(n) = (log n)^2 at delta = 1, S(N) * log N >= 1/32 at every
    N in {2^10, ..., 2^15}, with the 2^10 value cross-checked by exact
    brute force. Budget 60 s."""
    t0 = time.time()
    ev = sq.make_sequence(sq.log_power(2.0))
    exact = scatter_sum(ev, 2 ** 10, 1.0, mode="exact")
    bucketed = scatter_sum(ev, 2 ** 10, 1.0, mode="bucketed", eta=0.01)
    cross_ok = abs(exact.S - bucketed.S) <= bucketed.error_bound + 1e-15
    rep = fit_scatter(ev, 1.0, [2 ** k for k in range(10, 16)])
    products = [s * math.log(N) for s, N in zip(rep.S, rep.grid)]
    elapsed = time.time() - t0
    ok = cross_ok and all(p >= 1 / 32 for p in products) and elapsed <= 60
    report("criterion 3: (log n)^2 lower bound", ok, elapsed,
           f"min S*logN = {min(products):.4f} >= 1/32")
    assert cross_ok
    assert all(p >= 1 / 32 for p in products)
    assert elapsed <= 60


# -- criterion 4 -------------------------------------------------------------

def test_criterion_4_growth_checker():
    """(log n)^2.5 passes the growth check exhaustively at N = 10^4 with
    (eps, g) = (0.4, 0.3); n - floor(sqrt n)^2 fails with a verified
    witness. Budget 30 s."""
    t0 = time.time()
    lp = sq.make_sequence(sq.log_power(2.5))
    good = weyl_growth_check(lp, 10 ** 4, 0.4, 0.3, budget=10 ** 8)
    sr = sq.make_sequence(sq.sqrt_residue())
    bad = weyl_growth_check(sr, 100, 0.1, 0.5, budget=10 ** 7)
    witness_ok = False
    if bad.witness is not None:
        n, m = bad.witness
        witness_ok = (m > n + n / math.log(n) ** 1.1
                      and abs(sr(m) - sr(n)) <= 0.5)
    elapsed = time.time() - t0
    ok = (good.verdict == "pass" and good.coverage == "exhaustive"
          and bad.verdict == "fail" and witness_ok and elapsed <= 30)
    report("criterion 4: growth checker", ok, elapsed,
           f"(log n)^2.5 {good.verdict} ({good.pairs_checked} pairs); "
           f"residue witness {bad.witness}")
    assert good.verdict == "pass" and good.coverage == "exhaustive"
    assert bad.verdict == "fail" and witness_ok
    assert elapsed <= 30


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5_derivative_bounds_dominate():
    """|integral| <= first-derivative bound and <= d-th derivative bound
    on 100 seeded admissible cases each; zero violations. Budget 60 s."""
    t0 = time.time()
    rng = np.random.default_rng(55)
    violations = 0
    for _ in range(100):  # first-derivative cases: monotone nonvanishing phase
        lam = float(2.0 ** rng.uniform(2, 8))
        c = float(rng.uniform(0.2, 3.0))
        a = float(rng.uniform(0.2, 1.5))
        w = float(rng.uniform(0.3, 1.0))
        f = ex.parse_expr(f"x^2 + {c}*x") if rng.random() < 0.5 else \
            ex.parse_expr(f"exp(x) + {c}*x")
        mag = osc_integral([f], [lam], (a, a + w), tol=1e-10).magnitude
        if mag > vdc_bound_first(f, lam, (a, a + w)):
            violations += 1
    for i in range(100):  # d-th derivative cases, d alternating 2 and 3
        lam = float(2.0 ** rng.uniform(4, 12))
        c = float(rng.uniform(0.0, 1.0))
        if i % 2 == 0:
            f, d = ex.parse_expr(f"x^2 + {c}*x"), 2
        else:
            f, d = ex.parse_expr(f"x^3 + {c}*x^2"), 3
        mag = osc_integral([f], [lam], (0, 1), tol=1e-10).magnitude
        if mag > vdc_bound_high(f, lam, (0, 1), d):
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed <= 60
    report("criterion 5: derivative-test domination", ok, elapsed,
           f"{violations} violations in 200 cases")
    assert violations == 0
    assert elapsed <= 60


# -- criterion 6 -------------------------------------------------------------

RADII = [2.0 ** j + 0.5 for j in range(2, 10)]


def test_criterion_6a_monomial_exponents_pinned_interval():
    """Decay of f = x^d on the pinned interval [1, 2] for d in {1, 2, 3}:
    fitted slope -1 +/- 0.05, and |I(R)| equal to its closed-form
    boundary term at every radius. Budget (shared) 120 s.

    Law: f' = d x^(d-1) never vanishes on [1, 2], so integration by parts
    gives I(R) = [e(R x^d) / (2 pi i R d x^(d-1))]_1^2 + O(R^-2): decay
    R^-1 for every d (the -1/d exponents need the vanishing point x = 0
    inside the interval; the companion on [0, 1] checks them). At
    R = 2^j + 1/2, e(R) = -1 and e(2^d R) = 1, so |I(R)| = c_d / R with
    c_d = (1 + 2^(1-d)) / (2 pi d): 1/pi exactly for d = 1, 3/(8 pi) and
    5/(24 pi) up to a relative R^-2 term (its coefficient is
    -57/(512 pi^2) = -0.011 and -667/(3600 pi^2) = -0.019).
    Oracle: |R |I(R)| / c_d - 1| <= quadrature error / |I| (+ 0.1 / R^2
    for d = 2, 3).
    """
    t0 = time.time()
    slopes, devs = {}, {}
    for d in (1, 2, 3):
        fit = decay_fit([ex.parse_expr(f"x^{d}")], (1, 2), RADII, 1, seed=0)
        slopes[d] = fit.slopes[0]
        c_d = (1 + 2.0 ** (1 - d)) / (2 * math.pi * d)
        dev = np.abs(fit.radii * fit.magnitudes[0] / c_d - 1)
        allowed = fit.errors[0] / fit.magnitudes[0]
        if d > 1:
            allowed = allowed + 0.1 / fit.radii ** 2
        devs[d] = (fit.radii, dev, allowed)
    elapsed = time.time() - t0
    ok = (all(abs(slopes[d] + 1.0) <= 0.05 for d in (1, 2, 3))
          and all(np.all(dev <= allowed) for _, dev, allowed in devs.values())
          and elapsed <= 120)
    report("criterion 6a: monomial decay on pinned interval [1,2]", ok,
           elapsed, "slopes " + ", ".join(f"d={d}: {slopes[d]:.3f}" for d in slopes)
           + "; max |R|I|/c_d - 1| "
           + ", ".join(f"d={d}: {np.max(v[1]):.1e}" for d, v in devs.items()))
    assert elapsed <= 120
    for d in (1, 2, 3):
        assert abs(slopes[d] + 1.0) <= 0.05, (
            f"d={d}: measured slope {slopes[d]:.4f}; without a stationary "
            f"point in [1,2] the decay is R^-1 for every d, see docstring")
        radii, dev, allowed = devs[d]
        for r, dv, lim in zip(radii, dev, allowed):
            assert dv <= lim, (
                f"d={d}, R={r}: |R |I| / c_d - 1| = {dv:.3g} exceeds {lim:.3g}; "
                f"c_d = (1 + 2^(1-d)) / (2 pi d), see docstring")


def test_criterion_6a_companion_vanishing_point():
    """Companion (passing): with the order-d vanishing point inside the
    interval (f = x^d on [0, 1]), the fitted slope is -1/d +/- 0.05 for
    d in {1, 2, 3}, matching the d-th derivative-test exponent."""
    t0 = time.time()
    slopes = {}
    for d in (1, 2, 3):
        fit = decay_fit([ex.parse_expr(f"x^{d}")], (0, 1), RADII, 1, seed=0)
        slopes[d] = fit.slopes[0]
        assert abs(slopes[d] + 1.0 / d) <= 0.05, (d, slopes[d])
    elapsed = time.time() - t0
    report("criterion 6a companion: exponents with vanishing point", True,
           elapsed, "slopes " + ", ".join(f"d={d}: {slopes[d]:.3f}" for d in slopes))
    assert elapsed <= 120


def test_criterion_6b_pair_family_delta():
    """fs = (x, x^2) on [1, 2]: delta_hat >= 0.4 with R^2 >= 0.9 for the
    direction attaining it (pinned run: 6 directions, seed 1)."""
    t0 = time.time()
    fit = decay_fit([ex.parse_expr("x"), ex.parse_expr("x^2")], (1, 2),
                    RADII, 6, seed=1)
    idx = int(np.nanargmin(np.abs(fit.slopes)))
    elapsed = time.time() - t0
    ok = fit.delta_hat >= 0.4 and fit.r_squared[idx] >= 0.9 and elapsed <= 120
    report("criterion 6b: (x, x^2) decay exponent", ok, elapsed,
           f"delta_hat {fit.delta_hat:.3f}, fit R^2 {fit.r_squared[idx]:.3f}")
    assert fit.delta_hat >= 0.4
    assert fit.r_squared[idx] >= 0.9
    assert elapsed <= 120


def test_criterion_6c_degenerate_direction():
    """For the dependent family (x, 2x+1) the flagged degenerate direction
    has magnitude |I| within 1e-9 at every radius (constant phase)."""
    t0 = time.time()
    fit = decay_fit([ex.parse_expr("x"), ex.parse_expr("2*x + 1")], (0, 1),
                    RADII, 3, seed=1)
    elapsed = time.time() - t0
    ok = (fit.degenerate_direction is not None
          and np.all(np.abs(fit.degenerate_magnitudes - 1.0) <= 1e-9))
    report("criterion 6c: degenerate direction pins at |I|", ok, elapsed,
           f"max deviation {np.max(np.abs(fit.degenerate_magnitudes - 1.0)):.2e}")
    assert ok
    assert elapsed <= 120


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_prefix_average_gap():
    """|A_N - A_M| <= 2(1 - N/M) for all 1 <= N < M <= 512 on 20 seeded
    unit-modulus sequences. Budget 10 s."""
    t0 = time.time()
    rng = np.random.default_rng(77)
    for _ in range(20):
        zs = np.exp(2j * np.pi * rng.random(512))
        prefix = np.cumsum(zs)
        avg = prefix / np.arange(1, 513)
        for N in range(1, 512):
            diffs = np.abs(avg[N - 1] - avg[N:])
            bounds = 2.0 * (1.0 - N / np.arange(N + 1, 513))
            assert np.all(diffs <= bounds)
    lhs, bound = wy.cesaro_gap([1.0, -1.0], 1, 2)
    elapsed = time.time() - t0
    ok = lhs == bound == 1.0 and elapsed <= 10
    report("criterion 7: prefix-average gap bound", ok, elapsed,
           "all 20 x 130816 pairs within bound; alternating case tight")
    assert lhs == 1.0 and bound == 1.0
    assert elapsed <= 10


# -- criterion 8 -------------------------------------------------------------

def test_criterion_8_precision_policy():
    """{1.5^n} for n <= 200 matches a 512-bit reference to 1e-20 under the
    working-precision policy; a power-tower experiment gives bit-identical
    per-sample x, D* and max |F_N| at 1, 2 and 8 workers. Budget 20 s."""
    t0 = time.time()
    worst = mpmath.mpf(0)
    with mpmath.workprec(512):
        for n in range(1, 201):
            ref = mpmath.frac(mpmath.mpf(1.5) ** n)
            got = power_tower_frac_mp(1.5, float(n))
            worst = max(worst, abs(ref - got))
    config = lab.ExperimentConfig(
        kind="power-tower-curve", tower_base="1+x",
        tower_sequences=["identity"], functions=["x"], sequences=["identity"],
        x_samples=8, n_grid="pow2:6..9", frequency_bound=1,
        discrepancy_method="grid", grid_m=64)
    runs = [[(s.x, s.discrepancy.values, s.weyl_max)
             for s in lab.run_experiment(config, workers=w).samples]
            for w in (1, 2, 8)]
    same = runs[0] == runs[1] == runs[2]
    elapsed = time.time() - t0
    ok = worst <= mpmath.mpf("1e-20") and same and elapsed <= 20
    report("criterion 8: precision policy", ok, elapsed,
           f"worst |frac err| {mpmath.nstr(worst, 3)}; workers bit-equal {same}")
    assert worst <= mpmath.mpf("1e-20")
    assert same
    assert elapsed <= 20


# -- criterion 9 -------------------------------------------------------------

def test_criterion_9_discrepancy_oracles():
    """Exact 2-d star discrepancy equals a brute-force box scan on 20
    seeded sets with N <= 64; the golden-ratio sequence satisfies
    D*_N <= 5 log N / N at N in {1e3, 1e4, 1e5}; the diagonal generator
    attains max Weyl magnitude 1 at v = (1, -1). Budget 90 s."""
    t0 = time.time()
    rng = np.random.default_rng(99)
    for _ in range(20):
        pts = rng.random((int(rng.integers(4, 65)), 2))
        exact, err = star_discrepancy_kd(pts, "exact")
        assert err == 0.0
        assert exact == pytest.approx(brute_force_2d(pts), abs=1e-12)
    phi = (1 + math.sqrt(5)) / 2
    golden_ok = True
    for N in (10 ** 3, 10 ** 4, 10 ** 5):
        pts = (np.arange(1, N + 1) * phi) % 1.0
        golden_ok &= star_discrepancy_1d(pts) <= 5 * math.log(N) / N
    gend = wy.PointGenerator([wy.ProductCoord(sq.identity(), ex.parse_expr("x"), phi),
                              wy.ProductCoord(sq.identity(), ex.parse_expr("x"), phi)])
    diag = wy.weyl_sum(gend, [1, -1], 10 ** 4)
    mag, argmax = wy.max_weyl_sum(gend, 1, 10 ** 4)
    elapsed = time.time() - t0
    ok = golden_ok and diag == 1.0 and mag == 1.0 and elapsed <= 90
    report("criterion 9: discrepancy oracles + diagonal obstruction", ok,
           elapsed, f"diag F(1,-1) = {diag}, box max {mag} at {argmax}")
    assert golden_ok
    assert diag == 1.0 and mag == 1.0
    assert elapsed <= 90


# -- criterion 10 ------------------------------------------------------------

def test_criterion_10_curve_probe():
    """(n x, n x^2) with 20 seeded x in [0.05, 0.95]: median D* at
    N = 2*10^4 is <= 0.02 with the 256-cell lattice method, and >= 90% of
    samples pass individually. Thresholds frozen from the calibration run
    recorded in tests/fixtures/calibration.json. Budget 300 s."""
    t0 = time.time()
    with open(os.path.join(FIXTURES, "calibration.json")) as fh:
        fixture = json.load(fh)
    config = lab.ExperimentConfig.from_dict(fixture["config"])
    assert config.dstar_final_max == 0.02 and config.min_pass_fraction == 0.9
    rep = lab.run_experiment(config)
    finals = [s.discrepancy.final_value() for s in rep.samples if s.error is None]
    reproduced = finals == fixture["per_sample_final_dstar"]
    elapsed = time.time() - t0
    ok = (rep.verdict == "pass" and rep.final_median() <= 0.02
          and rep.pass_fraction >= 0.9 and reproduced and elapsed <= 300)
    report("criterion 10: curve probe at desk scale", ok, elapsed,
           f"median {rep.final_median():.5f}, pass fraction "
           f"{rep.pass_fraction:.2f}, reproduces calibration: {reproduced}")
    assert rep.verdict == "pass"
    assert rep.final_median() <= 0.02
    assert rep.pass_fraction >= 0.9
    assert reproduced, "run no longer reproduces the frozen calibration"
    assert elapsed <= 300


# -- criterion 11 ------------------------------------------------------------

def test_criterion_11_jets_and_independence():
    """Order-1 jets match central finite differences (h = 1e-5) to 1e-6
    relative error on 200 seeded (expression, point) pairs; the
    independence checker classifies {x, x^2} independent and {x, 2x+1},
    {sin^2 x, cos^2 x} dependent. Budget 10 s."""
    t0 = time.time()
    rng = np.random.default_rng(1111)
    h = 1e-5
    worst = 0.0
    for _ in range(200):
        node, x = random_expr_and_point(rng)
        d1 = ex.eval_jet(node, x, 1).derivatives[1]
        fd = (ex.evaluate(node, x + h) - ex.evaluate(node, x - h)) / (2 * h)
        worst = max(worst, abs(d1 - fd) / max(1.0, abs(fd)))
    indep = ex.check_linear_independence(
        [ex.parse_expr("x"), ex.parse_expr("x^2")], (0, 1))
    dep1 = ex.check_linear_independence(
        [ex.parse_expr("x"), ex.parse_expr("2*x + 1")], (0, 1))
    dep2 = ex.check_linear_independence(
        [ex.parse_expr("sin(x)^2"), ex.parse_expr("cos(x)^2")], (0, 1))
    elapsed = time.time() - t0
    ok = (worst <= 1e-6 and indep.verdict == "independent"
          and dep1.verdict == "dependent" and dep2.verdict == "dependent"
          and elapsed <= 10)
    report("criterion 11: jets vs finite differences + independence", ok,
           elapsed, f"worst rel err {worst:.2e}")
    assert worst <= 1e-6
    assert indep.verdict == "independent"
    assert dep1.verdict == "dependent" and dep2.verdict == "dependent"
    assert elapsed <= 10
