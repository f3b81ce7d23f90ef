import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from udlab import cli
from udlab import expr as ex
from udlab import lab
from udlab import oscillatory as osc
from udlab.numerics import unit_directions
from udlab.oscillatory import (decay_fit, osc_integral, vdc_bound_first,
                               vdc_bound_high, vdc_constant)

X = ex.parse_expr("x")
X2 = ex.parse_expr("x^2")
X3 = ex.parse_expr("x^3")
EXP_EXP = ex.parse_expr("exp(exp(x))")  # overflows from x = log(709.78) ~ 6.565

HALF_POW2_RADII = [2.0 ** j + 0.5 for j in range(2, 10)]


class TestOscIntegral:
    def test_zero_frequency_is_interval_length(self):
        est = osc_integral([X2], [0.0], (0.25, 0.75))
        assert est.value == pytest.approx(0.5, abs=1e-13)
        assert est.panels == 1

    def test_full_period_cancels(self):
        est = osc_integral([X], [1.0], (0, 1))
        assert abs(est.value) <= 1e-10

    def test_half_period_closed_form(self):
        est = osc_integral([X], [0.5], (0, 1))
        assert est.magnitude == pytest.approx(2 / math.pi, abs=1e-10)

    def test_linear_phase_closed_forms(self):
        # |int_0^1 e(Lx) dx| = |e(L) - 1| / (2 pi L)
        for L in [2.0 ** k for k in range(-3, 11)]:
            est = osc_integral([X], [L], (0, 1), tol=1e-10)
            closed = abs((np.exp(2j * np.pi * L) - 1) / (2j * np.pi * L))
            assert est.magnitude == pytest.approx(closed, abs=1e-10)

    def test_magnitude_bounded_by_interval_length(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            lam = [float(rng.normal() * 10), float(rng.normal() * 10)]
            est = osc_integral([X, X2], lam if any(lam) else [1.0, 0.0], (0.5, 2.0))
            assert est.magnitude <= 1.5 + est.error + 1e-9

    def test_conjugation(self):
        a = osc_integral([X2, X], [3.7, 1.2], (0.5, 2))
        b = osc_integral([X2, X], [-3.7, -1.2], (0.5, 2))
        assert abs(a.value - np.conj(b.value)) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            osc_integral([X], [1.0], (1, 1))
        with pytest.raises(ValueError):
            osc_integral([X], [1.0], (0, 1), tol=1e-2)
        with pytest.raises(ValueError):
            osc_integral([X], [1.0, 2.0], (0, 1))

    def test_panel_cap_flags_unreliable(self, monkeypatch):
        # x at 5000 meets the 64 cap while bisecting; x^2 at 2000 bisects to
        # 63, 245 and 468 panels under the 64, 256 and 512 caps, then
        # refinement stops at the cap (972 two-cycle panels meet tol)
        cases = [(X, 5000.0, 64), (X2, 2000.0, 64), (X2, 2000.0, 256), (X2, 2000.0, 512)]
        for f, lam, panel_cap in cases:
            monkeypatch.setattr(osc, "PANEL_CAP", panel_cap)
            est = osc_integral([f], [lam], (0, 1), tol=1e-12)
            assert not est.reliable
            assert est.panels <= panel_cap

    def test_reliable_is_the_error_test_alone(self, monkeypatch):
        # bisection stops at 27 panels under the 41 cap, then refinement
        # meets tol with 30 panels; the bisection's stop used to flag this
        # unreliable
        monkeypatch.setattr(osc, "PANEL_CAP", 41)
        est = osc_integral([X2], [60.0], (0, 1), tol=1e-12)
        assert est.panels == 30 and est.error <= 1e-12
        assert est.reliable

    def test_error_estimate_tracks_truth(self):
        est = osc_integral([X2], [17.0], (0, 1), tol=1e-10)
        closed = abs(complex(*_fresnel_reference(17.0)))
        assert abs(est.magnitude - closed) <= max(est.error * 10, 1e-9)


class TestRefinementEnds:
    """Refinement lowers only sum |K - G|: it is skipped when the rounding
    floor alone exceeds tol, and it ends at the first round that does not
    lower the sum, far below PANEL_CAP."""

    @staticmethod
    def rounds(monkeypatch, text, interval, tol):
        """The estimate, the |K - G| of each rule call, and sum |K - G| over
        the panels in use after each call: a refinement round replaces each
        split panel by its halves (all left halves, then all right)."""
        rule, calls = osc._rule, []

        def counting_rule(*args):
            out = rule(*args)
            calls.append((args[2], args[3], out[1]))
            return out

        monkeypatch.setattr(osc, "_rule", counting_rule)
        est = osc_integral([ex.parse_expr(text)], [1.0], interval, tol=tol)
        errors, spreads = {}, []
        for k, (a, b, err) in enumerate(calls):
            half = len(a) // 2
            for parent in (zip(a[:half], b[half:]) if k else ()):
                del errors[parent]
            errors.update(zip(zip(a, b), err))
            spreads.append(math.fsum(errors.values()))
        return est, [err for _, _, err in calls], spreads

    def test_floor_above_tol_keeps_the_bisection(self, monkeypatch):
        # the K31 floor 2u * 10^4 = 2.2e-12 exceeds tol; refinement used to
        # split to PANEL_CAP (1,048,576 panels, about 4 s) and end unreliable
        est, errs, _ = self.rounds(monkeypatch, "x", (0.0, 1e4), 1e-12)
        assert len(errs) == 1 and est.panels == len(errs[0]) == 8192
        assert est.error == float(np.sum(errs[0])) + 2.0 * 2.0 ** -53 * 1e4
        assert not est.reliable

    def test_rounding_ends_refinement(self, monkeypatch):
        # per-node rounding of sin(x) + x over 10^4 cycles holds
        # sum |K31 - G15| near 2.7e-9; refinement used to split to PANEL_CAP
        # (about 5 s) and end unreliable. The last round raised the sum
        # (2.6926e-9 to 2.7914e-9 on 28,127 panels) and is dropped
        est, _, spreads = self.rounds(monkeypatch, "sin(x) + x", (0.0, 1e4), 1e-12)
        assert np.all(np.diff(spreads[:-1]) < 0) and spreads[-1] >= spreads[-2]
        assert est.panels == 20628 < osc.PANEL_CAP and not est.reliable
        assert est.error == pytest.approx(spreads[-2], rel=1e-12)
        assert est.error == pytest.approx(2.6926e-9, rel=1e-3)


def _stieltjes_16():
    """Coefficients a_0, a_2, ..., a_14 of the Stieltjes polynomial
    E(x) = x^16 + sum a_2i x^2i of P_15: int P_15 E x^k dx = 0 for k = 0..15
    (for even k by parity). The moments int P_n x^m dx, m >= n, m - n even,
    are 2^(n+1) m! ((m+n)/2)! / (((m-n)/2)! (m+n+1)!), and 0 otherwise."""
    def moment(m, n=15):
        if m < n or (m - n) % 2:
            return mpmath.mpf(0)
        return (2 ** (n + 1) * mpmath.factorial(m) * mpmath.factorial((m + n) // 2)
                / (mpmath.factorial((m - n) // 2) * mpmath.factorial(m + n + 1)))
    rows = [[moment(2 * i + k) for i in range(8)] for k in range(1, 16, 2)]
    rhs = [-moment(16 + k) for k in range(1, 16, 2)]
    return mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(rhs))


@pytest.fixture(scope="module")
def k31_reference():
    """The K31/G15 nodes and weights recomputed at 60 digits: each double
    node refined by Newton's method on P_15 (Gauss nodes, odd positions)
    or on its Stieltjes polynomial, Kronrod weights from exactness on
    P_0..P_30, Gauss weights 2 / ((1 - x^2) P_15'(x)^2)."""
    with mpmath.workdps(60):
        a = _stieltjes_16()
        stieltjes = lambda x: x ** 16 + sum(a[i] * x ** (2 * i) for i in range(8))
        nodes = [mpmath.findroot(lambda x: mpmath.legendre(15, x) if i % 2 else stieltjes(x),
                                 mpmath.mpf(float(x0)))
                 for i, x0 in enumerate(osc._K31[0])]
        vander = mpmath.matrix([[mpmath.legendre(j, x) for x in nodes] for j in range(31)])
        weights_k = mpmath.lu_solve(vander, mpmath.matrix([2] + [0] * 30))
        weights_g = [2 / ((1 - x ** 2) * mpmath.diff(lambda t: mpmath.legendre(15, t), x) ** 2)
                     if i % 2 else mpmath.mpf(0) for i, x in enumerate(nodes)]
        return nodes, list(weights_k), weights_g


class TestKronrod31Constants:
    """The K31/G15 constants of the quadrature rule, to full double
    precision."""

    def test_weights_sum_to_two(self):
        for w in osc._K31[1:]:
            assert abs(float(np.sum(w)) - 2.0) <= np.spacing(2.0)
            assert abs(math.fsum(w) - 2.0) <= np.spacing(2.0)

    def test_exact_to_their_degree(self):
        nodes, weights_k, weights_g = osc._K31
        for w, degree in ((weights_k, 46), (weights_g, 29)):
            with mpmath.workprec(200):
                errors = [abs(mpmath.fsum(mpmath.mpf(float(wi)) * mpmath.mpf(float(x)) ** j
                                          for wi, x in zip(w, nodes))
                              - (mpmath.mpf(2) / (j + 1) if j % 2 == 0 else 0))
                          for j in range(degree + 1)]
            assert max(errors) <= 2e-16

    def test_agree_with_mpmath_and_not_exact_beyond(self, k31_reference):
        nodes, weights_k, weights_g = k31_reference
        for got, want in zip(osc._K31, k31_reference):
            assert np.array_equal(got, np.array([float(v) for v in want]))
        with mpmath.workdps(60):
            def error(weights, j):
                total = mpmath.fsum(w * x ** j for w, x in zip(weights, nodes))
                return abs(total - mpmath.mpf(2) / (j + 1))
            # K31 integrates up to x^46 and G15 up to x^29, and no further
            assert max(error(weights_k, j) for j in range(0, 47, 2)) < 1e-50
            assert error(weights_k, 48) > 1e-20
            assert max(error(weights_g, j) for j in range(0, 29, 2)) < 1e-50
            assert error(weights_g, 30) > 1e-12

    def test_nodes_are_symmetric(self):
        nodes, weights_k, weights_g = osc._K31
        assert np.array_equal(nodes, -nodes[::-1]) and np.all(np.diff(nodes) > 0)
        assert np.array_equal(weights_k, weights_k[::-1])
        assert np.array_equal(weights_g, weights_g[::-1])
        assert np.count_nonzero(weights_g) == 15


POLY_TREES = st.recursive(
    st.one_of(st.just(ex.Var()), st.floats(0.1, 10.0).map(ex.Const)),
    lambda kids: st.one_of(st.builds(ex.Add, kids, kids), st.builds(ex.Mul, kids, kids),
                           st.builds(ex.PowInt, kids, st.integers(0, 4))),
    max_leaves=6)


def _mp_value(node, x):
    """A polynomial tree at the mpf x, exactly but for subtrees free of x,
    which take their double value as the quadrature's evaluator does."""
    if not ex._contains_var(node):
        return mpmath.mpf(ex.evaluate(node, 0.0))
    if isinstance(node, ex.Var):
        return x
    if isinstance(node, ex.PowInt):
        return _mp_value(node.base, x) ** node.exponent
    left, right = _mp_value(node.left, x), _mp_value(node.right, x)
    return left * right if isinstance(node, ex.Mul) else left + right


class TestPolynomialPhase:
    """Polynomial phases: the tree picks the K31 path, t(mid) mod 1 in
    double-double."""

    @pytest.mark.parametrize("text,degree", [
        ("x", 1), ("x^3 - 3*x", 3), ("2*x + 1", 1), ("(x + 1)^2*x", 3), ("exp(1)*x^2", 2),
        ("x^0", 0), ("x/2", None), ("sin(3*x) + x^2", None), ("x^(-1)", None),
        ("x^1.5", None), ("exp(x) + 1.7*x", None), ("sqrt(x)", None)])
    def test_degree(self, text, degree):
        assert ex.polynomial_degree(ex.parse_expr(text)) == degree

    def test_only_active_functions_pick_the_path(self):
        fs = [ex.parse_expr("sin(x)"), X2]
        assert osc._phase_degree(fs, np.array([0.0, 3.0])) == 2
        assert osc._phase_degree(fs, np.array([1.0, 3.0])) is None
        assert osc._phase_degree([ex.parse_expr("x^17")], np.array([1.0])) is None

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(POLY_TREES, st.floats(0.01, 4.0), st.floats(-1e4, 1e4))
    def test_phase_mod_1_matches_mpmath(self, node, x, lam):
        # positive constants and x > 0: no cancellation, so |lambda f| is
        # the size the double-double error scales with
        hi, lo = osc._mod1_dd([node], np.array([lam]), np.array([x]))
        assert abs(hi[0]) <= 0.5
        with mpmath.workprec(300):
            t = mpmath.mpf(lam) * _mp_value(node, mpmath.mpf(x))
            miss = mpmath.mpf(hi[0]) + mpmath.mpf(lo[0]) - (t - mpmath.floor(t))
            miss -= mpmath.nint(miss)
            assert abs(miss) <= mpmath.mpf(2) ** -100 * max(1, abs(t))


# 0 * exp(x) adds nothing to the phase but makes it general
ZERO_EXP = ex.Mul(ex.Const(0.0), ex.parse_expr("exp(x)"))
CROSS_INTERVALS = [(0.0, 1.0), (0.5, 2.0), (1.0, 1.25), (-1.0, 0.5)]


def _cross_path(node, lam, interval):
    """A polynomial phase on the exact-phase path and, written as
    f + 0*exp(x), on the per-node path. None at lambda = 0, past degree
    JET_ORDER_CAP, past 2e4 cycles of phase, and for a constant phase: every
    node then shares one rounded phase, which |K - G| cannot see and which
    can reach twice the noise's one relative rounding u."""
    degree = ex.polynomial_degree(node)
    if lam == 0.0 or not degree or degree > ex.JET_ORDER_CAP:
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # nested powers of constants
        phase = lam * ex.evaluate(node, np.linspace(*interval, 257))
    if not float(np.sum(np.abs(np.diff(phase)))) <= 2e4:
        return None
    general = [ex.Add(node, ZERO_EXP)]
    assert osc._phase_degree(general, np.array([lam])) is None
    return osc_integral([node], [lam], interval), osc_integral(general, [lam], interval)


class TestCrossPath:
    """The per-node path against the exact-phase path on the same
    polynomial phase."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(POLY_TREES, st.floats(-1500.0, 1500.0), st.sampled_from(CROSS_INTERVALS))
    def test_per_node_phases_agree_with_exact_phases(self, node, lam, interval):
        pair = _cross_path(node, lam, interval)
        assume(pair is not None)
        exact, general = pair
        gap = abs(exact.value - general.value)
        assert gap <= exact.error + general.error + general.noise


def _monomial_integral(d, radius):
    """int_1^2 e(R x^d) dx at 40 digits, through the upper incomplete gamma
    function: (1/d) int_1^(2^d) u^(1/d - 1) e(R u) du."""
    with mpmath.workdps(40):
        s, z = mpmath.mpf(1) / d, -2j * mpmath.pi * mpmath.mpf(radius)
        return z ** -s * (mpmath.gammainc(s, z) - mpmath.gammainc(s, z * 2 ** d)) / d


# The quarter-cycle K15/G7 error estimates on criterion 6a's 24 cells (x^d
# on [1, 2], R = 2^j + 1/2, j = 2..9), as the rule gave them for every
# phase before polynomial phases moved to two-cycle K31/G15 panels.
K15_ESTIMATES = {
    1: [4.843984697806379e-16, 1.5813948197871448e-15, 1.5646619910102708e-15,
        3.724445950793841e-15, 6.275941614772135e-15, 1.991783358997911e-14,
        3.40984158211606e-14, 3.352857669226469e-14],
    2: [1.4251398253504175e-15, 2.9114143424546844e-15, 4.939121386449778e-15,
        1.014227226101794e-14, 2.0990653707534524e-14, 3.351996896613345e-14,
        8.017529846484777e-14, 1.4311883737018832e-13],
    3: [2.614868311273881e-15, 4.6229571066446884e-15, 9.31733071700637e-15,
        1.750427686196798e-14, 3.3613693485477243e-14, 6.571931170219542e-14,
        1.2391920401374951e-13, 2.61837200149407e-13]}


class TestTwoCyclePanels:
    """Honesty of the K31/G15 estimate on polynomial and general phases,
    and the rounding noise of a cell."""

    def test_references_agree(self):
        # the incomplete-gamma form against the closed form (d = 1),
        # Fresnel integrals (d = 2) and quad at 40 digits (d = 3)
        with mpmath.workdps(40):
            r = mpmath.mpf(32.5)
            closed = (mpmath.expjpi(4 * r) - mpmath.expjpi(2 * r)) / (2j * mpmath.pi * r)
            # e(R x^2) = cos(pi t^2 / 2) + i sin(pi t^2 / 2) at t = 2 sqrt(R) x
            t1, t2 = 2 * mpmath.sqrt(r), 4 * mpmath.sqrt(r)
            fresnel = (mpmath.fresnelc(t2) - mpmath.fresnelc(t1)
                       + 1j * (mpmath.fresnels(t2) - mpmath.fresnels(t1))) / t1
            # e(4.5 x^3): 31.5 cycles over 32 pieces
            quad = mpmath.quad(lambda x: mpmath.expjpi(9 * x ** 3), mpmath.linspace(1, 2, 33))
            for want, (d, radius) in ((closed, (1, 32.5)), (fresnel, (2, 32.5)), (quad, (3, 4.5))):
                assert abs(_monomial_integral(d, radius) - want) < 1e-35

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_estimate_between_true_error_and_k15(self, d):
        for radius, k15 in zip(HALF_POW2_RADII, K15_ESTIMATES[d]):
            est = osc_integral([ex.parse_expr(f"x^{d}")], [radius], (1.0, 2.0))
            true = float(abs(mpmath.mpc(est.value) - _monomial_integral(d, radius)))
            assert true <= est.error <= k15, (d, radius, true, est.error, k15)

    @pytest.mark.parametrize("fs,lam,interval", [
        *[([X], [r], (1.0, 2.0)) for r in (4.0, 8.0, 16.0, 32.0, 64.0)],
        *[([X], [float(r)], (0.0, 1.0)) for r in range(1, 7)],
        # criterion 6c's direction (0, 1): 2R is odd
        *[([X, ex.parse_expr("2*x + 1")], [0.0, r], (0.0, 1.0)) for r in HALF_POW2_RADII]])
    def test_exact_zeros_stay_below_noise(self, fs, lam, interval):
        est = osc_integral(fs, lam, interval)
        assert est.magnitude <= est.error + est.noise

    def test_noise_is_the_phase_conditioning(self):
        # 2 pi u int_1^2 |R x| dx = 2 pi u * 1.5 R: 1.7e-14 at R = 16
        est = osc_integral([X], [16.0], (1.0, 2.0))
        assert est.noise == pytest.approx(2 * math.pi * 2.0 ** -53 * 24.0, rel=1e-12)

    # general phases: (phase, lambda, interval, tol, mpmath reference of the
    # integral, computed offline at 32 digits on two splits that agree to
    # 1e-37, and the panels of the quarter-cycle K15/G7 path this rule replaced)
    GENERAL = [
        ("sin(3*x) + x^2", 30.0, (0.1, 2.3), 1e-12,
         ("-0.03498745015771512845005212", "-0.05759479099027415397876436"), 973),
        ("sin(3*x) + x^2", 517.25, (0.0, 1.0), 1e-9,
         ("-0.01494541406355298620105586", "0.01046476901343262832544591"), 4484),
        ("exp(x) + 1.7*x", 100.0, (0.2, 1.2), 1e-10,
         ("-0.0003970861271223802360801299", "0.00003044557726903604528354537"), 2048),
        ("exp(x) + 0.35*x", 2000.5, (0.5, 1.5), 1e-9,
         ("-0.00004270304946957363582002146", "-0.00003638446044514680671201009"), 38175)]

    @pytest.mark.parametrize("text,lam,interval,tol,reference,k15_panels", GENERAL)
    def test_general_phases_are_honest(self, text, lam, interval, tol, reference, k15_panels):
        # 122, 561, 256 and 4,772 two-cycle panels
        est = osc_integral([ex.parse_expr(text)], [lam], interval, tol=tol)
        with mpmath.workdps(30):
            true = float(abs(mpmath.mpc(est.value) - mpmath.mpc(*reference)))
        assert true <= est.error and est.reliable, (true, est.error)
        assert est.panels < k15_panels


class TestStreamedRule:
    """The rule (exact phases for the polynomial x^2, per-node phases for
    sin(3*x) + x^2) and the bisection's variation test run _RULE_BLOCK
    panels at a time; the test evaluates the phase jet at the ends and
    midpoint of each of its panels in one call."""

    # (phase, lambda, interval, tol, panel_cap, rule calls): bisection only,
    # one refinement round, and the cap hit while refining
    CASES = [("x^2", 300.0, (0.0, 1.0), 1e-12, osc.PANEL_CAP, 1),
             ("sin(3*x) + x^2", 5.0, (0.1, 2.3), 1e-12, osc.PANEL_CAP, 2),
             ("x^2", 2000.0, (0.0, 1.0), 1e-12, 256, 2)]

    @pytest.mark.parametrize("text,lam,interval,tol,panel_cap,rounds", CASES)
    def test_block_size_invariance(self, text, lam, interval, tol, panel_cap, rounds):
        rule, rule_calls, jet, jet_points = osc._rule, [], osc._phase_jet, []

        def counting_rule(*args):
            rule_calls.append(len(args[2]))
            return rule(*args)

        def counting_jet(fs, lam, xs, order):
            # the bisection's jets; the rules' have order 0 (per-node
            # phases) or the phase degree, 2 here (exact phases)
            if order == 1:
                jet_points.append(len(xs))
            return jet(fs, lam, xs, order)

        results = []
        for block in (1, 7, osc._RULE_BLOCK):
            rule_calls.clear()
            jet_points.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(osc, "_RULE_BLOCK", block)
                mp.setattr(osc, "_rule", counting_rule)
                mp.setattr(osc, "_phase_jet", counting_jet)
                mp.setattr(osc, "PANEL_CAP", panel_cap)
                est = osc_integral([ex.parse_expr(text)], [lam], interval, tol=tol)
            assert len(rule_calls) == rounds
            # the ends and midpoint of the interval, then the ends and
            # midpoints of blocks of at most `block` panels
            assert jet_points[0] == 3 and max(jet_points) <= 3 * block
            results.append((est.value, est.error, est.panels, est.reliable))
        assert results[0] == results[1] == results[2]
        assert results[0][3] == (panel_cap == osc.PANEL_CAP)

    @pytest.mark.parametrize("radius", [4.5, 32.5, 512.5, 8192.5, 64.0])
    def test_linear_phase_closed_form(self, radius):
        # int_1^2 e(Rx) dx = (e(2R) - e(R)) / (2 pi i R); 0 at whole R
        est = osc_integral([X], [radius], (1.0, 2.0))
        with mpmath.workprec(200):
            r = mpmath.mpf(radius)
            exact = (mpmath.expjpi(4 * r) - mpmath.expjpi(2 * r)) / (2j * mpmath.pi * r)
            miss = abs(mpmath.mpc(est.value) - exact)
        assert miss <= est.error
        assert est.reliable

    def test_peak_memory_is_a_few_arrays_per_panel(self):
        # 262,146 two-cycle panels; the rule peaks near 15 MiB, 48 bytes
        # per panel plus one block, and no bisection array is alive then
        fs = [X, X2]
        tracemalloc.start()
        try:
            est = osc_integral(fs, [0.0, 131072.5], (1.0, 2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.panels == 262146 and est.reliable
        assert peak <= 20 * 2 ** 20


def _fresnel_reference(lam, n=200001):
    # dense Simpson reference for int_0^1 e(lam x^2) dx
    xs = np.linspace(0, 1, n)
    ph = np.exp(2j * np.pi * lam * xs ** 2)
    w = np.ones(n)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    val = (xs[1] - xs[0]) / 3.0 * np.sum(w * ph)
    return val.real, val.imag


class TestDerivativeBounds:
    def test_linear_phase_bound(self):
        assert vdc_bound_first(X, 5.0, (0, 1)) == pytest.approx(1 / 5)

    def test_quadratic_phase_hand_value(self):
        # phi' = 2*lam*x in cycles: max(1/16, 1/32) at lam = 8 on [1,2]
        assert vdc_bound_first(X2, 8.0, (1, 2)) == pytest.approx(1 / 16)

    def test_vanishing_derivative_gives_inf(self):
        assert vdc_bound_first(X2, 3.0, (-1, 1)) == math.inf

    def test_derivative_vanishing_at_an_end_gives_inf(self):
        # phi' = 2*lam*x is 0 at the end x = 0 but changes no sign on [0, 1]
        assert vdc_bound_first(X2, 1.0, (0, 1)) == math.inf

    def test_split_at_inflection(self):
        # phi = lam*(x^3 - 3x): phi' = 3*lam*(x^2 - 1) vanishes at 1, and
        # phi'' = 6*lam*x changes sign at 0
        f = ex.parse_expr("x^3 - 3*x")
        assert vdc_bound_first(f, 2.0, (0.5, 1.5)) == math.inf
        # on (-0.9, 0.9) phi' stays below -1: two monotone pieces, finite bound
        bound = vdc_bound_first(f, 2.0, (-0.9, 0.9))
        assert bound < math.inf
        assert osc_integral([f], [2.0], (-0.9, 0.9)).magnitude <= bound
        bound = vdc_bound_first(f, 2.0, (1.1, 2.0))
        assert osc_integral([f], [2.0], (1.1, 2.0)).magnitude <= bound

    @staticmethod
    def first_bound_by_piece_loop(f, lam, lo, hi):
        """Reference: the first-derivative bound one monotone piece at a
        time, endpoint derivatives from one scalar jet each, summed in order."""
        xs = np.linspace(lo, hi, 129)
        dphi, ddphi = lam * ex.eval_jet_many(f, xs, 2)[1:]
        sgn = np.sign(ddphi)
        nz = np.flatnonzero(sgn)
        cuts = [lo] + [0.5 * (xs[i] + xs[j]) for i, j in zip(nz, nz[1:])
                       if sgn[i] != sgn[j]] + [hi]
        total = 0.0
        for left, right in zip(cuts, cuts[1:]):
            inside = np.sign(dphi[(xs >= left) & (xs <= right)])
            if len(inside) >= 2 and np.min(inside) < 0 < np.max(inside):
                return math.inf
            dl, dr = (abs(lam * ex.eval_jet_many(f, np.array([t]), 1)[1, 0])
                      for t in (left, right))
            if dl < 1e-300 or dr < 1e-300:
                return math.inf
            total += max(1.0 / dl, 1.0 / dr)
        return total

    def test_vectorised_pieces_equal_the_piece_loop(self):
        rng = np.random.default_rng(31)
        texts = ["x + 0.1*sin(5*x)", "x^3 + x", "2*x + cos(x)", "x + 0.02*sin(33*x)",
                 "x^3 - 3*x", "exp(x) - 5*x"]
        for _ in range(40):
            text = texts[int(rng.integers(len(texts)))]
            lo = float(rng.uniform(-3, 3))
            hi = lo + float(rng.uniform(0.01, 8))
            lam = float(rng.normal() * 10 ** rng.uniform(0, 3))
            f = ex.parse_expr(text)
            want = self.first_bound_by_piece_loop(f, lam, lo, hi)
            assert vdc_bound_first(f, lam, (lo, hi)) == want, (text, lo, hi, lam)

    def test_high_order_hand_formula(self):
        lam = 32.0
        expect = vdc_constant(3) * (6 * lam) ** (-1 / 3)
        assert vdc_bound_high(X3, lam, (0, 1), 3) == pytest.approx(expect, rel=1e-12)

    def test_high_order_scaling_law(self):
        b1 = vdc_bound_high(X2, 16.0, (0, 1), 2)
        b2 = vdc_bound_high(X2, 32.0, (0, 1), 2)
        assert b1 / b2 == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_degenerate_high_order_is_inf(self):
        assert vdc_bound_high(X, 4.0, (0, 1), 2) == math.inf  # phi'' = 0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            vdc_bound_high(X2, 1.0, (0, 1), 1)
        with pytest.raises(ValueError):
            vdc_bound_high(X2, 1.0, (0, 1), 9)

    def test_domination_seeded(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            lam = float(2.0 ** rng.uniform(2, 8))
            c = float(rng.uniform(0.5, 3.0))
            f = ex.parse_expr(f"x^2 + {c}*x")
            mag = osc_integral([f], [lam], (0.5, 2), tol=1e-10).magnitude
            assert mag <= vdc_bound_first(f, lam, (0.5, 2))
            assert mag <= vdc_bound_high(f, lam, (0.5, 2), 2)


class TestDecayFit:
    def test_single_linear_function(self):
        fit = decay_fit([X], (0, 1), HALF_POW2_RADII, 1, seed=0)
        assert fit.slopes[0] == pytest.approx(-1.0, abs=0.05)
        assert fit.r_squared[0] > 0.99

    def test_exponent_recovery_at_vanishing_point(self):
        # x^d vanishes to order d at 0; on [0,1] the decay exponent is the
        # derivative-test exponent 1/d
        for d, f in ((2, X2), (3, X3)):
            fit = decay_fit([f], (0, 1), HALF_POW2_RADII, 1, seed=0)
            assert fit.slopes[0] == pytest.approx(-1.0 / d, abs=0.05)

    def test_interval_without_stationary_point_decays_linearly(self):
        # on [1,2] the phase derivative of R*x^d never vanishes, so
        # integration by parts gives R^-1 for every d
        for f in (X2, X3):
            fit = decay_fit([f], (1, 2), HALF_POW2_RADII, 1, seed=0)
            assert fit.slopes[0] == pytest.approx(-1.0, abs=0.05)

    def test_pair_with_boundary_stationary_directions(self):
        fit = decay_fit([X, X2], (1, 2), HALF_POW2_RADII, 6, seed=1)
        assert fit.delta_hat >= 0.4
        idx = int(np.nanargmin(np.abs(fit.slopes)))
        assert fit.r_squared[idx] >= 0.9
        assert not np.any(fit.unreliable)

    def test_degenerate_family_flagged(self):
        fit = decay_fit([X, ex.parse_expr("2*x + 1")], (0, 1),
                        HALF_POW2_RADII, 3, seed=1)
        assert fit.degenerate_direction is not None
        expect = np.array([2.0, -1.0]) / math.sqrt(5.0)
        ratio = fit.degenerate_direction / expect
        assert np.allclose(ratio, ratio[0], atol=1e-8)
        assert np.all(np.abs(fit.degenerate_magnitudes - 1.0) <= 1e-9)
        # 2R is an odd integer, so int_0^1 e(R(2x+1)) dx = 0: direction
        # (0, 1) is all rounding noise, and its slope of +0.503 used to
        # set delta_hat
        assert np.array_equal(fit.directions[1], [0, 1])
        assert np.all(fit.below_noise[1]) and not np.any(fit.below_noise[[0, 2]])
        assert np.isnan(fit.slopes[1]) and np.isnan(fit.r_squared[1])
        assert fit.delta_hat == pytest.approx(1.0, abs=1e-6)

    def test_cells_below_the_noise_are_left_out(self, capsys):
        # R = geomspace(2, 64, 6) is whole to within an ulp, where
        # int_1^2 e(Rx) dx = 0: direction (1, 0) fits noise alone, and its
        # slope of 0.584 used to set delta_hat (pooled R^2 0.0016)
        argv = ["oscdecay", "--f", "x;x^2", "--interval", "1,2", "--radii", "geom:2:64:6",
                "--dirs", "3"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "# direction 0: 6 of 6 cells below the quadrature noise; no slope fitted" in out
        fit = decay_fit([X, X2], (1, 2), cli._parse_radii("geom:2:64:6"), 3)
        assert np.all(fit.below_noise[0]) and not np.any(fit.below_noise[1:])
        assert np.isnan(fit.slopes[0]) and np.isnan(fit.intercepts[0])
        assert fit.delta_hat == pytest.approx(0.998, abs=1e-3)
        assert fit.delta_hat == float(np.min(np.abs(fit.slopes[1:])))
        assert f"# delta_hat={fit.delta_hat:.4f}" in out
        flags = [row[-1] for row in lab.decay_csv_rows(fit)[1]]
        assert flags == ["below noise"] * 6 + [""] * 12

    def test_noise_column_gives_the_flag_its_reason(self):
        # README --radii geom:2:64:6: direction 0 at R = 16 - 7.1e-15 has
        # |I| above err_est, yet below err_est plus the rounding noise
        fit = decay_fit([X, X2], (1, 2), cli._parse_radii("geom:2:64:6"), 3)
        header, rows = lab.decay_csv_rows(fit)
        assert header[-2:] == ["noise", "flags"]
        cell = dict(zip(header, next(row for row in rows
                                     if row[0] == 0 and row[2] == 15.999999999999993)))
        assert cell["noise"] == pytest.approx(1.7e-14, rel=0.02)
        assert cell["err_est"] < cell["abs_integral"] < cell["err_est"] + cell["noise"]
        assert cell["flags"] == "below noise"

    def test_unreliable_and_below_noise_flags_join(self, monkeypatch):
        # one panel per integral: x meets tol up to R = 3, x^2 only at R = 1
        monkeypatch.setattr(osc, "PANEL_CAP", 1)
        fit = decay_fit([X, X2], (0, 1), [1, 2, 3, 4, 5, 6], 2, tol=1e-12)
        flags = [row[-1] for row in lab.decay_csv_rows(fit)[1]]
        assert flags == (["below noise"] * 3 + ["unreliable;below noise"] * 3
                         + [""] + ["unreliable"] * 5)
        assert np.isnan(fit.slopes[0]) and fit.delta_hat == abs(fit.slopes[1])

    def test_noise_alone_is_refused(self, capsys):
        # int_0^1 e(Rx) dx = 0 at whole R; this printed delta_hat=0.4843
        with pytest.raises(ValueError, match="no direction has 3 cells above the quadrature"
                           " noise.*direction 0 at R = 1, 2, 3, 4, 5, 6"):
            decay_fit([X], (0, 1), [1, 2, 3, 4, 5, 6], 1)
        code = cli.main(["oscdecay", "--f", "x", "--interval", "0,1",
                         "--radii", "1,2,3,4,5,6", "--dirs", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: no direction has 3 cells")

    def test_empty_family_is_refused(self, capsys):
        # --f ";" used to loop forever drawing unit vectors of R^0
        with pytest.raises(ValueError, match="need at least one function"):
            decay_fit([], (0, 1), [1, 2, 3, 4, 5, 6], 1)
        with pytest.raises(ValueError, match="need at least one dimension"):
            unit_directions(0, 0, 1)
        code = cli.main(["oscdecay", "--f", ";", "--interval", "0,1",
                         "--radii", "1,2,3,4,5,6", "--dirs", "1"])
        assert code == 2
        assert capsys.readouterr().err == "error: need at least one function\n"

    def test_axis_directions_come_first(self):
        fit = decay_fit([X, X2], (1, 2), HALF_POW2_RADII, 4, seed=0)
        assert np.array_equal(fit.directions[0], [1, 0])
        assert np.array_equal(fit.directions[1], [0, 1])
        assert len(fit.directions) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            decay_fit([X], (0, 1), [1, 2, 3], 1)          # too few radii
        with pytest.raises(ValueError):
            decay_fit([X], (0, 1), [1, 2, 4, 8, 16, 1e6], 1)  # beyond cap
        with pytest.raises(ValueError):
            decay_fit([X, X2], (0, 1), HALF_POW2_RADII, 1)    # dirs < k
        for radii in ([0, 1, 2, 3, 4, 5], [1] * 6):  # used to end in "SVD did not converge"
            with pytest.raises(ValueError, match="6 distinct values, all finite and positive"):
                decay_fit([X], (1, 2), radii, 1)
        # malformed radii text used to surface as an unpacking or int() error
        for text in ["geom:2:64", "halfpow2:2", "halfpow2:a..b", "geom:2:64:x", "1,two",
                     "halfpow2:2000..2010", "geom:0:64:6", "geom:2:64:-1", "geom:1:2:3:4",
                     "halfpow2:1024..1024", "geom"]:
            with pytest.raises(ValueError, match=f"--radii '{re.escape(text)}' is not one of"):
                cli._parse_radii(text)
        with pytest.raises(ValueError, match="all finite and positive"):
            decay_fit([X], (1, 2), cli._parse_radii("geom:1:inf:6"), 1)

    def test_directions_and_seed_are_integers(self):
        # seed 1.0 drew other directions than seed 1, and 4.5 ran 5 directions
        radii = cli._parse_radii("geom:2:64:6")
        fit = decay_fit([X, X2], (1, 2), radii, 3.0, seed=1.0)
        want = decay_fit([X, X2], (1, 2), radii, 3, seed=1)
        assert np.array_equal(fit.directions, want.directions)
        assert np.array_equal(fit.magnitudes, want.magnitudes)
        for n_directions, seed, message in [(4.5, 0, "n_directions must be an integer, got 4.5"),
                                            (True, 0, "n_directions must be an integer, got True"),
                                            (3, True, "seed must be an integer, got True")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                decay_fit([X, X2], (1, 2), radii, n_directions, seed)

    def test_radii_forms(self):
        assert cli._parse_radii(" halfpow2:2..4 ") == [4.5, 8.5, 16.5]
        assert cli._parse_radii("halfpow2:1023..1023") == [2.0 ** 1023 + 0.5]
        assert cli._parse_radii("geom:2:64:6") == list(np.geomspace(2, 64, 6))
        assert cli._parse_radii("3, 1.5") == [3.0, 1.5]
        for text in ["geom:-2:64:6", "geom:nan:64:6"]:  # read, then refused by decay_fit
            with pytest.raises(ValueError, match="all finite and positive"):
                decay_fit([X], (1, 2), cli._parse_radii(text), 1)


class TestNonFinitePhase:
    def test_osc_integral_refuses(self):
        # used to bisect to the 2^20 panel cap and return NaN
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=r"phase 1\.0\*\(exp\(exp\(x\)\)\)"):
                osc_integral([EXP_EXP], [1.0], (6, 7))

    def test_polynomial_phase_past_the_split_range_refuses(self):
        # Dekker's split of lambda = 1.5e300 overflows: this returned NaN
        with pytest.raises(ValueError, match=r"phase 1\.5e\+300\*\(x\) passes the split range"):
            osc_integral([X], [1.5e300], (0.0, 1e-300))

    def test_decay_fit_refuses(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="not finite"):
                decay_fit([X, EXP_EXP], (6, 7), HALF_POW2_RADII, 2)

    @pytest.mark.parametrize("call", [
        lambda: osc_integral([EXP_EXP], [1.0], (6.0, 7.0)),
        lambda: decay_fit([X, EXP_EXP], (6, 7), HALF_POW2_RADII, 2)])
    def test_refused_without_a_warning(self, call):
        # no np.errstate wrap: the overflow of exp(exp(x)) used to escape as
        # a RuntimeWarning, so python -W error exited 1 before the refusal
        with np.errstate(all="warn"), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="is not finite"):
                call()

    def test_cli_exits_2(self, capsys):
        # used to run for about 10 s, then fail with "SVD did not converge"
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["oscdecay", "--f", "exp(exp(x))", "--interval", "6,7",
                             "--radii", "geom:2:64:6", "--dirs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: phase") and "not finite" in err


class TestIntervalRule:
    """Every interval goes through one rule: finite ends with lo < hi."""

    BAD = [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan),
           (1.0, 1.0), (2.0, 1.0)]

    @pytest.mark.parametrize("interval", BAD)
    def test_osc_integral_refuses(self, interval):
        with pytest.raises(ValueError, match="needs finite ends with lo < hi"):
            osc_integral([X], [1.0], interval)

    @pytest.mark.parametrize("interval", BAD)
    def test_vdc_bound_first_refuses(self, interval):
        # (0, inf) used to give the bound 1.0
        with pytest.raises(ValueError, match="needs finite ends with lo < hi"):
            vdc_bound_first(X, 1.0, interval)

    @pytest.mark.parametrize("interval", BAD)
    def test_vdc_bound_high_refuses(self, interval):
        # (0, inf) used to give nan
        with pytest.raises(ValueError, match="needs finite ends with lo < hi"):
            vdc_bound_high(X2, 1.0, interval, 2)

    @pytest.mark.parametrize("interval", BAD)
    def test_check_linear_independence_refuses(self, interval):
        with pytest.raises(ValueError, match="needs finite ends with lo < hi"):
            ex.check_linear_independence([X, X2], interval)

    @pytest.mark.parametrize("interval", ["0,inf", "nan,1", "2,1"])
    def test_udlab_oscdecay_exits_2(self, interval, capsys):
        code = cli.main(["oscdecay", "--f", "x", "--interval", interval,
                         "--radii", "halfpow2:2..7", "--dirs", "1"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "needs finite ends with lo < hi" in err[0]
