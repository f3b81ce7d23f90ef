"""Oscillatory integrals int_I e(lambda . f(x)) dx, derivative-test upper
bounds, and the empirical decay-exponent fit.

Phase convention: e(t) = exp(2*pi*i*t), so phases are measured in cycles
and the derivative-test bounds consume phi = lambda . f directly, with no
2*pi factors. The quadrature bisects panels until the estimated phase
variation per panel is at most two cycles, applies the 31-point Kronrod
rule with its embedded 15-point Gauss rule to each panel, and halves the
panels with the largest |K31 - G15| while the estimate misses the
tolerance. No split lowers the rounding floor, so refinement is skipped
when the floor alone exceeds the tolerance, and it ends at the first
round that does not lower sum |K31 - G15|, whose panels are dropped;
PANEL_CAP only bounds memory. The expression trees decide once per
integral how the nodes get their phases:

* Polynomial phases, where every f with lambda_i != 0 is built from x,
  +, -, * and integer powers >= 0 over subtrees free of x (degree d at
  most JET_ORDER_CAP): each node's phase is t(mid) mod 1, from a
  double-double evaluation of the trees, plus the degree-d Taylor offset
  from the panel midpoint, so the rounding of a large t(mid) never
  reaches the nodes. K31 - G15 cannot see the rounding of the sums, so
  the error estimate adds a rounding floor 2u (hi - lo) (u = 2^-53).
* Every other phase: each node's phase is evaluated on its own. Its
  rounding differs from node to node and shows in |K31 - G15|, so no
  floor is added.

The estimate is reliable when its error estimate meets the tolerance.
It also carries its rounding noise 2 pi u int |lambda . f|: the
first-order change of the integral under a relative rounding u of the
phase, which no quadrature of the double inputs can resolve. Error
estimates and noise are numerical diagnostics, not rigorous enclosures.

Memory peaks in the rule: 48 bytes per final panel (ends, value, error
and noise) plus a few arrays over the nodes of one block of _RULE_BLOCK
panels, about 3 MiB (15 MiB at 262,146 panels, 51 MiB at PANEL_CAP). The
bisection keeps only panel ends and runs the variation test _RULE_BLOCK
panels at a time; it peaks at about 37 bytes per final panel, and none
of its arrays is alive while the rule runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import expr as ex
from .numerics import (MIN_FIT_CELLS, UNIT_ROUNDOFF, check_integer, check_interval, dd_add,
                       dd_mul, e_phase, fit_line, two_sum, unit_directions)

PANEL_CAP = 1 << 20  # memory guard: about 51 bytes per panel at the peak, in the rule
R_MAX = 1 << 16
TOL_MIN, TOL_MAX = 1e-12, 1e-4
_RULE_BLOCK = 1 << 11  # panels per rule block: 63k K31 nodes, about 1 MB complex


def _kronrod(xgk, wgk, wg):
    """Ascending nodes, Kronrod weights and embedded Gauss weights (zero at
    the Kronrod-only nodes) from the QUADPACK half layout: xgk descends to
    0.0, and the Gauss nodes are xgk[1], xgk[3], ..., 0.0."""
    xgk, wgk, wg = map(np.array, (xgk, wgk, wg))
    gauss = np.zeros(2 * len(xgk) - 1)
    gauss[1::2] = np.concatenate([wg[:-1], wg[::-1]])
    return (np.concatenate([-xgk[:-1], xgk[::-1]]), np.concatenate([wgk[:-1], wgk[::-1]]),
            gauss)


# Kronrod-31 / Gauss-15 (QUADPACK dqk31), rounded to double from 60-digit
# mpmath values: the Kronrod abscissae are the roots of P_15 and of its
# Stieltjes polynomial, the weights integrate x^0..x^46 exactly (Laurie,
# Math. Comp. 66, 1997). On criterion 6a's 24 cells (x^d on [1, 2],
# R = 2^j + 1/2) |K31 - G15| is 0.46-0.9 u, the true error at most 0.3 u.
_K31 = _kronrod(
    [0.9980022986933971, 0.9879925180204854, 0.9677390756791391, 0.937273392400706,
     0.8972645323440819, 0.8482065834104272, 0.790418501442466, 0.7244177313601701,
     0.650996741297417, 0.5709721726085388, 0.4850818636402397, 0.3941513470775634,
     0.29918000715316884, 0.20119409399743451, 0.1011420669187175, 0.0],
    [0.005377479872923349, 0.015007947329316122, 0.02546084732671532, 0.03534636079137585,
     0.04458975132476488, 0.05348152469092809, 0.06200956780067064, 0.06985412131872826,
     0.07684968075772038, 0.08308050282313302, 0.08856444305621176, 0.09312659817082532,
     0.09664272698362368, 0.09917359872179196, 0.10076984552387559, 0.10133000701479154],
    [0.03075324199611727, 0.07036604748810812, 0.10715922046717194, 0.13957067792615432,
     0.16626920581699392, 0.1861610000155622, 0.19843148532711158, 0.2025782419255613])
_PANEL_CYCLES = 2.0  # phase variation per panel; three cycles let G15 truncation show


def vdc_constant(d: int) -> float:
    """Working constant for the d-th derivative test. Not claimed sharp;
    verified empirically against quadrature on every test case."""
    return 2.0 ** d


@dataclass
class OscillatoryEstimate:
    lam: np.ndarray
    interval: Tuple[float, float]
    value: complex
    error: float
    panels: int
    reliable: bool
    noise: float  # 2 pi u int |lambda . f|: I's change under a relative rounding u of the phase

    @property
    def magnitude(self) -> float:
        return abs(self.value)


def _phase_jet(fs: Sequence[ex.Node], lam: np.ndarray, xs: np.ndarray,
               order: int) -> np.ndarray:
    """Rows 0..order of phi = lambda . f at xs; row 0 is the phase itself.
    A non-finite value or derivative raises ValueError naming the phase."""
    total = np.zeros((order + 1, len(xs)))
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        for coef, f in zip(lam, fs):
            if coef != 0.0:
                total += coef * ex.eval_jet_many(f, xs, order)
    bad = ~np.isfinite(total)
    if np.any(bad):
        x = float(xs[np.argmax(np.any(bad, axis=0))])
        raise ValueError(f"phase {_phase_text(fs, lam)} is not finite at x = {x!r}"
                         f" (jet order {order})")
    return total


def _phase_text(fs: Sequence[ex.Node], lam: np.ndarray) -> str:
    return " + ".join(f"{float(c)!r}*({ex.to_text(f)})" for c, f in zip(lam, fs))


def _phase_degree(fs: Sequence[ex.Node], lam: np.ndarray) -> Optional[int]:
    """Degree of the phase lambda . f when every f with lambda_i != 0 is a
    polynomial tree of degree at most JET_ORDER_CAP (see
    expr.polynomial_degree), else None."""
    degrees = [ex.polynomial_degree(f) for c, f in zip(lam, fs) if c != 0.0]
    if None in degrees or max(degrees, default=0) > ex.JET_ORDER_CAP:
        return None
    return max(degrees, default=0)


def _mod1_dd(fs: Sequence[ex.Node], lam: np.ndarray, x: np.ndarray):
    """lambda . f(x) mod 1 for a polynomial phase, as a double-double
    (hi, lo) with |hi| <= 1/2: the phase summed in double-double, then the
    nearest integers of hi and lo dropped; y - rint(y) is exact for every
    double y."""
    hi = lo = np.zeros_like(x)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for c, f in zip(lam, fs):
            if c != 0.0:
                hi, lo = dd_add((hi, lo), dd_mul((c, 0.0), ex.evaluate_dd(f, x)))
    bad = ~np.isfinite(lo)
    if np.any(bad):
        raise ValueError(f"phase {_phase_text(fs, lam)} passes the split range of the"
                         f" double-double evaluation at x = {float(x[np.argmax(bad)])!r}")
    hi, lo = two_sum(hi - np.rint(hi), lo - np.rint(lo))
    return hi - np.rint(hi), lo


def _rule(fs: Sequence[ex.Node], lam: np.ndarray, a: np.ndarray, b: np.ndarray,
          degree: Optional[int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value, |K31 - G15| and rounding noise of each panel [a, b],
    _RULE_BLOCK panels at a time; each panel's sums depend on its own nodes
    only. The noise is 2 pi u int |lambda . f|.

    General phases (degree None): each node's phase is evaluated on its
    own. Polynomial phases of degree d: each node's phase is t(mid) mod 1
    plus the degree-d Taylor offset from mid, which is exact up to
    rounding, so no rounding of t(mid) itself reaches the nodes."""
    nodes, weights_k, weights_g = _K31
    value, err, noise = np.empty(len(a), dtype=complex), np.empty(len(a)), np.empty(len(a))
    for lo in range(0, len(a), _RULE_BLOCK):
        ab, bb = a[lo:lo + _RULE_BLOCK], b[lo:lo + _RULE_BLOCK]
        half = 0.5 * (bb - ab)
        mid = 0.5 * (ab + bb)
        if degree is None:
            xs = mid[:, None] + half[:, None] * nodes[None, :]
            t = _phase_jet(fs, lam, xs.ravel(), 0)[0].reshape(xs.shape)
            z = e_phase(t)
        else:
            taylor = _phase_jet(fs, lam, mid, degree) / ex._FACTORIALS[:degree + 1, None]
            dx = half[:, None] * nodes[None, :]
            t = np.zeros_like(dx)  # Horner in dx = x - mid over rows d..1
            for row in taylor[:0:-1]:
                t += row[:, None]
                t *= dx
            mod_hi, mod_lo = _mod1_dd(fs, lam, mid)
            phase = np.add(t, mod_lo[:, None], out=dx)  # dx is spent: reuse its buffer
            phase += mod_hi[:, None]
            z = e_phase(phase)
            t += taylor[0][:, None]
        block = slice(lo, lo + len(ab))
        np.multiply(half, np.einsum("pk,k->p", z, weights_k), out=value[block])  # no BLAS threads
        gauss = half * np.einsum("pk,k->p", z, weights_g)
        np.abs(value[block] - gauss, out=err[block])
        np.abs(t, out=t)
        noise[block] = (2.0 * math.pi * UNIT_ROUNDOFF) * half * np.einsum("pk,k->p", t, weights_k)
    return value, err, noise


def _halve(a: np.ndarray, b: np.ndarray, split: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Ends of the halves of the panels [a, b] picked by split: all left
    halves, then all right halves."""
    sa, sb = a[split], b[split]
    mid = 0.5 * (sa + sb)
    return np.concatenate([sa, mid]), np.concatenate([mid, sb])


def _bisect(fs: Sequence[ex.Node], lam: np.ndarray, lo: float,
            hi: float) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Ends a, b of each level's done panels in the bisection of [lo, hi]
    to panels whose phase varies by at most _PANEL_CYCLES cycles, one array
    per level. Splitting stops as a whole once it would pass PANEL_CAP.
    The variation test evaluates the order-1 jet at the ends and midpoints
    of _RULE_BLOCK panels in one call; a refusal names the first bad x of
    the first failing block, in the order [a | mid | b]."""
    width_floor = (hi - lo) * 1e-14
    a, b = np.array([lo]), np.array([hi])
    done, done_a, done_b = 0, [], []
    while True:
        n = len(a)
        ok = np.empty(n, dtype=bool)
        for i in range(0, n, _RULE_BLOCK):
            xa, xb = a[i:i + _RULE_BLOCK], b[i:i + _RULE_BLOCK]
            jet = _phase_jet(fs, lam, np.concatenate([xa, 0.5 * (xa + xb), xb]), 1)
            (pa, pm, pb), (da, dm, db) = jet.reshape(2, 3, len(xa))
            var = np.maximum(np.abs(pm - pa) + np.abs(pb - pm),
                             (xb - xa) / 6.0 * (np.abs(da) + 4.0 * np.abs(dm) + np.abs(db)))
            ok[i:i + len(xa)] = (var <= _PANEL_CYCLES) | (xb - xa <= width_floor)
        s = n - np.count_nonzero(ok)
        if done + n + s > PANEL_CAP:
            ok[:], s = True, 0
        done += n - s
        done_a.append(a[ok])
        done_b.append(b[ok])
        if s == 0:
            return done_a, done_b
        a, b = _halve(a, b, ~ok)


def osc_integral(fs: Sequence[ex.Node], lam, interval, tol: float = 1e-9) -> OscillatoryEstimate:
    """Adaptive phase-bounded quadrature for int_I e(lambda . f) dx."""
    lo, hi = check_interval(interval)
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}]")
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if len(lam) != len(fs):
        raise ValueError(f"lambda has length {len(lam)}, expected {len(fs)}")
    # phase-bounded bisection, then refinement while the floor leaves room
    # under tol: halve the worst that fit, and drop the first round that
    # does not lower sum |K - G|, which ends it
    degree = _phase_degree(fs, lam)
    a, b = map(np.concatenate, _bisect(fs, lam, lo, hi))
    values, errors, noise = _rule(fs, lam, a, b, degree)
    # the rounding floor, K31's resabs 2 (hi - lo) times u as |e(t)| = 1, on
    # the exact-phase path only: per-node phase rounding shows in |K - G|
    floor = 0.0 if degree is None else 2.0 * UNIT_ROUNDOFF * (hi - lo)
    spread = float(np.sum(errors))
    while floor < tol < spread + floor and len(a) < PANEL_CAP:
        cut = max(float(np.max(errors)) * 0.5, tol / (2.0 * len(a)))
        split = errors >= cut  # cut <= max(errors): never empty
        room = PANEL_CAP - len(a)  # each split adds one panel
        if np.count_nonzero(split) > room:
            split[:] = False
            split[np.argsort(errors)[-room:]] = True
        keep, (na, nb) = ~split, _halve(a, b, split)
        nv, ne, nn = _rule(fs, lam, na, nb, degree)
        if not float(np.sum(errors[keep])) + float(np.sum(ne)) < spread:
            break
        a, b = np.concatenate([a[keep], na]), np.concatenate([b[keep], nb])
        values, errors = np.concatenate([values[keep], nv]), np.concatenate([errors[keep], ne])
        noise = np.concatenate([noise[keep], nn])
        spread = float(np.sum(errors))
    error = spread + floor
    return OscillatoryEstimate(lam, (lo, hi), complex(np.sum(values)), error, len(a),
                               error <= tol, float(np.sum(noise)))


# ---------------------------------------------------------------------------
# Derivative-test bounds (phase in cycles)

_FIRST_ORDER_SAMPLES = 128
_HIGH_ORDER_SAMPLES = 1024
_DERIV_FLOOR = 1e-300


def vdc_bound_first(f: ex.Node, lam: float, interval) -> float:
    """First-derivative bound max(1/|phi'(a)|, 1/|phi'(b)|) per piece with
    monotone phi', summed over pieces.

    Monotonicity of phi' is established by sampling the sign of phi'' at
    128 points and splitting at detected sign changes. Returns inf when
    phi' vanishes at a checked endpoint or changes sign inside a piece
    (the bound is vacuous there).
    """
    lo, hi = check_interval(interval)
    xs = np.linspace(lo, hi, _FIRST_ORDER_SAMPLES + 1)
    dphi, ddphi = float(lam) * ex.eval_jet_many(f, xs, 2)[1:]
    # a piece ends midway between consecutive nonzero phi'' of opposite sign
    nonzero = np.flatnonzero(ddphi)
    i, j = nonzero[:-1], nonzero[1:]
    flip = np.sign(ddphi[i]) != np.sign(ddphi[j])
    cuts = np.concatenate(([lo], 0.5 * (xs[i[flip]] + xs[j[flip]]), [hi]))
    # the samples in the closed piece k are xs[first[k]:stop[k]]
    first, stop = np.searchsorted(xs, cuts[:-1], "left"), np.searchsorted(xs, cuts[1:], "right")
    neg, pos = (np.concatenate(([0], np.cumsum(s))) for s in (dphi < 0, dphi > 0))
    if np.any((neg[stop] > neg[first]) & (pos[stop] > pos[first])):
        return math.inf  # phi' crosses zero in a piece: minimum modulus is 0
    ends = np.abs(float(lam) * ex.eval_jet_many(f, cuts, 1)[1])
    if np.any(ends < _DERIV_FLOOR):
        return math.inf
    return float(np.cumsum(np.maximum(1.0 / ends[:-1], 1.0 / ends[1:]))[-1])  # in order


def vdc_bound_high(f: ex.Node, lam: float, interval, d: int) -> float:
    """d-th derivative bound C_d * (inf |phi^(d)|)^(-1/d), d >= 2.

    The infimum over the interval is approximated by 1024 samples plus
    local refinement around the three smallest; the sampling resolution is
    part of the contract, exactness is not claimed.
    """
    if not (2 <= d <= 8):
        raise ValueError("need 2 <= d <= 8")
    lo, hi = check_interval(interval)
    xs = np.linspace(lo, hi, _HIGH_ORDER_SAMPLES)
    mags = np.abs(float(lam) * ex.eval_jet_many(f, xs, d)[d])
    spacing = (hi - lo) / (_HIGH_ORDER_SAMPLES - 1)
    smallest = np.argsort(mags, kind="stable")[:3]
    for idx in smallest:
        left = max(lo, xs[idx] - spacing)
        right = min(hi, xs[idx] + spacing)
        fine = np.linspace(left, right, 64)
        mags = np.append(mags, np.abs(float(lam) * ex.eval_jet_many(f, fine, d)[d]))
    inf_mag = float(np.min(mags))
    if inf_mag < _DERIV_FLOOR:
        return math.inf
    return vdc_constant(d) * inf_mag ** (-1.0 / d)


# ---------------------------------------------------------------------------
# Decay-exponent fit


@dataclass
class OscillatoryDecayFit:
    """|int_I e(R * omega . f)| over directions and radii with per-direction
    and pooled log-log fits.

    A cell whose |I| does not exceed its error estimate plus its rounding
    noise (OscillatoryEstimate.noise) is below the quadrature noise and
    left out of every fit; a direction with fewer than MIN_FIT_CELLS
    cells above it has NaN slope, intercept and R^2.
    delta_hat is the minimum slope magnitude over the fitted directions:
    a sampled lower-confidence estimate of the true exponent, which
    depends on vanishing orders a finite sample can miss. Only the fitted
    intercept is reported for the constant."""

    directions: List[np.ndarray]
    radii: np.ndarray
    magnitudes: np.ndarray        # (directions, radii)
    slopes: np.ndarray
    intercepts: np.ndarray
    r_squared: np.ndarray
    pooled_slope: float
    pooled_intercept: float
    pooled_r_squared: float
    delta_hat: float
    unreliable: np.ndarray        # bool (directions, radii)
    errors: np.ndarray            # quadrature error estimates (directions, radii)
    noise: np.ndarray             # rounding noise (directions, radii)
    below_noise: np.ndarray       # bool (directions, radii): |I| <= error + noise
    degenerate_direction: Optional[np.ndarray] = None
    degenerate_magnitudes: Optional[np.ndarray] = None
    degenerate_errors: Optional[np.ndarray] = None
    degenerate_noise: Optional[np.ndarray] = None


def decay_fit(fs: Sequence[ex.Node], interval, radii: Sequence[float],
              n_directions: int, seed: int = 0, tol: float = 1e-9) -> OscillatoryDecayFit:
    """Fit |int e(R * omega . f)| ~ C * R^(-delta) over sampled directions.

    Axis directions come first, then seeded uniform sphere samples. If the
    function family is linearly dependent, the null direction (restricted
    to the lambda components and normalized) is evaluated separately and
    flagged; along it the phase is constant so the magnitude pins at |I|.
    A ValueError names the cells below the noise when no direction is fitted.
    """
    k = len(fs)
    if k == 0:
        raise ValueError("need at least one function")
    radii = np.asarray(sorted(float(r) for r in radii))
    if not (np.all(np.isfinite(radii) & (radii > 0)) and len(np.unique(radii)) >= 6):
        raise ValueError(f"radii {', '.join(f'{r:g}' for r in radii)}: need at least"
                         " 6 distinct values, all finite and positive")
    if radii[-1] > R_MAX:
        raise ValueError(f"max radius capped at {R_MAX}")
    n_directions = check_integer(n_directions, "n_directions")
    seed = check_integer(seed, "seed")  # hashed as str(seed): 1.0 must read as 1
    if n_directions < k:
        raise ValueError("need at least k directions")
    directions = unit_directions(seed, k, n_directions)

    mags = np.zeros((len(directions), len(radii)))
    errors = np.zeros_like(mags)
    noise = np.zeros_like(mags)
    unreliable = np.zeros_like(mags, dtype=bool)
    for i, omega in enumerate(directions):
        for j, r in enumerate(radii):
            est = osc_integral(fs, r * omega, interval, tol=tol)
            mags[i, j] = est.magnitude
            errors[i, j] = est.error
            noise[i, j] = est.noise
            unreliable[i, j] = not est.reliable

    below = mags <= errors + noise
    logr = np.log(radii)
    fits = np.array([fit_line(logr[signal], np.log(mags[i, signal]))  # slope, intercept, R^2
                     for i, signal in enumerate(~below)])
    fitted = ~np.isnan(fits[:, 0])
    if not np.any(fitted):
        cells = "; ".join(f"direction {i} at R = {', '.join(f'{r:g}' for r in radii[row])}"
                          for i, row in enumerate(below) if np.any(row))
        raise ValueError(f"no direction has {MIN_FIT_CELLS} cells above the quadrature"
                         f" noise; |I| <= its error estimate plus noise at {cells}")
    pooled = fit_line(np.tile(logr, len(directions))[~below.ravel()], np.log(mags[~below]))
    delta_hat = float(np.min(np.abs(fits[fitted, 0])))

    degen_dir, degen = None, [None] * 3  # magnitudes, errors, noise
    report = ex.check_linear_independence(fs, interval)
    if report.verdict == "dependent":
        lam_part = report.null_direction[1:]
        norm = np.linalg.norm(lam_part)
        if norm > 1e-12:
            degen_dir = lam_part / norm
            ests = [osc_integral(fs, r * degen_dir, interval, tol=tol) for r in radii]
            degen = [np.array([e.magnitude for e in ests]), np.array([e.error for e in ests]),
                     np.array([e.noise for e in ests])]
    return OscillatoryDecayFit(directions, radii, mags, *fits.T, *pooled, delta_hat,
                               unreliable, errors, noise, below, degen_dir, *degen)
