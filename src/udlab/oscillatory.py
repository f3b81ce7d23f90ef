"""Oscillatory integrals int_I e(lambda . f(x)) dx, derivative-test upper
bounds, and the empirical decay-exponent fit.

Phase convention: e(t) = exp(2*pi*i*t), so phases are measured in cycles
and the derivative-test bounds consume phi = lambda . f directly, with no
2*pi factors. The quadrature bisects panels until the estimated phase
variation per panel is at most a quarter cycle, then applies a 15-point
Kronrod rule with its embedded 7-point Gauss rule as error estimate, and
keeps refining the worst panels until the error estimate meets the
tolerance or PANEL_CAP panels are in use. The estimate is reliable when
its error estimate meets the tolerance. Error estimates are numerical
diagnostics, not rigorous enclosures.

Memory is about 60 bytes per final panel at the peak, in the bisection
(15 MiB at 262,160 panels): a level keeps only its panel ends, as rows
(x, phi, phi'), and evaluates midpoint jets and the variation test
_RULE_BLOCK panels at a time. No bisection array is alive while the rule
runs; it needs 40 bytes per panel (ends, value and error) plus the 15
nodes of one block of _RULE_BLOCK panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import expr as ex
from .numerics import check_interval, e_phase, unit_directions

PANEL_CAP = 1 << 20
R_MAX = 1 << 16
PHASE_VARIATION_PER_PANEL = 0.25  # cycles
TOL_MIN, TOL_MAX = 1e-12, 1e-4
_RULE_BLOCK = 1 << 12  # panels per rule block: 61k nodes, about 1 MB complex

# Kronrod-15 abscissae and weights with the embedded Gauss-7 weights, the
# QUADPACK dqk15 layout rounded to double from 60-digit mpmath values: the
# Kronrod abscissae are the roots of P_7 and of its Stieltjes polynomial,
# the weights integrate x^0..x^14 exactly (Laurie, Math. Comp. 66, 1997).
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
    0.20778495500789848, 0.0])
_WGK = np.array([
    0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
    0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
    0.20443294007529889, 0.20948214108472782])
_WG = np.array([
    0.1294849661688697, 0.27970539148927664, 0.3818300505051189,
    0.4179591836734694])

_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])        # 15 ascending
_WEIGHTS_K = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:14:2] = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])


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

    @property
    def magnitude(self) -> float:
        return abs(self.value)


def _phase_jet(fs: Sequence[ex.Node], lam: np.ndarray, xs: np.ndarray,
               order: int) -> np.ndarray:
    """Rows 0..order of phi = lambda . f at xs; row 0 is the phase itself.
    A non-finite value or derivative raises ValueError naming the phase."""
    total = np.zeros((order + 1, len(xs)))
    for coef, f in zip(lam, fs):
        if coef != 0.0:
            total += coef * ex.eval_jet_many(f, xs, order)
    bad = ~np.isfinite(total)
    if np.any(bad):
        phase = " + ".join(f"{float(c)!r}*({ex.to_text(f)})" for c, f in zip(lam, fs))
        x = float(xs[np.argmax(np.any(bad, axis=0))])
        raise ValueError(f"phase {phase} is not finite at x = {x!r} (jet order {order})")
    return total


def _rule(fs: Sequence[ex.Node], lam: np.ndarray, a: np.ndarray,
          b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """K15 value and |K15 - G7| of each panel [a, b], _RULE_BLOCK panels at
    a time; each panel's sums depend on its own nodes only."""
    k15 = np.empty(len(a), dtype=complex)
    err = np.empty(len(a))
    for lo in range(0, len(a), _RULE_BLOCK):
        ab, bb = a[lo:lo + _RULE_BLOCK], b[lo:lo + _RULE_BLOCK]
        half = 0.5 * (bb - ab)
        mid = 0.5 * (ab + bb)
        xs = mid[:, None] + half[:, None] * _NODES[None, :]
        z = e_phase(_phase_jet(fs, lam, xs.ravel(), 0)[0].reshape(xs.shape))
        block = k15[lo:lo + len(ab)]
        np.multiply(half, np.einsum("pk,k->p", z, _WEIGHTS_K), out=block)  # no BLAS threads
        g7 = half * np.einsum("pk,k->p", z, _WEIGHTS_G)
        np.abs(block - g7, out=err[lo:lo + len(ab)])
    return k15, err


def _bisect(fs: Sequence[ex.Node], lam: np.ndarray, lo: float,
            hi: float) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Ends a, b of each level's done panels in the phase-bounded bisection
    of [lo, hi], one array per level. Splitting stops as a whole once it
    would pass PANEL_CAP.

    A level's panels are the left halves, then the right halves, of the
    panels split at the level before. Their end rows (x, phi, phi') lie in
    one array E = [A | M | B] of the split panels' lower ends, midpoints
    and upper ends, so the n lower ends are E[:, :n] and the upper ends
    E[:, -n:]. Midpoint jets and the variation test run _RULE_BLOCK panels
    at a time and are not kept: filling the next E evaluates the jets of
    the midpoints that split again.
    """
    width_floor = (hi - lo) * 1e-14
    xs = np.array([lo, 0.5 * (lo + hi), hi])  # a refusal names the leftmost bad x
    E = np.vstack([xs, _phase_jet(fs, lam, xs, 1)])[:, ::2]
    n, done, done_a, done_b = 1, 0, [], []
    while True:
        a, b, ok = E[:, :n], E[:, -n:], np.empty(n, dtype=bool)
        for i in range(0, n, _RULE_BLOCK):
            (xa, pa, da), (xb, pb, db) = a[:, i:i + _RULE_BLOCK], b[:, i:i + _RULE_BLOCK]
            pm, dm = _phase_jet(fs, lam, 0.5 * (xa + xb), 1)
            var = np.maximum(np.abs(pm - pa) + np.abs(pb - pm),
                             (xb - xa) / 6.0 * (np.abs(da) + 4.0 * np.abs(dm) + np.abs(db)))
            ok[i:i + len(xa)] = (var <= PHASE_VARIATION_PER_PANEL) | (xb - xa <= width_floor)
        s = n - np.count_nonzero(ok)
        if done + n + s > PANEL_CAP:
            ok[:], s = True, 0
        done += n - s
        done_a.append(a[0][ok])
        done_b.append(b[0][ok])
        if s == 0:
            return done_a, done_b
        E_next, split = np.empty((3, 3 * s)), ~ok
        for row in range(3):  # row by row: one temporary of s values
            E_next[row, :s] = a[row][split]
            E_next[row, 2 * s:] = b[row][split]
        for i in range(s, 2 * s, _RULE_BLOCK):
            j = min(i + _RULE_BLOCK, 2 * s)
            E_next[0, i:j] = 0.5 * (E_next[0, i - s:j - s] + E_next[0, i + s:j + s])
            E_next[1:, i:j] = _phase_jet(fs, lam, E_next[0, i:j], 1)
        E, n = E_next, 2 * s


def osc_integral(fs: Sequence[ex.Node], lam, interval, tol: float = 1e-9) -> OscillatoryEstimate:
    """Adaptive phase-bounded quadrature for int_I e(lambda . f) dx."""
    lo, hi = check_interval(interval)
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}]")
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if len(lam) != len(fs):
        raise ValueError(f"lambda has length {len(lam)}, expected {len(fs)}")
    # phase-bounded bisection, then refinement: halve the panels with the
    # largest errors that still fit
    a, b = map(np.concatenate, _bisect(fs, lam, lo, hi))
    values, errors = _rule(fs, lam, a, b)
    while float(np.sum(errors)) > tol and len(a) < PANEL_CAP:
        cut = max(float(np.max(errors)) * 0.5, tol / (2.0 * len(a)))
        split = errors >= cut  # cut <= max(errors): never empty
        room = PANEL_CAP - len(a)  # each split adds one panel
        if np.count_nonzero(split) > room:
            split[:] = False
            split[np.argsort(errors)[-room:]] = True
        keep, sa, sb = ~split, a[split], b[split]
        mid = 0.5 * (sa + sb)  # all left halves, then all right
        na, nb = np.concatenate([sa, mid]), np.concatenate([mid, sb])
        nv, ne = _rule(fs, lam, na, nb)
        a, b = np.concatenate([a[keep], na]), np.concatenate([b[keep], nb])
        values, errors = np.concatenate([values[keep], nv]), np.concatenate([errors[keep], ne])
    error = float(np.sum(errors))
    return OscillatoryEstimate(lam, (lo, hi), complex(np.sum(values)), error, len(a),
                               error <= tol)


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

MIN_FIT_CELLS = 3


@dataclass
class OscillatoryDecayFit:
    """|int_I e(R * omega . f)| over directions and radii with per-direction
    and pooled log-log fits.

    A cell whose |I| does not exceed its error estimate is below the
    quadrature noise and left out of every fit; a direction with fewer
    than MIN_FIT_CELLS cells above it has NaN slope, intercept and R^2.
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
    below_noise: np.ndarray       # bool (directions, radii): |I| <= error estimate
    degenerate_direction: Optional[np.ndarray] = None
    degenerate_magnitudes: Optional[np.ndarray] = None


def _fit_line(logr: np.ndarray, logm: np.ndarray) -> Tuple[float, float, float]:
    slope, intercept = np.polyfit(logr, logm, 1)
    fitted = slope * logr + intercept
    ss_res = float(np.sum((logm - fitted) ** 2))
    ss_tot = float(np.sum((logm - np.mean(logm)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res == 0 else 0.0)
    return float(slope), float(intercept), r2


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
    radii = np.asarray(sorted(float(r) for r in radii))
    if not (np.all(np.isfinite(radii) & (radii > 0)) and len(np.unique(radii)) >= 6):
        raise ValueError(f"radii {', '.join(f'{r:g}' for r in radii)}: need at least"
                         " 6 distinct values, all finite and positive")
    if radii[-1] > R_MAX:
        raise ValueError(f"max radius capped at {R_MAX}")
    if n_directions < k:
        raise ValueError("need at least k directions")
    directions = unit_directions(seed, k, n_directions)

    mags = np.zeros((len(directions), len(radii)))
    errors = np.zeros_like(mags)
    unreliable = np.zeros_like(mags, dtype=bool)
    for i, omega in enumerate(directions):
        for j, r in enumerate(radii):
            est = osc_integral(fs, r * omega, interval, tol=tol)
            mags[i, j] = est.magnitude
            errors[i, j] = est.error
            unreliable[i, j] = not est.reliable

    below = mags <= errors
    logr = np.log(radii)
    fits = np.full((len(directions), 3), np.nan)  # slope, intercept, R^2
    for i, signal in enumerate(~below):
        if np.count_nonzero(signal) >= MIN_FIT_CELLS:
            fits[i] = _fit_line(logr[signal], np.log(mags[i, signal]))
    fitted = ~np.isnan(fits[:, 0])
    if not np.any(fitted):
        cells = "; ".join(f"direction {i} at R = {', '.join(f'{r:g}' for r in radii[row])}"
                          for i, row in enumerate(below) if np.any(row))
        raise ValueError(f"no direction has {MIN_FIT_CELLS} cells above the quadrature"
                         f" noise; |I| <= its error estimate at {cells}")
    pooled = _fit_line(np.tile(logr, len(directions))[~below.ravel()], np.log(mags[~below]))
    delta_hat = float(np.min(np.abs(fits[fitted, 0])))

    degen_dir = degen_mags = None
    report = ex.check_linear_independence(fs, interval)
    if report.verdict == "dependent":
        lam_part = report.null_direction[1:]
        norm = np.linalg.norm(lam_part)
        if norm > 1e-12:
            degen_dir = lam_part / norm
            degen_mags = np.array([
                osc_integral(fs, r * degen_dir, interval, tol=tol).magnitude
                for r in radii])
    return OscillatoryDecayFit(directions, radii, mags, *fits.T, *pooled, delta_hat,
                               unreliable, errors, below, degen_dir, degen_mags)
