"""Scatteredness statistics for real sequences.

The central quantity is the normalized pair sum

    S_delta(N) = (1/N^2) * sum_{1 <= m < n <= N} min(|a(n)-a(m)|^-delta, 1)

whose decay like (log N)^-(1+eps) defines a delta-scattered sequence, and
the pairwise growth condition |a(m)-a(n)| > g for m > n + n/(log n)^(1+eps)
that implies it. Because both definitions quantify over all large N,
finite runs can only produce evidence; reports say so explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import sequences as sq
from .numerics import derive_seed, unit_directions

EXACT_CUTOFF = 1 << 13  # beyond this many terms, auto mode switches to buckets
BUCKET_ETA_DEFAULT = 0.01
_BLOCK_ELEMENTS = 1 << 17  # doubles per row block of the exact sum, cache-sized


@dataclass(frozen=True)
class ScatterValue:
    S: float
    error_bound: float  # absolute; 0 in exact mode
    method: str  # "exact" | "bucketed(eta=...)"


def _finite_values(a, ns: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(a(ns), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("sequence values must be finite")
    return vals


def _pair_diffs(a, lo: int, N: int):
    """The one rule for |a(n) - a(m)| over index arrays with lo <= n, m <= N.

    An evaluator with the abs_diff hook (the block-constant tower) gives
    its exact differences, which may be inf but not NaN. Any other
    evaluator is evaluated once on lo..N; its values must be finite. Start
    at the smallest index the caller uses: a(n) may be undefined below it.
    """
    if hasattr(a, "abs_diff"):
        return a.abs_diff
    vals = _finite_values(a, np.arange(lo, N + 1))
    return lambda ns, ms: np.abs(d := vals[ns - lo] - vals[ms - lo], out=d)  # one alloc


def _exact_sums(a, Ns: Sequence[int], delta: float) -> List[float]:
    """Direct pair sums S(N), N in Ns, in one pass over the lower triangle
    m < n <= max(Ns); a NaN difference raises. Row blocks have bounds and
    widths set by the row index alone, so S(N) = fsum(row sums to N) / N^2
    does not depend on max(Ns). An inf difference d >= 2^1024 costs
    d^-delta <= 2^(-1024*delta), not negligible for small delta: it is
    priced from the hook's log2_abs_diff; without one it is priced 0 when
    delta >= 53/1024 (at most 2^-53) and refused below that."""
    top = max(Ns, default=1)
    diff = _pair_diffs(a, 1, top)
    row_sums = np.zeros(top + 1)
    lo = 2
    while lo <= top:
        # rows * (lo - 1 + rows) <= _BLOCK_ELEMENTS; columns past top are masked
        hi = lo + max(1, (math.isqrt(lo * lo + 4 * _BLOCK_ELEMENTS) - lo) // 2)
        ns, cols = np.arange(lo, min(hi, top + 1))[:, None], np.arange(1, hi)
        ms = np.minimum(cols, top)[None, :]
        d = diff(ns, ms)
        big = np.isinf(d)
        with np.errstate(divide="ignore", over="ignore"):  # d == 0 gives 1, inf 0
            c = np.minimum(np.power(d, -delta, out=d), 1.0, out=d)
        if np.any(big):
            ns_b, ms_b = (idx[big] for idx in np.broadcast_arrays(ns, ms))
            if hasattr(a, "log2_abs_diff"):
                c[big] = np.exp2(-delta * a.log2_abs_diff(ns_b, ms_b))
            elif delta < 53 / 1024:
                raise ValueError("pair differences overflow a double; "
                                 "their price is not negligible at delta < 53/1024")
        c[:, lo - 1:] = np.where(cols[lo - 1:] < ns, c[:, lo - 1:], 0.0)
        row_sums[lo:lo + len(ns)] = np.sum(c, axis=1)
        lo = hi
    if np.isnan(row_sums).any():
        raise ValueError("sequence differences must not be NaN")
    return [math.fsum(row_sums[:N + 1]) / (N * N) for N in Ns]


def _count_pairs_within(vals: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """For sorted vals, the number of pairs i<j with vals[j]-vals[i] <= t for
    each threshold t: in the stable order of (vals - t, vals) needle j sits at
    j + #{i: vals[i] < vals[j] - t}, and timsort merges the two runs in linear time."""
    n = len(vals)
    counts = np.empty(len(thresholds), dtype=np.int64)
    for k, t in enumerate(thresholds):
        # a loop keeps the last order alive: no heap trim and re-fault per t
        order = np.argsort(np.concatenate((vals - t, vals)), kind="stable")
        counts[k] = n * (n - 1) - int(np.flatnonzero(order < n).sum())
    return counts


def _bucketed_sum(a, N: int, delta: float, eta: float) -> ScatterValue:
    vals = np.sort(_finite_values(a, np.arange(1, N + 1)))
    span = float(vals[-1] - vals[0])
    n_buckets = int(math.ceil(math.log(span) / math.log1p(eta))) + 1 if span > 1.0 else 0
    edges = np.power(1.0 + eta, np.arange(n_buckets + 1))  # edges[0] = 1
    cum = _count_pairs_within(vals, edges)
    exact_part = float(cum[0])  # each pair within 1 contributes exactly 1
    per_bucket = np.diff(cum)  # pairs with diff in (edges[j], edges[j+1]]
    geo_mean = np.sqrt(edges[:-1] * edges[1:])
    approx_part = float(np.sum(per_bucket * np.power(geo_mean, -delta)))
    err = approx_part * (math.pow(1.0 + eta, delta / 2.0) - 1.0)
    return ScatterValue((exact_part + approx_part) / (N * N), err / (N * N),
                        f"bucketed(eta={eta:g})")


def _scatter_values(a, Ns: List[int], delta: float, mode: str,
                    eta: float) -> List[ScatterValue]:
    """S_delta(N) for every N in the increasing list Ns from one evaluation
    a(1..max(Ns)) and one exact pass over the lower triangle."""
    if Ns[0] < 2:
        raise ValueError("need N >= 2")
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    if mode not in ("auto", "exact", "bucketed"):
        raise ValueError(f"unknown mode '{mode}'")
    modes = [("exact" if N <= EXACT_CUTOFF or hasattr(a, "abs_diff") else "bucketed")
             if mode == "auto" else mode for N in Ns]
    if "bucketed" in modes and not (0.0 < eta <= 0.05):
        raise ValueError("bucket ratio eta must lie in (0, 0.05]")
    if not hasattr(a, "abs_diff"):
        vals = _finite_values(a, np.arange(1, Ns[-1] + 1))
        a = lambda n: vals[n - 1]  # one evaluation, sliced for every N
    exact = iter(_exact_sums(a, [N for N, m in zip(Ns, modes) if m == "exact"], delta))
    return [ScatterValue(next(exact), 0.0, "exact") if m == "exact"
            else _bucketed_sum(a, N, delta, eta) for N, m in zip(Ns, modes)]


def scatter_sum(a, N: int, delta: float, mode: str = "auto",
                eta: float = BUCKET_ETA_DEFAULT) -> ScatterValue:
    """The normalized pair sum S_delta(N) for an evaluator a.

    Exact mode is the direct O(N^2) sum over the lower triangle in
    cache-sized row blocks. Bucketed mode sorts the values, counts pairs
    per geometric difference bucket by one linear merge per edge and
    prices each bucket at its edge geometric mean; pairs with difference
    <= 1 are counted exactly, so the advertised relative error delta*eta
    applies only to the remainder. Auto picks exact up to N = 2^13.
    """
    return _scatter_values(a, [N], delta, mode, eta)[0]


@dataclass
class ScatterReport:
    """S_delta over an N grid with the fitted decay diagnostics.

    eps_pointwise[i] solves S = (log N)^-(1+eps) at grid point i; the
    conservative estimate eps_hat is its minimum. Both regression slopes
    are reported, but log log N spans under one unit on desk-scale grids,
    so eps_pointwise is the primary statistic and the regressions are
    secondary diagnostics. The verdict is labeled evidence: the definition
    quantifies over every sufficiently large N.
    """

    delta: float
    grid: List[int]
    S: List[float]
    error_bounds: List[float]
    methods: List[str]
    eps_pointwise: List[float]
    eps_hat: float
    slope_loglog: float
    slope_logN: float
    evidence_scattered: bool
    label: str = "evidence over the covered range only"


def fit_scatter(a, delta: float, grid: Sequence[int], mode: str = "auto",
                eta: float = BUCKET_ETA_DEFAULT) -> ScatterReport:
    grid = [int(N) for N in grid]
    if len(grid) < 4:
        raise ValueError("need at least 4 grid points")
    if grid[0] < 8:
        raise ValueError("grid minimum must be >= 8")
    if any(b <= a_ for a_, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    svs = _scatter_values(a, grid, delta, mode, eta)
    values = [sv.S for sv in svs]
    eps = [math.log(1.0 / s) / math.log(math.log(N)) - 1.0 if s > 0 else math.inf
           for s, N in zip(values, grid)]
    logs = np.log(np.asarray(values))
    slope_ll = float(np.polyfit(np.log(np.log(grid)), logs, 1)[0])
    slope_ln = float(np.polyfit(np.log(grid), logs, 1)[0])
    eps_hat = float(min(eps))
    return ScatterReport(delta, grid, values, [sv.error_bound for sv in svs],
                         [sv.method for sv in svs], eps, eps_hat, slope_ll, slope_ln,
                         eps_hat > 0.0)


# ---------------------------------------------------------------------------
# Weyl growth condition


@dataclass(frozen=True)
class GrowthReport:
    eps: float
    g: float
    N: int
    verdict: str  # "pass" | "fail"
    witness: Optional[Tuple[int, int]]  # (n, m) violating pair
    coverage: str  # "exhaustive" | "sampled"
    pairs_checked: int


def growth_threshold(n, eps: float):
    """Smallest m that the growth condition constrains: all m with
    m > n + n/(log n)^(1+eps) must satisfy |a(m)-a(n)| > g."""
    n = np.asarray(n, dtype=float)
    with np.errstate(divide="ignore"):
        thr = n + n / np.log(n) ** (1.0 + eps)
    return np.floor(thr) + 1  # first integer strictly beyond; inf at n=1


def weyl_growth_check(a, N: int, eps: float, g: float, budget: int = 10 ** 7,
                      seed: int = 0) -> GrowthReport:
    """Scan pairs constrained by the growth condition for a violation.

    All constrained pairs are scanned when their count fits the budget;
    otherwise every boundary pair m = ceil(n + n/(log n)^(1+eps)) is
    scanned plus budget-many seeded uniform pairs beyond the threshold.
    a(1) is never evaluated. Values a(2..N) from an evaluator without the
    abs_diff hook must be finite, and a NaN difference raises.
    """
    if N < 8:
        raise ValueError("need N >= 8")
    if not (eps > 0 and g > 0):
        raise ValueError("eps and g must be positive")
    ns_all = np.arange(2, N + 1, dtype=np.int64)
    m0 = growth_threshold(ns_all, eps)
    total = int(np.sum(np.maximum(0, N - m0 + 1)))  # m0 may be inf, never NaN
    diff = _pair_diffs(a, 2, N)

    def scan(ns: np.ndarray, ms: np.ndarray, mask=True) -> Optional[Tuple[int, int]]:
        diffs = diff(ns, ms)
        # ~(d > g) also flags NaN, so a NaN difference costs no extra pass
        hits = np.flatnonzero(~(diffs > g) & mask)
        if not len(hits):
            return None
        i = int(hits[0])
        if np.isnan(diffs.flat[i]):
            raise ValueError("sequence differences must not be NaN")
        ns, ms = np.broadcast_arrays(ns, ms)
        return int(ns.flat[i]), int(ms.flat[i])

    if total <= budget:
        checked = 0
        for lo in range(0, len(ns_all), 128):
            rows = ns_all[lo:lo + 128]
            row_m0 = m0[lo:lo + 128]
            start = int(np.min(row_m0[np.isfinite(row_m0)], initial=N + 1))
            if start > N:
                continue
            cols = np.arange(start, N + 1, dtype=np.int64)
            mask = cols[None, :] >= row_m0[:, None]
            wit = scan(rows[:, None], cols[None, :], mask)
            checked += int(np.count_nonzero(mask))
            if wit is not None:
                return GrowthReport(eps, g, N, "fail", wit, "exhaustive", checked)
        return GrowthReport(eps, g, N, "pass", None, "exhaustive", checked)

    # boundary pairs first
    sel = np.isfinite(m0) & (m0 <= N)
    ns_b = ns_all[sel]
    ms_b = m0[sel].astype(np.int64)
    checked = len(ns_b)
    wit = scan(ns_b, ms_b)
    if wit is None:
        rng = np.random.default_rng(derive_seed(seed, N))
        remaining = budget
        while remaining > 0 and wit is None:
            take = min(remaining, 1 << 18)
            ns_r = rng.integers(2, N, size=take, endpoint=False)
            lo_m = growth_threshold(ns_r, eps)
            ok = np.isfinite(lo_m) & (lo_m <= N)
            ns_r, lo_m = ns_r[ok], lo_m[ok]
            ms_r = (lo_m + np.floor(rng.random(len(ns_r)) * (N - lo_m + 1))).astype(np.int64)
            checked += len(ns_r)
            wit = scan(ns_r, ms_r)
            remaining -= take
    if wit is not None:
        return GrowthReport(eps, g, N, "fail", wit, "sampled", checked)
    return GrowthReport(eps, g, N, "pass", None, "sampled", checked)


# ---------------------------------------------------------------------------
# Joint scatteredness over sampled directions


@dataclass
class JointScatterReport:
    directions: List[np.ndarray]
    reports: List[ScatterReport]
    min_eps_hat: float
    evidence_jointly_scattered: bool
    label: str = "sampled directions only; evidence, not proof"


def joint_scatter_check(specs: Sequence[sq.SequenceSpec], delta: float,
                        grid: Sequence[int], directions: int, seed: int = 0,
                        mode: str = "auto") -> JointScatterReport:
    """Scatteredness of v . (a_1, ..., a_k) at the k axis directions plus
    seeded uniform unit directions."""
    k = len(specs)
    if k < 2:
        raise ValueError("need at least two sequences")
    if directions < k:
        raise ValueError("need at least k directions")
    dirs = unit_directions(seed, k, directions)
    reports = []
    for v in dirs:
        combo = sq.linear_combination(
            [(float(w), s) for w, s in zip(v, specs) if w != 0.0])
        reports.append(fit_scatter(sq.make_sequence(combo), delta, grid, mode=mode))
    min_eps = min(r.eps_hat for r in reports)
    return JointScatterReport(dirs, reports, min_eps, min_eps > 0.0)
