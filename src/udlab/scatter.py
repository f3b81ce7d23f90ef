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
from .numerics import UNIT_ROUNDOFF, check_integer, derive_seed, fit_line, unit_directions

EXACT_CUTOFF = 1 << 13  # beyond this many terms, auto mode switches to buckets (not with the hook)
BUCKET_ETA_DEFAULT = 0.01
_BLOCK_ELEMENTS = 1 << 17  # pairs per block of the exact sum and the growth scan, cache-sized


@dataclass(frozen=True)
class ScatterValue:
    S: float
    error_bound: float  # absolute; 0 in exact mode
    method: str  # "exact" | "bucketed(eta=...)"


def _pair_diffs(a, lo: int, N: int):
    """The one rule for |a(n) - a(m)| over index arrays with lo <= n, m <= N.

    An evaluator with the abs_diff hook (the block-constant tower) gives
    its exact differences, which may be inf but not NaN. Any other
    evaluator is evaluated once on lo..N; its values must be finite. Start
    at the smallest index the caller uses: a(n) may be undefined below it.
    Returns the rule and the values a(lo..N), None with the hook.
    """
    if hasattr(a, "abs_diff"):
        return a.abs_diff, None
    vals = sq.finite_values(a, sq.index_range(N, lo))
    rule = lambda ns, ms: np.abs(d := vals[ns - lo] - vals[ms - lo], out=d)  # one alloc
    return rule, vals


def _monotone(vals: np.ndarray) -> int:
    """1 if vals never decrease, else -1 if they never increase, else 0; a
    step that overflows keeps its sign."""
    with np.errstate(over="ignore"):
        steps = np.diff(vals)
    return 1 if np.all(steps >= 0) else -1 if np.all(steps <= 0) else 0


def _row_blocks(top: int):
    """Row blocks (lo, end, width) of m < n <= top: rows lo..end-1 and
    columns 1..width, set by lo alone; the nominal rows width + 1 - lo
    times width stay within _BLOCK_ELEMENTS, and columns past top are
    masked."""
    lo = 2
    while lo <= top:
        hi = lo + max(1, (math.isqrt(lo * lo + 4 * _BLOCK_ELEMENTS) - lo) // 2)
        yield lo, min(hi, top + 1), hi - 1
        lo = hi


def _exact_sums(a, Ns: Sequence[int], delta: float) -> List[float]:
    """Direct pair sums S(N), N in Ns, in one pass over the lower triangle
    m < n <= max(Ns); a NaN difference raises. Row blocks have bounds and
    widths set by the row index alone, so S(N) = fsum(row sums to N) / N^2
    does not depend on max(Ns). Each block is written into one buffer, by
    the hook or one subtraction, priced as max(d, 1)^-delta (equal to
    min(d^-delta, 1); a reciprocal at delta = 1), zeroed from the diagonal
    on and summed along rows. Values in order (read negated, exactly, if
    they never increase) skip the absolute value, as d = a(n) - a(m) >= 0
    for m < n, and clamp only from the first column where the block's
    first row has d <= 1: left of it that row has d > 1, so every later
    row has d >= 1 (rounding is monotone). A difference is inf only with
    the hook or values of infinite span fl(max - min); d >= 2^1024 costs
    d^-delta <= 2^(-1024*delta), not negligible for small delta: it is
    priced from the hook's log2_abs_diff; without one it is priced 0 when
    delta >= 53/1024 (at most 2^-53) and refused below that."""
    if not Ns:
        return []
    top = max(Ns)
    diff, vals = _pair_diffs(a, 1, top)
    blocks = list(_row_blocks(top))
    buf = np.empty(max((end - lo) * width for lo, end, width in blocks))
    upper = np.triu(np.ones((blocks[0][2], blocks[0][2]), dtype=bool))  # m >= n
    row_sums = np.zeros(top + 1)
    sign, infs = 0, vals is None  # infs: a difference may be inf
    if vals is not None:
        infs = not math.isfinite(float(vals.max()) - float(vals.min()))
        sign = _monotone(vals)
        if sign < 0:
            vals = -vals  # exact, and never decreasing
        cols = np.pad(vals, (0, blocks[-1][2] - top), mode="edge")  # a(m) for m past top: a(top)
    for lo, end, width in blocks:
        d = buf[:(end - lo) * width].reshape(end - lo, width)
        with np.errstate(over="ignore"):
            if vals is None:
                d[...] = diff(np.arange(lo, end)[:, None], np.minimum(np.arange(1, width + 1), top))
            else:
                np.subtract(vals[lo - 1:end - 1, None], cols[:width], out=d)
        big = np.isinf(d) if infs else None
        band = d[:, np.count_nonzero(d[0] > 1.0):] if sign else np.abs(d, out=d)
        np.maximum(band, 1.0, out=band)
        if delta == 1.0:
            np.reciprocal(d, out=d)
        else:
            np.power(d, -delta, out=d)
        if infs and big.any():
            if hasattr(a, "log2_abs_diff"):
                i, j = np.nonzero(big)
                d[big] = np.exp2(-delta * a.log2_abs_diff(lo + i, np.minimum(j + 1, top)))
            elif delta < 53 / 1024:
                raise ValueError("pair differences overflow a double; "
                                 "their price is not negligible at delta < 53/1024")
        np.copyto(d[:, lo - 1:], 0.0, where=upper[:end - lo, :width + 1 - lo])
        np.sum(d, axis=1, out=row_sums[lo:end])
    if np.isnan(row_sums).any():
        raise ValueError("sequence differences must not be NaN")
    return [math.fsum(row_sums[:N + 1]) / (N * N) for N in Ns]


def _edge_ratio(delta: float, eta: float) -> float:
    """The bucket ratio r: the largest (to 2^-40) whose convexity bracket
    on (a, r a], of relative width at most delta (delta + 1) (r - 1)^2
    r^delta / 8, stays within (1 + eta)^(delta/2) - 1, the bound of a
    geometric-mean price on buckets of ratio 1 + eta."""
    rho = math.pow(1.0 + eta, delta / 2.0) - 1.0
    lo, hi = 1.0, 2.0  # eta <= 0.05 keeps r below 1.45
    while hi - lo > 2.0 ** -40:
        mid = 0.5 * (lo + hi)
        wide = delta * (delta + 1.0) * (mid - 1.0) ** 2 * mid ** delta / 8.0 > rho
        lo, hi = (lo, mid) if wide else (mid, hi)
    return lo


def _far_moments(vals: np.ndarray, edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For sorted vals and each edge t: over the pairs i < j counted beyond
    t, vals[i] < fl(vals[j] - t), their number, the sums of d and of d^2
    for d = vals[j] - vals[i], and a bound on the rounding error of the
    sum of d against the pairs' real differences.

    In the stable order of (vals - t, vals) needle j sits at j + c_j, with
    c_j = #{i: vals[i] < fl(vals[j] - t)} a prefix of vals, and value i at
    n - w_i + i, with w_i = #{j: c_j > i}; timsort merges the two runs in
    linear time. With u = vals - median and P the prefix sums of u,
    sum d = sum_j c_j u_j - sum_i w_i u_i and sum d^2 = sum_j c_j u_j^2
    + sum_i w_i u_i^2 - 2 sum_j u_j P[c_j]. The sum of d takes u (rounded
    once), two dot products of n terms and a subtraction, so it errs by at
    most gamma_(n+2) M, M = sum_j c_j |u_j| + sum_i w_i |u_i|; gamma_(2n+4)
    times the computed M covers M's own rounding as well (gamma_k =
    k u / (1 - k u), u the unit roundoff). The sum of d^2 cancels when the
    span is far above d; it only steers the estimate inside its bracket.
    """
    n = len(vals)
    u = vals - vals[n // 2]
    powers = np.stack((u, u * u, np.abs(u)))
    prefix = np.concatenate(([0.0], np.cumsum(u)))
    idx = np.arange(n)
    gamma = (2 * n + 4) * UNIT_ROUNDOFF / (1.0 - (2 * n + 4) * UNIT_ROUNDOFF)
    counts = np.empty(len(edges), dtype=np.int64)
    moments = np.empty((len(edges), 3))  # sum d, sum d^2, error bound of sum d
    for k, t in enumerate(edges):
        # a loop keeps the last order alive: no heap trim and re-fault per t
        order = np.argsort(np.concatenate((vals - t, vals)), kind="stable")
        needle = order < n
        c = np.flatnonzero(needle) - idx
        w = n - (np.flatnonzero(~needle) - idx)
        up, down = (np.einsum("kn,n->k", powers, x) for x in (c, w))
        counts[k] = int(c.sum())
        moments[k] = (up[0] - down[0], up[1] + down[1] - 2.0 * np.einsum("n,n->", u, prefix[c]),
                      gamma * (up[2] + down[2]))
    return counts, moments


def _bucketed_sum(a, N: int, delta: float, eta: float) -> ScatterValue:
    """Pairs within 1 count 1 each. A bucket (lo, hi] between edges of the
    ratio r of _edge_ratio, with n pairs of mean mu, is priced between the
    convexity bracket L = n f(mu) (Jensen) and U = n chord_f(mu)
    (Edmundson-Madansky), f = d^-delta, by the Taylor value
    E = n f(mu) + f''(mu)/2 sum (d - mu)^2 clipped into [L, U]. The bound
    is the sum of max(E - L, U - E) plus the rounding: an error e in a
    bucket's sum of d moves L and U by at most delta lo^(-delta-1) e, and
    a rounded needle fl(vals[j] - t) moves a pair across edge t by at most
    eps_t = u max_j |vals[j] - t| (u the unit roundoff), which widens the
    bracket's ends and, at edge 1 where the price min(d^-delta, 1) bends,
    costs a pair at most delta eps_1."""
    vals = np.sort(sq.finite_values(a, sq.index_range(N)))
    span = float(vals[-1]) - float(vals[0])  # a Python float: inf without a warning
    if not math.isfinite(span):
        raise ValueError(f"bucketed mode needs values of finite span, got max - min = {span}")
    r = _edge_ratio(delta, eta)
    # edges 1, r, .. past r * span: a pair of difference <= 1 may still be
    # counted beyond the rounded needle at 1, and a bucket above must take it
    n_buckets = (int(math.ceil(math.log(span) / math.log(r))) if span > 1.0 else 0) + 1
    edges = np.power(r, np.arange(n_buckets + 1))
    counts, moments = _far_moments(vals, edges)
    eps = UNIT_ROUNDOFF * np.maximum(np.abs(vals[0] - edges), np.abs(vals[-1] - edges))
    n = -np.diff(counts)  # pairs with d in (edges[k], edges[k+1]]
    some = n > 0
    sum_d, sum_dd = -np.diff(moments[:, :2], axis=0)[some].T
    err_d = (moments[:-1, 2] + moments[1:, 2])[some]
    n, lo, hi = n[some], (edges[:-1] - eps[:-1])[some], (edges[1:] + eps[1:])[some]
    mu = np.clip(sum_d / n, lo, hi)
    low = n * mu ** -delta
    high = n * (lo ** -delta * (hi - mu) + hi ** -delta * (mu - lo)) / (hi - lo)
    spread = np.maximum(sum_dd - 2.0 * mu * sum_d + n * mu * mu, 0.0)  # sum (d - mu)^2
    est = np.clip(low + delta * (delta + 1.0) / 2.0 * mu ** (-delta - 2.0) * spread, low, high)
    pairs = N * (N - 1) // 2
    err = (float(np.sum(np.maximum(est - low, high - est)))
           + delta * float(np.sum(lo ** (-delta - 1.0) * err_d)) + delta * float(eps[0]) * pairs)
    return ScatterValue((pairs - int(counts[0]) + float(np.sum(est))) / (N * N), err / (N * N),
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
    ns = sq.index_range(Ns[-1])  # refuses an oversized grid before any pass
    if not hasattr(a, "abs_diff"):
        vals = sq.finite_values(a, ns)
        a = lambda n: vals[n - 1]  # one evaluation, sliced for every N
    exact = iter(_exact_sums(a, [N for N, m in zip(Ns, modes) if m == "exact"], delta))
    return [ScatterValue(next(exact), 0.0, "exact") if m == "exact"
            else _bucketed_sum(a, N, delta, eta) for N, m in zip(Ns, modes)]


def scatter_sum(a, N: int, delta: float, mode: str = "auto",
                eta: float = BUCKET_ETA_DEFAULT) -> ScatterValue:
    """The normalized pair sum S_delta(N) for an evaluator a.

    Exact mode is the direct O(N^2) sum over the lower triangle in
    cache-sized row blocks of one buffer, priced as max(d, 1)^-delta
    (a reciprocal at delta = 1); values in order skip the absolute value
    and clamp only near the diagonal.

    Bucketed mode sorts the values and takes one linear merge per coarse
    edge r^k, which gives the count and the sums of d and d^2 of the pairs
    beyond it; each bucket between edges is priced inside its convexity
    bracket, r being the widest ratio whose bracket meets the relative
    bound (1 + eta)^(delta/2) - 1 on the far pairs. Pairs with difference
    <= 1 are counted exactly, and the reported bound adds the rounding of
    the sums. Auto picks exact up to N = 2^13, and at every N for an
    evaluator with the abs_diff hook (iterexp), as buckets need values of
    finite span. N is an integer (10.0 reads as 10).
    """
    return _scatter_values(a, [check_integer(N, "N")], delta, mode, eta)[0]


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
    grid = [check_integer(N, "grid point N") for N in grid]
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
    slope_ll = fit_line(np.log(np.log(grid)), logs)[0]
    slope_ln = fit_line(np.log(grid), logs)[0]
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
    When all are scanned and a(2..N) never decreases or never increases,
    the rounded |a(m) - a(n)| never falls as m grows, so each row is
    decided by its boundary pair and only those pairs are evaluated.
    pairs_checked counts the pairs covered: when all are scanned, the
    constrained pairs in row-major order up to the witness (all of them on
    a pass); when sampled, the pairs drawn. a(1) is never evaluated.
    Values a(2..N) from an evaluator without the abs_diff hook must be
    finite, and a NaN difference raises.
    """
    N, budget = check_integer(N, "N"), check_integer(budget, "budget")
    seed = check_integer(seed, "seed")  # hashed as str(seed): 1.0 must read as 1
    if N < 8:
        raise ValueError("need N >= 8")
    if not (0 < eps < math.inf and 0 < g < math.inf):
        raise ValueError(f"eps and g must be finite and positive, got eps = {eps}, g = {g}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    ns_all = sq.index_range(N, 2)
    m0 = growth_threshold(ns_all, eps)
    per_row = np.maximum(0, N - m0 + 1)  # m0 may be inf, never NaN
    total = int(np.sum(per_row))
    diff, vals = _pair_diffs(a, 2, N)

    def scan(ns: np.ndarray, ms: np.ndarray, mask=True) -> Optional[Tuple[int, int]]:
        with np.errstate(over="ignore"):  # an inf difference exceeds g
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

    sel = m0 <= N  # boundary pairs (n, m0(n)); an inf m0 fails
    ns_b, ms_b = ns_all[sel], m0[sel].astype(np.int64)
    if total <= budget:
        if vals is not None and _monotone(vals):
            wit = scan(ns_b, ms_b)  # monotone: a row's boundary pair decides it
        else:
            # row blocks of about _BLOCK_ELEMENTS pairs from the smallest m0 on
            first = np.minimum.accumulate(m0[::-1])[::-1]
            wit, lo = None, 0
            while wit is None and lo < len(ns_all) and first[lo] <= N:
                cols = np.arange(int(first[lo]), N + 1, dtype=np.int64)
                hi = lo + max(1, _BLOCK_ELEMENTS // len(cols))
                wit = scan(ns_all[lo:hi, None], cols[None, :], cols[None, :] >= m0[lo:hi, None])
                lo = hi
        if wit is None:
            return GrowthReport(eps, g, N, "pass", None, "exhaustive", total)
        n, m = wit
        checked = int(np.sum(per_row[:n - 2])) + m - int(m0[n - 2]) + 1
        return GrowthReport(eps, g, N, "fail", wit, "exhaustive", checked)

    checked = len(ns_b)  # boundary pairs first
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
    directions, seed = check_integer(directions, "directions"), check_integer(seed, "seed")
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
