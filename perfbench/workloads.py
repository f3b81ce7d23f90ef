"""The benchmark's workloads: their inputs, their ops, the correctness
check of every op result, and the traced decomposition of every op into
public udlab calls.

Each op is one call a user makes (an experiment run, one CLI
subcommand's library call). `ops()` gives the calls exactly as a user
makes them; `replay()` makes the same calls again, split into the public
pieces they are built from, with spans around each piece, and returns
every difference from the untraced result.
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Callable, Dict, List, Tuple

import mpmath
import numpy as np

from udlab import discrepancy as dc
from udlab import expr as ex
from udlab import lab
from udlab import oscillatory as osc
from udlab import scatter as sc
from udlab import sequences as sq
from udlab import weyl as wy

from spans import NULL, TracedGenerator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(ROOT, "tests", "fixtures", "calibration.json")

# Layers whose self time the traced run reports as "<layer>.s".
LAYERS = (
    "lab.max_weyl_series", "lab.build_generator", "expr.parse",
    "discrepancy.ud_trend", "discrepancy.exact",
    "weyl.fracs", "weyl.tower", "weyl.product",
    "weyl.weyl_sum_over_sets", "sequences.index_sets",
    "scatter.fit_scatter", "scatter.growth",
    "oscillatory.osc_integral", "expr.check_linear_independence",
)

# Work counters the traced run reports, with their units.
COUNTERS = {
    "lab.max_weyl_series.frequencies": "count",
    "lab.max_weyl_series.grid_points": "count",
    "discrepancy.lattice_cells": "count",
    "discrepancy.exact.points": "count",
    "weyl.fracs.calls": "count",
    "weyl.fracs.points": "count",
    "weyl.tower.mp_bits": "bits",
    "weyl.weyl_sum_over_sets.points": "count",
    "scatter.exact.pairs": "count",
    "scatter.bucketed.points": "count",
    "scatter.growth.pairs_checked": "count",
    "oscillatory.osc_integral.calls": "count",
    "oscillatory.panels": "count",
    "oscillatory.unreliable": "count",
    "lab.workers2.mismatched_samples": "count",
    "lab.workers2.speedup": "ratio",
}

Op = Tuple[str, Callable[[], object]]


class Workload:
    """Inputs are built by setup(); a seed of 0 gives the pinned inputs."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tracer=NULL) -> None:
        raise NotImplementedError

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def check(self, name: str, result) -> List[str]:
        raise NotImplementedError

    def replay(self, name: str, result, tracer) -> List[str]:
        raise NotImplementedError

    def probe(self, tracer) -> None:
        """Measurements the traced run makes after its traced pass."""


def _differences(label: str, got, want) -> List[str]:
    return [] if got == want else [f"{label}: replay {got!r} != run {want!r}"]


# ---------------------------------------------------------------------------
# Experiments


def replay_experiment(config: lab.ExperimentConfig, report, tracer) -> List[str]:
    """Replays every sample of a serial lab.run_experiment report through
    the public pieces, in the order run_experiment takes them."""
    problems: List[str] = []
    expressions = ([config.tower_base] if config.tower_base else []) + config.functions
    for s in report.samples:
        label = f"sample {s.index}"
        if s.error is not None:
            problems.append(f"{label}: run failed with {s.error}")
            continue
        x = lab.sample_x(config, s.index)
        with tracer.span("lab.build_generator"):
            gen = lab.build_generator(config, x)
            for text in expressions:
                with tracer.span("expr.parse", replay=True):
                    ex.parse_expr(text)
        traced = TracedGenerator(gen, tracer)
        # the experiments here set discrepancy_method "grid" and grid_m
        with tracer.span("discrepancy.ud_trend"):
            rep = dc.ud_trend(traced, report.grid, method="grid", m=config.grid_m)
        tracer.count("discrepancy.lattice_cells",
                     config.grid_m ** gen.dim * len(report.grid))
        points = traced.fracs(np.arange(1, report.grid[-1] + 1))
        with tracer.span("lab.max_weyl_series"):
            mags, argmax = lab.max_weyl_series(points, config.frequency_bound,
                                               report.grid)
        tracer.count("lab.max_weyl_series.frequencies",
                     (2 * config.frequency_bound + 1) ** gen.dim - 1)
        tracer.count("lab.max_weyl_series.grid_points", len(report.grid))
        problems += _differences(f"{label} x", x, s.x)
        problems += _differences(f"{label} D*", rep.values, s.discrepancy.values)
        problems += _differences(f"{label} max |F_N|", mags, s.weyl_max)
        if not all(np.array_equal(a, b) for a, b in zip(argmax, s.weyl_argmax)):
            problems.append(f"{label}: replay maximizing frequencies differ")
    return problems


def _outcomes(report) -> List[tuple]:
    return [(s.x, s.error, s.discrepancy and s.discrepancy.values, s.weyl_max)
            for s in report.samples]


class Calibration(Workload):
    """The frozen acceptance experiment of tests/fixtures/calibration.json,
    run serially. It ignores the seed, so every run checks it bit for bit."""

    def setup(self, tracer=NULL) -> None:
        with open(FIXTURE, "r", encoding="utf-8") as fh:
            self.fixture = json.load(fh)
        self.config = lab.ExperimentConfig.from_dict(self.fixture["config"])

    def ops(self) -> List[Op]:
        return [("experiment", lambda: lab.run_experiment(self.config, workers=1))]

    def check(self, name: str, report) -> List[str]:
        want = self.fixture
        errors = [f"sample {s.index}: {s.error}" for s in report.samples
                  if s.error is not None]
        finals = [s.discrepancy.final_value() for s in report.samples
                  if s.error is None]
        if finals != want["per_sample_final_dstar"]:
            errors.append("per-sample final D* differ from the fixture")
        if report.verdict != want["verdict"]:
            errors.append(f"verdict {report.verdict!r}, fixture {want['verdict']!r}")
        if report.final_median() != want["median_final_dstar"]:
            errors.append("median final D* differs from the fixture")
        if report.pass_fraction != want["pass_fraction"]:
            errors.append("pass fraction differs from the fixture")
        return errors

    def replay(self, name: str, report, tracer) -> List[str]:
        return replay_experiment(self.config, report, tracer)


# ---------------------------------------------------------------------------
# Analysis: the library calls behind the CLI subcommands

TOWER_SAMPLES = 8
TOWER_CHECKED_INDICES = 8     # tower fracs per sample checked against mpmath
TOWER_REFERENCE_GUARD_BITS = 256
THREADS = 2                   # nproc of the reference machine


def tower_frac_reference(g: float, n: int) -> float:
    """frac(g**n) for integer n, with mpmath at the integer bits of g**n
    plus 256 guard bits, independent of udlab's precision policy."""
    int_bits = math.ceil(n * math.log2(g)) + 1
    with mpmath.workprec(int_bits + TOWER_REFERENCE_GUARD_BITS):
        return float(mpmath.frac(mpmath.mpf(g) ** n))


OSC_INTERVAL = (1.0, 2.0)
X_CURVE = 0.3               # curve parameter of the discrepancy and weylsum ops
WEYL_V = [1, -1]
LATTICE_M = 256             # lattice that brackets the exact 2-d D*
WEYLSUM_CHECKED_N = 4       # grid points where prefix sums are checked


class Analysis(Workload):
    """One pass of the library calls behind the CLI subcommands on pinned
    inputs: scatter, growth, oscdecay, discrepancy, weylsum, and
    experiment on a power-tower-curve config. The seed re-draws the
    oscdecay directions and the tower x samples.

    The tower experiment runs serially: run_experiment at workers=2 gives
    results that differ from the serial ones and from run to run on it
    (every thread sets mpmath's one global working precision), so the
    thread pool is measured and its mismatches counted by probe()
    instead."""

    def setup(self, tracer=NULL) -> None:
        def parse(text: str) -> ex.Node:
            with tracer.span("expr.parse"):
                return ex.parse_expr(text)

        self.root_half = sq.make_sequence(sq.power(0.5))
        self.log_square = sq.make_sequence(sq.log_power(2.0))
        self.log_pow = sq.make_sequence(sq.log_power(2.5))
        self.sqrt_res = sq.make_sequence(sq.sqrt_residue())
        self.root_grid = lab.parse_grid("pow2:8..14")
        self.log_grid = lab.parse_grid("pow2:10..16")
        self.osc_fs = [parse("x"), parse("x^2")]
        self.osc_radii = [2.0 ** k + 0.5 for k in range(2, 15)]  # halfpow2:2..14
        self.osc_seed = 1 + self.seed
        self.gen = wy.PointGenerator(
            [wy.ProductCoord(sq.identity(), parse(f), X_CURVE) for f in ("x", "x^2")])
        self.disc_grid = lab.parse_grid("pow2:4..12")
        self.sets = sq.prefixes()
        self.weyl_grid = lab.parse_grid("sublacunary:0.5:100000")
        self.tower = lab.ExperimentConfig(
            kind="power-tower-curve", tower_base="1+x",
            tower_sequences=["identity"], functions=["x"],
            sequences=["identity"], x_interval=(0.2, 0.8), seed=5 + self.seed,
            n_grid="pow2:6..12", frequency_bound=2, discrepancy_method="grid",
            grid_m=64, x_samples=TOWER_SAMPLES)
        self.first_tower = None

    def ops(self) -> List[Op]:
        return [
            ("scatter-root-half",
             lambda: sc.fit_scatter(self.root_half, 1.0, self.root_grid)),
            ("scatter-log-square",
             lambda: sc.fit_scatter(self.log_square, 1.0, self.log_grid)),
            ("growth-log-power",
             lambda: sc.weyl_growth_check(self.log_pow, 10 ** 4, 0.4, 0.3,
                                          budget=10 ** 8)),
            ("growth-sqrt-residue",
             lambda: sc.weyl_growth_check(self.sqrt_res, 100, 0.1, 0.5,
                                          budget=10 ** 7)),
            ("oscdecay",
             lambda: osc.decay_fit(self.osc_fs, OSC_INTERVAL, self.osc_radii, 6,
                                   seed=self.osc_seed)),
            ("discrepancy",
             lambda: dc.ud_trend(self.gen, self.disc_grid, method="exact")),
            ("weylsum",
             lambda: wy.weyl_sum_over_sets(self.gen, WEYL_V, self.sets,
                                           self.weyl_grid)),
            ("experiment-tower", lambda: lab.run_experiment(self.tower, workers=1)),
        ]

    # -- checks (criteria of tests/test_acceptance.py) ------------------------

    def check(self, name: str, result) -> List[str]:
        return getattr(self, "_check_" + name.replace("-", "_"))(result)

    def _check_scatter_root_half(self, rep) -> List[str]:
        # criterion 2 companion: log-corrected law and scatteredness
        errors = []
        if abs(rep.slope_logN + 0.355) > 0.03:
            errors.append(f"slope {rep.slope_logN} not -0.355 +/- 0.03")
        ratio = rep.S[-1] * math.sqrt(rep.grid[-1]) / math.log(rep.grid[-1])
        if not 0.55 <= ratio <= 0.70:
            errors.append(f"S*sqrt(N)/ln N = {ratio} outside [0.55, 0.70]")
        if not min(e for N, e in zip(rep.grid, rep.eps_pointwise) if N >= 2 ** 10) > 0:
            errors.append("no evidence of scatteredness on 2^10..2^14")
        return errors

    def _check_scatter_log_square(self, rep) -> List[str]:
        # criterion 3: S(N) log N >= 1/32, exact value cross-checked
        errors = [f"S*log N < 1/32 at N={N}" for N, s in zip(rep.grid, rep.S)
                  if s * math.log(N) < 1 / 32]
        bucketed = sc.scatter_sum(self.log_square, rep.grid[0], 1.0,
                                  mode="bucketed", eta=0.01)
        if rep.methods[0] != "exact" or \
                abs(rep.S[0] - bucketed.S) > bucketed.error_bound + 1e-15:
            errors.append("exact and bucketed sums disagree at N=2^10")
        return errors

    def _check_growth_log_power(self, rep) -> List[str]:
        # criterion 4, passing half
        if rep.verdict == "pass" and rep.coverage == "exhaustive":
            return []
        return [f"verdict {rep.verdict} with {rep.coverage} coverage"]

    def _check_growth_sqrt_residue(self, rep) -> List[str]:
        # criterion 4, failing half with a verified witness
        if rep.verdict != "fail" or rep.witness is None:
            return [f"verdict {rep.verdict}, witness {rep.witness}"]
        n, m = rep.witness
        if m > n + n / math.log(n) ** 1.1 and \
                abs(self.sqrt_res(m) - self.sqrt_res(n)) <= 0.5:
            return []
        return [f"witness {rep.witness} does not violate the growth condition"]

    def _check_oscdecay(self, fit) -> List[str]:
        errors = []
        if not np.all(fit.magnitudes <= OSC_INTERVAL[1] - OSC_INTERVAL[0] + 1e-9):
            errors.append("|I| exceeds the interval length")
        if np.any(fit.unreliable):
            errors.append(f"{int(np.sum(fit.unreliable))} unreliable quadratures")
        # criterion 6b holds for the pinned directions only: other sampled
        # directions can fit a shallower or noisier slope over these radii
        best = int(np.argmin(np.abs(fit.slopes)))
        if self.seed == 0 and not (fit.delta_hat >= 0.4 and fit.r_squared[best] >= 0.9):
            errors.append(f"delta_hat {fit.delta_hat}, R^2 {fit.r_squared[best]}")
        return errors

    def _check_discrepancy(self, rep) -> List[str]:
        # exact 2-d D* lies in [lattice, lattice + k/m]
        points = self.gen.fracs(np.arange(1, rep.grid[-1] + 1))
        errors = []
        for N, value, method in zip(rep.grid, rep.values, rep.methods):
            lattice, bound = dc.star_discrepancy_kd(points[:N], "grid", LATTICE_M)
            if method != "exact-kd" or not lattice <= value <= lattice + bound:
                errors.append(f"N={N}: {method} D* {value} outside "
                              f"[{lattice}, {lattice + bound}]")
        return errors

    def _check_weylsum(self, series) -> List[str]:
        # prefix sums equal direct weyl_sum bit for bit at sampled N
        errors = [] if series.set_sizes == self.weyl_grid else ["set sizes differ from N"]
        rng = np.random.default_rng([self.seed, 0x3E1])
        picks = rng.choice(len(series.grid) - 1, WEYLSUM_CHECKED_N - 1, replace=False)
        for i in sorted(picks) + [len(series.grid) - 1]:
            N = series.grid[i]
            direct = wy.weyl_sum(self.gen, WEYL_V, N)
            if direct != series.averages[i]:
                errors.append(f"N={N}: prefix {series.averages[i]} != direct {direct}")
        return errors

    def _check_experiment_tower(self, report) -> List[str]:
        # no errors, invariants, repeatable, tower fracs against mpmath
        errors = [f"sample {s.index}: {s.error}" for s in report.samples
                  if s.error is not None]
        if errors:
            return errors
        outcomes = _outcomes(report)
        if self.first_tower is None:
            self.first_tower = outcomes
        elif outcomes != self.first_tower:
            errors.append("results differ from the first pass")
        rng = np.random.default_rng([self.tower.seed, 0x70E5])
        n_max = report.grid[-1]
        for s in report.samples:
            values = np.asarray(s.discrepancy.values)
            if not np.all((values >= 0.0) & (values <= 1.0)):
                errors.append(f"sample {s.index}: D* outside [0, 1]")
            if not all(0.0 <= m <= 1.0 + 1e-12 for m in s.weyl_max):
                errors.append(f"sample {s.index}: |F_N| outside [0, 1]")
            indices = np.unique(np.append(
                rng.integers(1, n_max, size=TOWER_CHECKED_INDICES), n_max))
            coord = wy.TowerCoord(ex.parse_expr(self.tower.tower_base),
                                  sq.identity(), s.x)
            g = 1.0 + s.x   # the tower base "1+x", evaluated in double
            for n, got in zip(indices, coord.fracs(indices)):
                gap = abs(got - tower_frac_reference(g, int(n)))
                if min(gap, 1.0 - gap) > 2.0 ** -52:
                    errors.append(f"sample {s.index}: frac((1+x)^{n}) off by {gap:.3g}")
        return errors

    # -- traced decomposition -------------------------------------------------

    def replay(self, name: str, result, tracer) -> List[str]:
        kind = name.split("-")[0]
        if kind in ("scatter", "growth"):
            op = dict(self.ops())[name]
            return getattr(self, "_replay_" + kind)(op, result, tracer)
        return getattr(self, "_replay_" + name.replace("-", "_"))(result, tracer)

    def _replay_scatter(self, op: Callable, want, tracer) -> List[str]:
        with tracer.span("scatter.fit_scatter"):
            rep = op()
        for N, method in zip(rep.grid, rep.methods):
            if method == "exact":
                tracer.count("scatter.exact.pairs", N * (N - 1) // 2)
            else:
                tracer.count("scatter.bucketed.points", N)
        return _differences("S", rep.S, want.S)

    def _replay_growth(self, op: Callable, want, tracer) -> List[str]:
        with tracer.span("scatter.growth"):
            rep = op()
        tracer.count("scatter.growth.pairs_checked", rep.pairs_checked)
        return _differences("growth report", rep, want)

    def _replay_oscdecay(self, fit, tracer) -> List[str]:
        """decay_fit's quadratures, one osc_integral per (direction,
        radius), then its independence test."""
        problems = []
        for i, omega in enumerate(fit.directions):
            for j, r in enumerate(fit.radii):
                with tracer.span("oscillatory.osc_integral"):
                    est = osc.osc_integral(self.osc_fs, r * omega, OSC_INTERVAL)
                tracer.count("oscillatory.osc_integral.calls")
                tracer.count("oscillatory.panels", est.panels)
                tracer.count("oscillatory.unreliable", int(not est.reliable))
                problems += _differences(f"|I| at direction {i}, R={r}",
                                         (est.magnitude, not est.reliable),
                                         (fit.magnitudes[i, j], fit.unreliable[i, j]))
        with tracer.span("expr.check_linear_independence"):
            report = ex.check_linear_independence(self.osc_fs, OSC_INTERVAL)
        # (x, x^2) is independent, so decay_fit flags no degenerate direction
        return problems + _differences(
            "degenerate direction flagged", report.verdict == "dependent",
            fit.degenerate_direction is not None)

    def _replay_discrepancy(self, want, tracer) -> List[str]:
        with tracer.span("discrepancy.exact"):
            rep = dc.ud_trend(TracedGenerator(self.gen, tracer), self.disc_grid,
                              method="exact")
        tracer.count("discrepancy.exact.points", sum(rep.grid))
        return _differences("exact D*", rep.values, want.values)

    def _replay_weylsum(self, want, tracer) -> List[str]:
        with tracer.span("weyl.weyl_sum_over_sets"):
            series = wy.weyl_sum_over_sets(TracedGenerator(self.gen, tracer),
                                           WEYL_V, self.sets, self.weyl_grid)
            views = []
            for N in self.weyl_grid:
                with tracer.span("sequences.index_sets", replay=True):
                    views.append(sq.index_sets(self.sets, N))
        tracer.count("weyl.weyl_sum_over_sets.points", sum(series.set_sizes))
        return (_differences("F_N", series.averages, want.averages)
                + _differences("|S_N|", [v.size for v in views], want.set_sizes)
                + _differences("sum 1/|S_M|", [v.partial_inverse_sum for v in views],
                               want.inverse_size_partial_sums))


    def _replay_experiment_tower(self, report, tracer) -> List[str]:
        return replay_experiment(self.tower, report, tracer)

    def probe(self, tracer) -> None:
        """Runs the tower experiment serially and then on a thread pool;
        counts the samples whose results differ, and the speed-up."""
        t0 = time.perf_counter()
        serial = lab.run_experiment(self.tower, workers=1)
        t1 = time.perf_counter()
        threaded = lab.run_experiment(self.tower, workers=THREADS)
        t2 = time.perf_counter()
        tracer.count("lab.workers2.mismatched_samples", sum(
            a != b for a, b in zip(_outcomes(threaded), _outcomes(serial))))
        tracer.count("lab.workers2.speedup", (t1 - t0) / (t2 - t1))


WORKLOADS: Dict[str, type] = {
    "calibration": Calibration,
    "analysis": Analysis,
}
