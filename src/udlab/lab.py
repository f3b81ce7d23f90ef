"""Config-driven experiment harness: Monte Carlo over the curve parameter
x, with discrepancy trends and maximal Weyl sums per sample, quantile
aggregation, threshold verdicts, and deterministic CSV/SVG emission.

Almost-everywhere statements are operationalized as: at least a configured
fraction (default 90%) of seeded uniform x samples must pass the
per-sample threshold, and the report lists the exceptional set. Full
measure admits measure-zero exceptions that finite sampling can
legitimately hit, so a single bad sample is a finding, not a failure.

Per-sample randomness is derived by hashing (master seed, sample index):
dropping one sample never perturbs another sample's stream, and the whole
report is reproducible byte for byte from (config, seed).
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from . import discrepancy as dc
from . import expr as ex
from . import sequences as sq
from . import weyl as wy
from .numerics import TOWER_GUARD_BITS, check_integer, check_interval, derive_seed, is_number
from .weyl import max_weyl_series

EXPERIMENT_KINDS = (
    "curve-product",            # (a_1(n) f_1(x), ..., a_k(n) f_k(x))
    "power-tower-curve",        # (g(x)^b(n), a_1(n) f_1(x), ...)
    "power-tower-pair",         # (g(x)^b_1(n), g(x)^b_2(n)); exploratory
    "diagonal-counterexample",  # (a(n) x, a(n) x): obstructed at v=(1,-1)
    "custom",                   # raw coordinate descriptors
)
# The tower coordinates a kind takes from tower_sequences, all on tower_base.
_KIND_TOWERS = {"power-tower-curve": 1, "power-tower-pair": 2}


# ---------------------------------------------------------------------------
# Grid / generator textual specs (shared by configs and the CLI)


GRID_LENGTH_CAP = 1 << 16  # entries per grid; every consumer works per entry


def checked(read: Callable, ok: Callable) -> Callable:
    """A read_spec field reader: read(text), refused unless ok(value)."""
    def check(text: str):
        if not ok(value := read(text)):
            raise ValueError(text)
        return value
    return check


def read_spec(text: str, forms: Dict, kind: str):
    """What spec text gives. forms maps NAME to (usage, separator, field
    readers, build), the last under None: "NAME:REST" gives build(text,
    *fields) with REST split at the separator and field i read by reader
    i; other text is read by the form under None, whose one reader reads
    every field. A wrong field count, or a reader's ValueError or
    OverflowError, refuses the text naming every usage."""
    text = text.strip()
    name, _, rest = text.partition(":")
    if name not in forms:
        name, rest = None, text
    _, separator, readers, build = forms[name]
    fields = rest.split(separator)
    try:
        readers = [readers] * len(fields) if callable(readers) else readers
        values = [read(field) for read, field in zip(readers, fields, strict=True)]
    except (ValueError, OverflowError):
        *most, last = [form[0] for form in forms.values()]
        listing = f"one of {', '.join(most)} or {last}" if most else last
        raise ValueError(f"{kind} '{text}' is not {listing}") from None
    return build(text, *values)


def _check_grid_length(text: str, length: int) -> None:
    """Refuse a grid of more than GRID_LENGTH_CAP entries; length may be
    an upper bound taken before the grid is built."""
    if length > GRID_LENGTH_CAP:
        raise ValueError(f"grid '{text}' has up to {length} entries, more than "
                         f"the cap of {GRID_LENGTH_CAP}")


def _pow2(text: str, a: int, b: int) -> List[int]:
    return [2 ** k for k in range(a, b + 1)[:64]]  # no accepted grid has more: 1 <= N <= 2**26


def _sublacunary(text: str, eps: float, top: int) -> List[int]:
    """The walk's N below NMAX, at most GRID_LENGTH_CAP of them, then NMAX."""
    # the walk reaches NMAX near step r = (ln NMAX)**(1/(1 - EPS)); refuse one past 2**26
    if top > 1 and math.log(top) > sq.MAX_MATERIALIZE ** (1.0 - eps):
        raise ValueError(f"sublacunary:{eps!r}:{top} takes more than 2**26 steps r")
    end = min(top, sq.MAX_MATERIALIZE)  # past the index cap, parse_grid refuses NMAX
    below = itertools.takewhile(lambda n: n < end, wy.sublacunary_walk(eps, sq.MAX_MATERIALIZE))
    return list(itertools.islice(below, GRID_LENGTH_CAP)) + [top]


def _linear(text: str, lo: float, hi: float, count: int) -> List[int]:
    _check_grid_length(text, count)  # COUNT entries before duplicates merge
    return sorted(set(int(round(v)) for v in np.linspace(lo, hi, count)))


_finite = checked(float, math.isfinite)
_GRID_FORMS = {
    "pow2": ("pow2:A..B", "..", (int, int), _pow2),
    "sublacunary": ("sublacunary:EPS:NMAX with 0 < EPS < 1", ":",
                    (checked(float, lambda eps: 0.0 < eps < 1.0), lambda v: int(float(v))),
                    _sublacunary),
    "linear": ("linear:START:STOP:COUNT", ":", (_finite, _finite, lambda v: max(int(v), 0)),
               _linear),
    None: ("a comma list", ",", int, lambda text, *grid: sorted(set(grid))),
}


def parse_grid(text: str) -> List[int]:
    """Grid specs: "sublacunary:EPS:NMAX" (ends at NMAX), "pow2:A..B",
    "linear:START:STOP:COUNT", or an explicit comma list. Text in none of
    these forms, a spec that gives no N, or an N < 1 raises ValueError, and
    so does a largest N above the index-count cap or a grid longer than
    GRID_LENGTH_CAP, before more than one entry past the cap is built."""
    text = text.strip()
    grid = read_spec(text, _GRID_FORMS, "grid")
    if not grid or grid[0] < 1:
        raise ValueError(f"grid '{text}' must give one or more N, all >= 1")
    sq.check_index_count(grid[-1])
    _check_grid_length(text, len(grid))
    return grid


# Coordinate kinds: KIND -> (reader of LEFT, reader of RIGHT, class of both and x)
_COORDINATES = {
    "prod": (sq.parse_sequence_spec, ex.parse_expr, wy.ProductCoord),
    "tower": (ex.parse_expr, sq.parse_sequence_spec, wy.TowerCoord),
}


def _coordinate(kind: str, left: str, right: str):
    """Parse one coordinate's text into a recipe x -> coordinate."""
    if kind not in _COORDINATES:
        raise ValueError(f"unknown coordinate kind '{kind}'")
    read_left, read_right, make = _COORDINATES[kind]
    return functools.partial(make, read_left(left), read_right(right))


def _parse_coordinates(text: str) -> Tuple[Optional[float], List]:
    """The x=VALUE entry of generator text (None if absent) and a recipe
    x -> coordinate per KIND:LEFT|RIGHT entry."""
    x, coords = None, []
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        kind, sep, rest = chunk.partition(":")
        left, bar, right = rest.partition("|")
        if chunk.startswith("x="):
            x = float(chunk[2:])
        elif not (sep and bar):
            raise ValueError(f"coordinate '{chunk}' is not KIND:LEFT|RIGHT")
        else:
            coords.append(_coordinate(kind, left, right))
    return x, coords


def parse_generator(text: str) -> wy.PointGenerator:
    """Generator specs: coordinates separated by ';', each
    "prod:SEQSPEC|FEXPR" or "tower:GEXPR|BSEQSPEC", plus one "x=VALUE"
    entry fixing the curve parameter."""
    x, coords = _parse_coordinates(text)
    if x is None:
        raise ValueError("generator spec needs an x=VALUE entry")
    return wy.PointGenerator([coord(x) for coord in coords])


# ---------------------------------------------------------------------------
# Experiment configuration


@dataclass
class ExperimentConfig:
    kind: str
    functions: List[str] = field(default_factory=list)
    sequences: List[str] = field(default_factory=list)
    tower_base: Optional[str] = None
    tower_sequences: List[str] = field(default_factory=list)
    coordinates: List[str] = field(default_factory=list)
    x_interval: Tuple[float, float] = (0.05, 0.95)
    x_samples: int = 20
    seed: int = 0
    n_grid: str = "sublacunary:0.5:20000"
    frequency_bound: int = 5
    discrepancy_method: str = "auto"
    grid_m: Optional[int] = None
    dstar_final_max: Optional[float] = None
    min_pass_fraction: float = 0.9
    output_dir: Optional[str] = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind '{self.kind}'; "
                             f"choose from {EXPERIMENT_KINDS}")
        towers = _KIND_TOWERS.get(self.kind, 0)
        if towers and (self.tower_base is None or len(self.tower_sequences) < towers):
            raise ValueError(f"{self.kind} needs tower_base and {towers} tower_sequences")
        if (self.kind in ("curve-product", "power-tower-curve")
                and len(self.functions) != len(self.sequences)):
            raise ValueError(f"{self.kind} needs one sequence per function")
        check_interval(self.x_interval)
        self.seed = check_integer(self.seed, "seed")  # hashed as str(seed): 1.0 must read as 1
        self.x_samples = check_integer(self.x_samples, "x_samples")
        if self.x_samples < 1:
            raise ValueError(f"x_samples must be >= 1, got {self.x_samples}")
        self.frequency_bound = check_integer(self.frequency_bound, "frequency_bound")
        self.grid_m = None if self.grid_m is None else check_integer(self.grid_m, "grid_m")
        limit = self.dstar_final_max
        if limit is not None and not is_number(limit, math.isfinite):
            raise ValueError(f"dstar_final_max must be a finite number, got {limit!r}")
        if not is_number(self.min_pass_fraction, lambda p: 0.0 <= p <= 1.0):
            raise ValueError(f"min_pass_fraction {self.min_pass_fraction!r} is not in [0, 1]")
        # malformed specs and out-of-range settings fail here, not per sample
        k = len(_config_coordinates(self))
        if not k:
            raise ValueError(f"{self.kind} config has no coordinates")
        grid = parse_grid(self.n_grid)
        method, m = dc.check_method(self.discrepancy_method, k, grid[-1], self.grid_m)
        wy.check_frequency_box(k, self.frequency_bound)
        if method == "grid" and limit is not None and k / m >= limit:
            raise ValueError(f"the lattice bound k/m = {k}/{m} is at least dstar_final_max ="
                             f" {limit!r}, so no sample could pass")

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError("experiment config must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown experiment config keys: {', '.join(unknown)}")
        if "kind" not in data:
            raise ValueError(f"experiment config needs a 'kind', one of {EXPERIMENT_KINDS}")
        data = dict(data)
        if "x_interval" in data:
            data["x_interval"] = tuple(data["x_interval"])
        return cls(**data)

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> Dict:
        d = asdict(self)
        d["x_interval"] = list(self.x_interval)
        return d


def sample_x(config: ExperimentConfig, index: int) -> float:
    rng = np.random.default_rng(derive_seed(config.seed, index))
    lo, hi = config.x_interval
    return float(lo + (hi - lo) * rng.random())


def _config_coordinates(config: ExperimentConfig) -> List:
    """The config's coordinates as recipes x -> coordinate: its towers
    first, then the products of sequences and functions."""
    if config.kind == "custom":
        x, coords = _parse_coordinates("; ".join(config.coordinates))
        if x is not None:
            raise ValueError("custom coordinates may not set x=; x is sampled from x_interval")
        return coords
    fs, ss = config.functions, config.sequences
    if config.kind == "diagonal-counterexample":
        fs, ss = fs or ["x", "x"], ss or ["identity", "identity"]
    towers = config.tower_sequences[:_KIND_TOWERS.get(config.kind, 0)]
    prods = [] if config.kind == "power-tower-pair" else zip(ss, fs)
    return ([_coordinate("tower", config.tower_base, b) for b in towers]
            + [_coordinate("prod", s, f) for s, f in prods])


def build_generator(config: ExperimentConfig, x: float) -> wy.PointGenerator:
    return wy.PointGenerator([coord(x) for coord in _config_coordinates(config)])


# ---------------------------------------------------------------------------
# Running


@dataclass
class SampleResult:
    index: int
    x: float
    discrepancy: Optional[dc.DiscrepancyReport]
    weyl_max: List[float]            # max |F_N| over the frequency box, per grid N
    weyl_argmax: List[np.ndarray]
    passed: Optional[bool]
    error: Optional[str] = None


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    grid: List[int]
    samples: List[SampleResult]
    dstar_median: List[float]
    dstar_q10: List[float]
    dstar_q90: List[float]
    pass_fraction: Optional[float]
    verdict: Optional[str]           # "pass" | "fail" | None for exploratory
    exceptional: List[int]
    partial: bool
    provenance: Dict

    def final_median(self) -> float:
        return self.dstar_median[-1]


def _run_sample(config: ExperimentConfig, grid: List[int], index: int) -> SampleResult:
    x = sample_x(config, index)
    try:
        gen = build_generator(config, x)
        points = gen.fracs(sq.index_range(max(grid)))
        rep = dc.dstar_trend(points, grid, config.discrepancy_method,
                             config.grid_m, gen.describe())
        if config.kind == "diagonal-counterexample":
            series = wy.prefix_weyl_series(points, [1, -1], grid)
            mags = [abs(f) for f in series]
            argmax = [np.array([1, -1])] * len(grid)
        else:
            mags, argmax = max_weyl_series(points, config.frequency_bound, grid)
        passed = None
        if config.dstar_final_max is not None:
            passed = _passes(rep.final_value(), rep.error_bounds[-1], config.dstar_final_max)
        return SampleResult(index, x, rep, mags, argmax, passed)
    except (ValueError, ex.DomainError) as err:
        return SampleResult(index, x, None, [], [], None, error=str(err))


def _passes(value: float, bound: float, limit: float) -> bool:
    """The one verdict rule for a D* value with additive error bound (k/m
    on the lattice, 0 if exact): the true D* lies in [value, value + bound],
    so the value passes only when value + bound <= limit."""
    return value + bound <= limit


def _threshold_verdict(config: ExperimentConfig, samples: Sequence[SampleResult],
                       dstar_median: Sequence[float]
                       ) -> Tuple[Optional[float], Optional[str]]:
    """Pass fraction and verdict: "pass" needs min_pass_fraction of all
    samples to have passed, and the median too, each by `_passes` with the
    final error bound. (None, None) when no threshold is set or no sample
    succeeded."""
    limit = config.dstar_final_max
    if limit is None or not dstar_median:
        return None, None
    bound = max(s.discrepancy.error_bounds[-1] for s in samples if s.error is None)
    fraction = sum(1 for s in samples if s.passed) / len(samples)
    ok = fraction >= config.min_pass_fraction and _passes(dstar_median[-1], bound, limit)
    return fraction, "pass" if ok else "fail"


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run all x samples, aggregate quantiles, and evaluate thresholds.

    Per-sample errors are recorded on the sample and the run continues
    with partial coverage marked. Threshold evaluation is pure: it can be
    recomputed from the stored report.

    workers > 1 runs the samples in that many processes (at most one per
    sample). Each sample draws from its own hashed seed, and each process
    has its own mpmath working precision, so the report is the same at
    any worker count. The pool pays only when the samples carry far more
    work than starting the processes: on 2 cores the calibration
    experiment (20 samples, 1.0-1.6 s serial) took 0.56-0.79 s with 2
    workers, while an 8-sample tower experiment of about 0.1 s took as
    long with 2 workers as with 1.
    """
    grid = parse_grid(config.n_grid)
    indices = list(range(config.x_samples))
    if workers > 1 and len(indices) > 1:
        # imported here so serial runs skip its import time
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(indices))) as pool:
            samples = list(pool.map(functools.partial(_run_sample, config, grid),
                                    indices))
    else:
        samples = [_run_sample(config, grid, i) for i in indices]
    good = [s for s in samples if s.error is None]
    partial = len(good) < len(samples)
    if good:
        matrix = np.array([s.discrepancy.values for s in good])
        med = [float(v) for v in np.percentile(matrix, 50, axis=0)]
        q10 = [float(v) for v in np.percentile(matrix, 10, axis=0)]
        q90 = [float(v) for v in np.percentile(matrix, 90, axis=0)]
    else:
        med = q10 = q90 = []
    pass_fraction, verdict = _threshold_verdict(config, samples, med)
    exceptional = [s.index for s in samples if s.passed is False or s.error is not None]
    provenance = {
        "config": config.to_dict(),
        "seed": config.seed,
        "version": __version__,
        "constants": {
            "vdc_constant_base": 2.0,
            "tower_guard_bits": TOWER_GUARD_BITS,
            "independence_threshold": ex.INDEPENDENCE_THRESHOLD,
        },
    }
    return ExperimentReport(config, grid, samples, med, q10, q90,
                            pass_fraction, verdict, exceptional, partial,
                            provenance)


# ---------------------------------------------------------------------------
# CSV / SVG emission (byte-stable for identical reports)


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def scatter_csv_rows(report) -> Tuple[List[str], List[List]]:
    header = ["N", "S", "eps_pointwise", "method", "err_bound"]
    rows = [[N, s, e, m, b] for N, s, e, m, b in
            zip(report.grid, report.S, report.eps_pointwise, report.methods,
                report.error_bounds)]
    return header, rows


def weyl_csv_rows(series: wy.WeylSumSeries) -> Tuple[List[str], List[List]]:
    header = ["N", "v", "re_F", "im_F", "abs_F", "precision_bits"]
    vtext = ";".join(str(int(c)) for c in series.v)
    rows = [[N, vtext, f.real, f.imag, m, series.precision_bits]
            for N, f, m in zip(series.grid, series.averages, series.magnitudes)]
    return header, rows


def discrepancy_csv_rows(report: dc.DiscrepancyReport) -> Tuple[List[str], List[List]]:
    header = ["N", "dstar", "err_bound", "method", "flags"]
    rows = [[N, v, e, m, "below bound" if low else ""] for N, v, e, m, low in
            zip(report.grid, report.values, report.error_bounds, report.methods,
                report.below_bound())]
    return header, rows


def decay_csv_rows(fit) -> Tuple[List[str], List[List]]:
    header = ["direction_index", "omega", "R", "abs_integral", "err_est", "noise", "flags"]
    rows = []
    for i, omega in enumerate(fit.directions):
        otext = ";".join(repr(float(c)) for c in omega)
        for j, r in enumerate(fit.radii):
            flags = [name for name, on in (("unreliable", fit.unreliable[i, j]),
                                           ("below noise", fit.below_noise[i, j])) if on]
            rows.append([i, otext, float(r), float(fit.magnitudes[i, j]),
                         float(fit.errors[i, j]), float(fit.noise[i, j]), ";".join(flags)])
    if fit.degenerate_direction is not None:
        otext = ";".join(repr(float(c)) for c in fit.degenerate_direction)
        for j, r in enumerate(fit.radii):
            rows.append([-1, otext, float(r), float(fit.degenerate_magnitudes[j]),
                         float(fit.degenerate_errors[j]), float(fit.degenerate_noise[j]),
                         "degenerate"])
    return header, rows


def emit_csv(report: ExperimentReport, path: str) -> None:
    """Long-form discrepancy table: one row per (sample, N)."""
    rows = [[s.index, s.x] + row for s in report.samples if s.error is None
            for row in discrepancy_csv_rows(s.discrepancy)[1]]
    write_csv(path, ["sample", "x", "N", "dstar", "err_bound", "method", "flags"], rows)


def emit_weyl_csv(report: ExperimentReport, path: str) -> None:
    header = ["sample", "x", "N", "v", "abs_F"]
    rows: List[List] = []
    for s in report.samples:
        if s.error is not None:
            continue
        for N, mag, v in zip(report.grid, s.weyl_max, s.weyl_argmax):
            vtext = ";".join(str(int(c)) for c in v)
            rows.append([s.index, s.x, N, vtext, mag])
    write_csv(path, header, rows)


def emit_quantiles_csv(report: ExperimentReport, path: str) -> None:
    header = ["N", "dstar_median", "dstar_q10", "dstar_q90"]
    rows = [[N, m, a, b] for N, m, a, b in
            zip(report.grid, report.dstar_median, report.dstar_q10,
                report.dstar_q90)]
    write_csv(path, header, rows)


# -- SVG ----------------------------------------------------------------------

_SVG_W, _SVG_H, _SVG_MARGIN = 800, 520, 64


def _svg_polyline(xs: List[float], ys: List[float], style: str) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return f'  <polyline fill="none" {style} points="{pts}"/>'


def svg_loglog(series: List[Tuple[Sequence[float], Sequence[float], str]],
               x_label: str, y_label: str, path: str) -> None:
    """Minimal deterministic log-log line plot. One polyline per series;
    the style string distinguishes sample curves from the median. With no
    series the axes span x in [1, 1e4] and y in [1e-3, 1]."""
    finite = [(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), style)
              for xs, ys, style in series]
    all_x = np.concatenate([xs for xs, _, _ in finite] or [[1.0, 1e4]])
    all_y = np.concatenate([ys for _, ys, _ in finite] or [[1e-3, 1.0]])
    all_y = np.maximum(all_y, 1e-300)
    lx0, lx1 = math.log10(all_x.min()), math.log10(all_x.max())
    ly0, ly1 = math.log10(all_y.min()), math.log10(all_y.max())
    if lx1 - lx0 < 1e-9:
        lx1 = lx0 + 1.0
    if ly1 - ly0 < 1e-9:
        ly1 = ly0 + 1.0
    inner_w = _SVG_W - 2 * _SVG_MARGIN
    inner_h = _SVG_H - 2 * _SVG_MARGIN

    def to_px(xs, ys):
        px = _SVG_MARGIN + (np.log10(xs) - lx0) / (lx1 - lx0) * inner_w
        py = _SVG_H - _SVG_MARGIN - (np.log10(np.maximum(ys, 1e-300)) - ly0) / (ly1 - ly0) * inner_h
        return list(px), list(py)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'  <rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'  <line x1="{_SVG_MARGIN}" y1="{_SVG_H - _SVG_MARGIN}" x2="{_SVG_W - _SVG_MARGIN}" '
        f'y2="{_SVG_H - _SVG_MARGIN}" stroke="black"/>',
        f'  <line x1="{_SVG_MARGIN}" y1="{_SVG_MARGIN}" x2="{_SVG_MARGIN}" '
        f'y2="{_SVG_H - _SVG_MARGIN}" stroke="black"/>',
    ]
    for decade in range(math.floor(lx0), math.floor(lx1) + 1):
        if lx0 <= decade <= lx1:
            px = _SVG_MARGIN + (decade - lx0) / (lx1 - lx0) * inner_w
            lines.append(f'  <line x1="{px:.2f}" y1="{_SVG_H - _SVG_MARGIN}" x2="{px:.2f}" '
                         f'y2="{_SVG_H - _SVG_MARGIN + 6}" stroke="black"/>')
            lines.append(f'  <text x="{px:.2f}" y="{_SVG_H - _SVG_MARGIN + 22}" '
                         f'font-size="12" text-anchor="middle">1e{decade}</text>')
    for decade in range(math.floor(ly0), math.floor(ly1) + 1):
        if ly0 <= decade <= ly1:
            py = _SVG_H - _SVG_MARGIN - (decade - ly0) / (ly1 - ly0) * inner_h
            lines.append(f'  <line x1="{_SVG_MARGIN - 6}" y1="{py:.2f}" x2="{_SVG_MARGIN}" '
                         f'y2="{py:.2f}" stroke="black"/>')
            lines.append(f'  <text x="{_SVG_MARGIN - 10}" y="{py + 4:.2f}" '
                         f'font-size="12" text-anchor="end">1e{decade}</text>')
    lines.append(f'  <text x="{_SVG_W // 2}" y="{_SVG_H - 12}" font-size="14" '
                 f'text-anchor="middle">{x_label}</text>')
    lines.append(f'  <text x="18" y="{_SVG_H // 2}" font-size="14" text-anchor="middle" '
                 f'transform="rotate(-90 18 {_SVG_H // 2})">{y_label}</text>')
    for xs, ys, style in finite:
        px, py = to_px(xs, ys)
        lines.append(_svg_polyline(px, py, style))
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_svg(report: ExperimentReport, path: str) -> None:
    """Log-log D* vs N: one polyline per x sample plus the median."""
    series = []
    for s in report.samples:
        if s.error is None:
            series.append((s.discrepancy.grid, s.discrepancy.values,
                           'stroke="#999999" stroke-width="1" class="sample"'))
    if report.dstar_median:
        series.append((report.grid, report.dstar_median,
                       'stroke="#cc2222" stroke-width="2.5" class="median"'))
    svg_loglog(series, "N", "D*", path)
