"""Command-line surface.

Exit codes: 0 pass/ok, 1 threshold fail, 2 usage error (argparse), 3
numerical-reliability flag raised (unreliable quadrature cells or partial
experiment coverage).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import discrepancy as dc
from . import expr as ex
from . import lab
from . import oscillatory as osc
from . import scatter as sc
from . import sequences as sq
from . import weyl as wy

EXIT_OK, EXIT_THRESHOLD, EXIT_USAGE, EXIT_UNRELIABLE = 0, 1, 2, 3


def _geom(text: str, lo: float, hi: float, count: int):
    with np.errstate(invalid="ignore"):  # NaN radii, refused by decay_fit
        return list(np.geomspace(lo, hi, count))


_NONZERO = lab.checked(float, bool)  # np.geomspace refuses a 0 end
_EXPONENT = lab.checked(int, lambda k: k < 1024)  # 2.0**k stays a double
_RADII_FORMS = {
    "geom": ("geom:LO:HI:COUNT", ":", (_NONZERO, _NONZERO, lab.checked(int, lambda c: c >= 0)),
             _geom),
    "halfpow2": ("halfpow2:A..B", "..", (_EXPONENT, _EXPONENT),
                 lambda text, a, b: [2.0 ** k + 0.5 for k in range(a, b + 1)]),
    None: ("a comma list of numbers", ",", float, lambda text, *radii: list(radii)),
}
_FREQUENCY_FORMS = {None: ("a comma list of integers", ",", int, lambda text, *v: list(v))}
_INTERVAL_FORMS = {None: ("LO,HI", ",", (float, float), lambda text, lo, hi: (lo, hi))}


def _parse_radii(text: str):
    """Radii specs "geom:LO:HI:COUNT", "halfpow2:A..B" or a comma list."""
    return lab.read_spec(text, _RADII_FORMS, "--radii")


def _print_table(header, rows, csv_path) -> None:
    """Print the table as CSV after the # lines; also write it to csv_path
    when given."""
    csv.writer(sys.stdout, lineterminator="\n").writerows([header, *rows])
    if csv_path:
        lab.write_csv(csv_path, header, rows)


def _cmd_scatter(args) -> int:
    spec = sq.parse_sequence_spec(args.seq)
    evaluator = sq.make_sequence(spec)
    grid = lab.parse_grid(args.grid)
    report = sc.fit_scatter(evaluator, args.delta, grid, mode=args.mode, eta=args.eta)
    print(f"# sequence: {sq.spec_to_text(spec)}  delta={args.delta:g}")
    print(f"# eps_hat={report.eps_hat:.6g}  slope(logS~loglogN)={report.slope_loglog:.6g}"
          f"  slope(logS~logN)={report.slope_logN:.6g}")
    print(f"# verdict: {'evidence of scattered' if report.evidence_scattered else 'no evidence'}"
          f" ({report.label})")
    _print_table(*lab.scatter_csv_rows(report), args.csv)
    return EXIT_OK


def _cmd_growth(args) -> int:
    spec = sq.parse_sequence_spec(args.seq)
    evaluator = sq.make_sequence(spec)
    report = sc.weyl_growth_check(evaluator, args.N, args.eps, args.g,
                                  budget=args.budget, seed=args.seed)
    print(f"# sequence: {sq.spec_to_text(spec)}  eps={args.eps:g} g={args.g:g} N={args.N}")
    print(f"# coverage: {report.coverage} ({report.pairs_checked} pairs)")
    print(f"# verdict: {report.verdict}"
          + (f"  witness n={report.witness[0]} m={report.witness[1]}" if report.witness else ""))
    return EXIT_OK if report.verdict == "pass" else EXIT_THRESHOLD


def _cmd_weylsum(args) -> int:
    gen = lab.parse_generator(args.gen)
    v = lab.read_spec(args.v, _FREQUENCY_FORMS, "--v")
    grid = lab.parse_grid(args.grid)
    family = sq.parse_index_family(args.sets) if args.sets else sq.prefixes()
    series = wy.weyl_sum_over_sets(gen, v, family, grid)
    print(f"# generator: {gen.describe()}  v={v}")
    print(f"# sum 1/|S_N| at final N: {series.inverse_size_partial_sums[-1]:.6g}")
    _print_table(*lab.weyl_csv_rows(series), args.csv)
    return EXIT_OK


def _cmd_discrepancy(args) -> int:
    gen = lab.parse_generator(args.gen)
    grid = lab.parse_grid(args.grid)
    report = dc.ud_trend(gen, grid, method=args.method, m=args.m)
    print(f"# generator: {gen.describe()}  dim={report.dimension}")
    print(f"# trend slope (log D* ~ log N): {report.trend_slope:.4f}")
    left_out = sum(report.below_bound())
    if left_out:
        print(f"# {left_out} of {len(report.grid)} prefixes at or below their error bound"
              f" {report.error_bounds[-1]:g}; left out of the trend fit")
    _print_table(*lab.discrepancy_csv_rows(report), args.csv)
    return EXIT_OK


def _cmd_oscdecay(args) -> int:
    fs = [ex.parse_expr(t) for t in args.f.split(";") if t.strip()]
    lo, hi = lab.read_spec(args.interval, _INTERVAL_FORMS, "--interval")
    radii = _parse_radii(args.radii)
    fit = osc.decay_fit(fs, (lo, hi), radii, args.dirs, seed=args.seed, tol=args.tol)
    print(f"# functions: {'; '.join(ex.to_text(f) for f in fs)}  I=[{lo:g},{hi:g}]")
    print(f"# delta_hat={fit.delta_hat:.4f} (sampled lower-confidence estimate)"
          f"  pooled slope={fit.pooled_slope:.4f}  pooled R^2={fit.pooled_r_squared:.4f}")
    for i in np.flatnonzero(np.isnan(fit.slopes)):
        print(f"# direction {i}: {np.count_nonzero(fit.below_noise[i])} of {len(fit.radii)}"
              " cells below the quadrature noise; no slope fitted")
    if fit.degenerate_direction is not None:
        print(f"# degenerate direction flagged: {fit.degenerate_direction}"
              f" (phase constant; magnitude pins at |I|)")
    _print_table(*lab.decay_csv_rows(fit), args.csv)
    if bool(np.any(fit.unreliable)):
        return EXIT_UNRELIABLE
    return EXIT_OK


def _cmd_experiment(args) -> int:
    config = lab.ExperimentConfig.from_json_file(args.config)
    report = lab.run_experiment(config, workers=args.workers)
    out_dir = args.out or config.output_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    base = config.label or config.kind
    lab.emit_csv(report, os.path.join(out_dir, f"{base}_dstar.csv"))
    lab.emit_weyl_csv(report, os.path.join(out_dir, f"{base}_weyl.csv"))
    lab.emit_quantiles_csv(report, os.path.join(out_dir, f"{base}_quantiles.csv"))
    lab.emit_svg(report, os.path.join(out_dir, f"{base}_dstar.svg"))
    with open(os.path.join(out_dir, f"{base}_provenance.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report.provenance, fh, indent=2, sort_keys=True)
    print(f"# kind: {config.kind}  samples: {config.x_samples}  grid max: {report.grid[-1]}")
    if report.dstar_median:
        print(f"# final D* median: {report.final_median():.6g}")
    if report.pass_fraction is not None:
        print(f"# pass fraction: {report.pass_fraction:.2f}  verdict: {report.verdict}")
    if report.exceptional:
        print(f"# exceptional samples: {report.exceptional}")
    if report.partial:
        print("# WARNING: partial coverage (some samples errored)")
        return EXIT_UNRELIABLE
    if report.verdict == "fail":
        return EXIT_THRESHOLD
    return EXIT_OK


def _cmd_selftest(args) -> int:
    failures = 0

    def check(name: str, ok: bool):
        nonlocal failures
        print(f"{'ok' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    jet = ex.eval_jet(ex.parse_expr("x^2"), 3.0, 3)
    check("jet of x^2 at 3", list(jet.derivatives) == [9, 6, 2, 0])
    check("parse round trip",
          ex.parse_expr(ex.to_text(ex.parse_expr("2*x^3 - sin(x)/x"))) ==
          ex.parse_expr("2*x^3 - sin(x)/x"))
    ident = sq.make_sequence(sq.identity())
    sv = sc.scatter_sum(ident, 4, 1.0)
    check("scatter hand value", abs(sv.S - (1 + 0.5 + 1 / 3 + 1 + 0.5 + 1) / 16) < 1e-15)
    gen = wy.PointGenerator([wy.ProductCoord(sq.identity(), ex.parse_expr("x"), 0.25)])
    check("weyl quarter-cycle cancellation", abs(wy.weyl_sum(gen, [1], 4)) < 1e-14)
    check("1d midpoint discrepancy",
          dc.star_discrepancy_1d([1 / 8, 3 / 8, 5 / 8, 7 / 8]) == 1 / 8)
    est = osc.osc_integral([ex.parse_expr("x")], [0.5], (0, 1))
    check("linear-phase closed form", abs(est.magnitude - 2 / math.pi) < 1e-10)
    est = osc.osc_integral([ex.parse_expr("x^2")], [0.0], (0.25, 0.75))
    check("zero frequency is interval length", abs(est.value - 0.5) < 1e-12)
    check("sublacunary grid head", wy.sublacunary_grid(0.5, 4)[:2] == [3, 5])
    return EXIT_OK if failures == 0 else EXIT_THRESHOLD


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udlab",
        description="Numerical laboratory for uniform distribution modulo one.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scatter", help="scattered-sum decay of a sequence")
    p.add_argument("--seq", required=True, help='e.g. "power:eps=0.5"')
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--grid", required=True, help='e.g. "pow2:8..14"')
    p.add_argument("--mode", default="auto", choices=["auto", "exact", "bucketed"])
    p.add_argument("--eta", type=float, default=sc.BUCKET_ETA_DEFAULT)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_scatter)

    p = sub.add_parser("growth", help="pairwise growth-condition check")
    p.add_argument("--seq", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--budget", type=int, default=10 ** 7)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("weylsum", help="exponential-sum averages over index sets")
    p.add_argument("--gen", required=True,
                   help='e.g. "x=0.3; prod:identity|x; prod:identity|x^2"')
    p.add_argument("--v", required=True, help='frequency vector, e.g. "1,-1"')
    p.add_argument("--grid", required=True)
    p.add_argument("--sets", help='e.g. "geometric:rho=2" (default prefixes)')
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_weylsum)

    p = sub.add_parser("discrepancy", help="star-discrepancy trend of a generator")
    p.add_argument("--gen", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--method", default="auto", choices=["auto", "exact", "grid"])
    p.add_argument("--m", type=int)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_discrepancy)

    p = sub.add_parser("oscdecay", help="oscillatory-integral decay exponent fit")
    p.add_argument("--f", required=True, help='functions separated by ";"')
    p.add_argument("--interval", required=True, help='e.g. "1,2"')
    p.add_argument("--radii", required=True,
                   help='"geom:LO:HI:COUNT", "halfpow2:A..B", or comma list')
    p.add_argument("--dirs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_oscdecay)

    p = sub.add_parser("experiment", help="run a config-driven experiment")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--out", help="output directory (default .)")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("selftest", help="fast built-in sanity checks")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ex.ExprSyntaxError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
