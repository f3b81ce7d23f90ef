"""udlab benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload calibration|analysis \
        --seed N --seconds S --trace 0|1

Load model: one caller in a closed loop, so each op starts when the
previous one returns. A pass is one run of every op of the workload.
Passes repeat while the next one should still end within --seconds (at
least one pass runs), and each pass's results are checked outside the
timed region.

--trace 0 prints the end-to-end metrics: setup_s (median of fresh
interpreters that import udlab and build the inputs), and the medians
over passes of wall_s and cpu_s, with the process's peak_rss_mb. wall_s
and cpu_s are host-speed corrected: seconds at the reference speed of
hostspeed.py, which samples a fixed kernel all through each pass. --trace 1
makes one untraced pass and then one traced pass through the public
pieces of each op, checks that both agree bit for bit, and prints the
per-layer metrics. The last line of output is a JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 only if
every op ran and passed its checks.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("calibration", "analysis"))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 gives the pinned inputs")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="time budget for the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0   # ru_maxrss is in KiB on Linux


def run_pass(workload):
    """Run every op once; returns (results, wall seconds, cpu seconds).
    An op that raises gets None as its result."""
    results = {}
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for name, op in workload.ops():
        try:
            results[name] = op()
        except Exception:
            traceback.print_exc()
            results[name] = None
    wall = time.perf_counter() - t0
    return results, wall, cpu_seconds() - cpu0


def failed_ops(results, judge) -> int:
    """Count ops that raised or whose judge(name, result) found problems;
    the problems go to stderr."""
    failed = 0
    for name, result in results.items():
        if result is None:
            failed += 1
            continue
        try:
            problems = judge(name, result)
        except Exception:
            traceback.print_exc()
            problems = ["check raised"]
        for problem in problems:
            print(f"FAIL {name}: {problem}", file=sys.stderr)
        failed += bool(problems)
    return failed


def probe_setup(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.split()[-1])


def source_lines():
    lines = {}
    for path in sorted(glob.glob(os.path.join(SRC, "udlab", "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path, "r", encoding="utf-8") as fh:
            lines["udlab" if module == "__init__" else module] = sum(1 for _ in fh)
    return lines


def environment(lines):
    import mpmath
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": os.cpu_count(), "lines": lines}


def measure(args, workload):
    from hostspeed import HostSpeed   # not before the setup probe's clock starts

    passes, measured, factors, attempted, failed = [], [], [], 0, 0
    start, last = time.perf_counter(), 0.0
    # start a pass only if it should end within --seconds, as the last did
    while not passes or time.perf_counter() - start + last <= args.seconds:
        with HostSpeed() as host:
            results, wall, cpu = run_pass(workload)
        last = wall
        wall -= host.spent_wall
        cpu -= host.spent_cpu
        passes.append((wall * host.factor, cpu * host.factor))
        measured.append(wall)
        factors.append(host.factor)
        attempted += len(results)
        failed += failed_ops(results, workload.check)
    rss = peak_rss_mb()
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(w for w, _ in passes), "s"),
        "cpu_s": (statistics.median(c for _, c in passes), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(f"# {args.workload} seed={args.seed}: {len(passes)} passes, "
          f"{attempted} ops, {SETUP_PROBES} setup probes")
    print(f"# pass wall time as measured (s): {measured}")
    print(f"# host-speed factors: {factors}")
    return metrics, attempted, failed


def trace(args, workload):
    import spans
    import workloads

    results, wall0, _ = run_pass(workload)
    attempted = len(results)
    failed_names = {name for name, result in results.items()
                    if result is None or failed_ops({name: result}, workload.check)}

    tracer = spans.Tracer()
    with tracer.op("setup"):
        traced = workloads.WORKLOADS[args.workload](args.seed)
        traced.setup(tracer)

    def replay(name, result):
        return traced.replay(name, result, tracer)

    t0 = time.perf_counter()
    for name, _ in traced.ops():
        with tracer.op(name):
            if name not in failed_names and failed_ops({name: results[name]}, replay):
                failed_names.add(name)
    wall1 = time.perf_counter() - t0
    pass_ops = range(1, 1 + len(results))   # op 0 is the traced setup
    if not failed_names:
        traced.probe(tracer)

    metrics = {}
    self_times = tracer.self_times()
    for layer in workloads.LAYERS:
        metrics[layer + ".s"] = (self_times.get(layer, 0.0), "s")
    for counter, unit in workloads.COUNTERS.items():
        metrics[counter] = (tracer.counts.get(counter, 0), unit)
    replayed = tracer.replay_seconds(pass_ops)
    metrics["trace.overhead_frac"] = ((wall1 - replayed - wall0) / wall0, "ratio")
    metrics["trace.unattributed_s"] = (wall1 - tracer.layer_cover(pass_ops), "s")
    print(f"# {args.workload} seed={args.seed}: untraced pass {wall0:.3f} s, "
          f"traced pass {wall1:.3f} s of which {replayed:.3f} s replays")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "spans": tracer.dump(), "counts": dict(tracer.counts)}, fh)
    return metrics, attempted, len(failed_names)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "udlab", "__init__.py")):
        print(f"error: no udlab sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_s = time.perf_counter() - t0
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    import udlab
    if os.path.dirname(os.path.abspath(udlab.__file__)) != os.path.join(SRC, "udlab"):
        print(f"error: udlab imported from {udlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.trace:
        metrics, attempted, failed = trace(args, workload)
    else:
        metrics, attempted, failed = measure(args, workload)
    lines = source_lines()
    if args.trace:
        metrics["src.lines"] = (sum(lines.values()), "lines")
        for module, count in lines.items():
            metrics[f"{module}.lines"] = (count, "lines")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    if not args.trace:
        # not a metric: it is 0 on correct code; attempted and failed carry it
        print(f"op_fail_frac {failed / attempted} ratio")
    print("# env " + json.dumps(environment(lines), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
