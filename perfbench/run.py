"""Benchmark of so5racah: one workload per run, in one process.

    python3 perfbench/run.py --workload so4-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  The run sets up (several times; the median is setup_s), then
runs whole rounds of its workload until --seconds have passed, checks
every output with the independent checks in oracle.py, and prints one
JSON object as its last line: correct, attempted, failed and the
metrics.  With --trace 1 it runs one more round with the per-layer
tracer installed and reports the per-layer metrics instead of the
end-to-end ones.  See README.md.
"""

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
# candidate tail percentiles, highest first; see tail_percentile()
PERCENTILES = (99.9, 99, 98, 95, 90, 80, 75, 50)


def tail_percentile(n):
    """The highest candidate percentile with at least 10 of n samples
    beyond it."""
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p
    return 50


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def percentile(samples, p):
    """Harrell-Davis estimate of the p-th percentile: a Beta-weighted mean
    of the order statistics, steadier than any single one of them."""
    xs = sorted(samples)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = (p / 100) * (n + 1), (1 - p / 100) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def peak_rss_mb():
    """Peak resident set of this process so far plus that of its largest
    waited-for child (the tabulate pool workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def set_up(workloads, name, seed, run_dir):
    """Set up SETUP_REPEATS times from a fresh import and keep the last;
    returns it with the median set-up time, speed-scaled by probes taken
    around the repeats."""
    times = []
    wl = None
    probes = workloads.Round()
    for _ in range(SETUP_REPEATS):
        workloads.purge_modules()
        gc.collect()
        probes.probe(force=True)
        t0 = perf_counter()
        wl = workloads.WORKLOADS[name]()
        wl.setup(seed, run_dir)
        times.append(perf_counter() - t0)
    probes.probe(force=True)
    return wl, statistics.median(times) * probes.speed


def run_rounds(workloads, wl, seconds, traced=False):
    """Whole rounds until `seconds` have passed; every round after the
    first is compared with the first and its outputs dropped.  Returns
    the rounds and the peak memory of set-up and the first round, which
    does not depend on how many rounds fit."""
    rounds = []
    t_start = perf_counter()
    while True:
        workloads.clear_caches()
        gc.collect()
        r = wl.run_round(len(rounds), traced=traced)
        if rounds:
            wl.absorb(rounds[0], r)
        else:
            rss_mb = peak_rss_mb()
        rounds.append(r)
        if perf_counter() - t_start >= seconds:
            return rounds, rss_mb


def best_times(rounds, which, scaled=True):
    """Each selected operation's best time over the rounds, speed-scaled
    unless scaled is false; operations that failed in every round are
    left out."""
    out = []
    per_round = [(r.scaled_ops() if scaled else r.ops)[which] for r in rounds]
    for times in zip(*per_round):
        ok = [t for t in times if t is not None]
        if ok:
            out.append(min(ok))
    return out


def end_to_end(wl, rounds, setup_s, rss_mb):
    wall = sum(best_times(rounds, wl.wall_ops))
    items = best_times(rounds, wl.item_ops)
    p = tail_percentile(len(items))
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "couplings_per_s": (wl.per_round / wall, "1/s"),
        "op_p50_s": (percentile(items, 50), "s"),
        "op_tail_s": (percentile(items, p), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "output_bytes": (rounds[0].extra["output_bytes"], "bytes"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "so5racah", "__init__.py")):
        print("error: run from the root of a so5racah checkout (no src/so5racah)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    sys.path.insert(0, src)
    import workloads
    import tracing
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    run_dir = os.path.join(os.getcwd(), ".perfbench-runs",
                           "%s-%d" % (args.workload, os.getpid()))
    wl = None
    try:
        wl, setup_s = set_up(workloads, args.workload, args.seed, run_dir)
        traced = bool(args.trace)
        rounds, rss_mb = run_rounds(workloads, wl, args.seconds, traced=traced)
        if traced:
            stats = workloads.LayerStats()
            tracer = tracing.Tracer()
            workloads.clear_caches()
            gc.collect()
            tracer.install(workloads.targets(stats))
            try:
                traced_round = wl.run_round(len(rounds), traced=True)
            finally:
                tracer.uninstall()
            untraced = sum(best_times(rounds, slice(None), scaled=False))
            metrics = workloads.layer_metrics(tracer, stats, traced_round, untraced)
            wl.absorb(rounds[0], traced_round)
            rounds.append(traced_round)
        else:
            metrics = end_to_end(wl, rounds, setup_s, rss_mb)
        problems = wl.check(rounds[0])
    finally:
        if wl is not None:
            wl.finish()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for r in rounds:
        for e in r.errors[:5]:
            print("failed: %s" % e, file=sys.stderr)
    for p in problems[:20]:
        print("check: %s" % p, file=sys.stderr)
    if len(problems) > 20:
        print("check: ... %d problems in all" % len(problems), file=sys.stderr)
    print("%s: %d rounds, %d operations, %d failed, %d check problems"
          % (args.workload, len(rounds), attempted, failed, len(problems)))
    print("  rounds: wall (s) %s; speed %s" % (
        " ".join("%.3f" % r.total for r in rounds),
        " ".join("%.3f" % r.speed for r in rounds)))
    for name, (value, unit) in metrics.items():
        print("  %-30s %14.6g %s" % (name, value, unit))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
