"""Layered benchmark for the `vinberg` package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 18 --trace 0

Each workload is a closed loop with a single client over a seeded item set
(see workloads.py), run in rounds; an item's latency is its median over the
rounds.  The untraced run reports the end-to-end metrics; `--trace 1` adds
one round with every public layer function wrapped (see tracer.py), reports
the per-layer metrics and the tracing overhead, and requires the traced
outputs to hash to the same digest.  Every item's output is checked outside
its timed span.  BLAS runs on one thread.

Times are reported at the reference speed of the machine: a fixed
calibration loop runs between items, outside their timed spans, and every
time is scaled by CALIBRATION_S over the loop's median time around it (see
`calibration`).  On a shared host whose speed swings up to 1.8x from minute
to minute this keeps runs of the same code comparable; the unscaled values are
in the report as `raw_metrics`.  Human-readable lines and a report with
the environment stamp come first; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  The exit code is
1 when a check fails unexpectedly and 2 when there is no package to measure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import warnings
from fractions import Fraction
from importlib import metadata
from time import perf_counter

NAMES = ("verdicts", "polygons", "tilings", "volumes", "cli")
SETUP_REPEATS = 3  # set-up is timed this many times per run; the median is reported
CLI_SETUP_REPEATS = 7
CALIBRATION_TERMS = 300  # terms of the calibration loop's Fraction sum
CALIBRATION_S = 1e-3  # the loop's time at the reference speed, by definition
CALIBRATION_REPEATS = 5  # loops timed after each item and each set-up sample
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
MIN_ROUNDS = 3  # every item runs at least this often; its median time counts
END_TO_END_UNITS = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "ratio"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def calibration_loop():
    """Seconds taken by a fixed piece of pure-Python work (a Fraction sum,
    standard library only, so no change to `vinberg` moves it).  The
    collector is off, so that the size of the program's heap does not."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        total = Fraction(0)
        for i in range(1, CALIBRATION_TERMS):
            total += Fraction(1, i)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def calibration():
    """Median of a few calibration loops: the machine's speed right now."""
    return statistics.median(calibration_loop() for _ in range(CALIBRATION_REPEATS))


def workload_rng(name, seed):
    return random.Random("%s:%d" % (name, seed))


def setup(name, seed, root, workdir):
    """Import the package and build the item set; returns (seconds,
    workload, items).  For `cli` only the document writing counts, because
    every call pays the import itself."""
    t0 = perf_counter()
    import workloads

    t_import = perf_counter() - t0
    if name == "cli":
        w = workloads.Cli(root, workdir)
        t_import = 0.0
    else:
        w = workloads.IN_PROCESS[name]
    t1 = perf_counter()
    pool = w.generate(workload_rng(name, seed))
    return t_import + perf_counter() - t1, w, pool


def setup_samples(args, root, workdir, first):
    """Set-up times, each with the calibration taken right after it: the
    in-process one plus fresh-interpreter probes (the import can only be
    timed once per process); for `cli`, repeated document writing
    in-process."""
    samples = [(first, calibration())]
    if args.workload == "cli":
        import workloads

        for k in range(CLI_SETUP_REPEATS - 1):
            # a fresh directory each time: creating files, as the real set-up
            # does, costs more than overwriting them
            fresh = os.path.join(workdir, "setup%d" % k)
            os.makedirs(fresh)
            w = workloads.Cli(root, fresh)
            t0 = perf_counter()
            w.generate(workload_rng("cli", args.seed))
            samples.append((perf_counter() - t0, calibration()))
            shutil.rmtree(fresh)
        return samples
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=root, capture_output=True, text=True, check=True, timeout=120,
        )
        seconds, cal = probe.stdout.strip().splitlines()[-1].split()
        samples.append((float(seconds), float(cal)))
    return samples


def env_stamp(seed):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "seed": seed,
    }


def run_rounds(w, items, seconds=None, rounds=None, tracer=None):
    """Closed loop over a fixed item set: each round runs every item once, in
    order, and the loop stops after whole rounds, once the summed item time
    has reached `seconds` and at least MIN_ROUNDS rounds ran (or after
    `rounds` rounds).  An item's first output is checked and recorded for the
    digest; later outputs must give the same record.  Checks, records and
    (untraced) calibration loops run between items, outside the timed span;
    each round's calibration is the median of its loops."""
    import workloads

    times = [[] for _ in items]  # per item, its time in each round
    round_busy, round_cal, failures, near_ties = [], [], [], 0
    records = [None] * len(items)
    first_problems = [None] * len(items)  # a repeat that matches fails as the first did

    def more():
        if rounds is not None:
            return len(round_busy) < rounds
        return len(round_busy) < MIN_ROUNDS or sum(round_busy) < seconds

    attempted = 0
    while more():
        busy, loops = 0.0, []
        for j, x in enumerate(items):
            if tracer is not None:
                tracer.item = attempted
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = perf_counter()
                try:
                    out, error = w.run(x), None
                except Exception as exc:  # an item that raises is a failed item
                    out, error = None, "%s: %s" % (type(exc).__name__, exc)
                dt = perf_counter() - t0
            busy += dt
            times[j].append(dt)
            near_ties += sum(1 for c in caught if str(c.message).startswith(workloads.NEAR_TIE))
            if error is None:
                if tracer is not None:
                    tracer.paused = True  # checks are not the item's work
                try:
                    record = w.record(x, out)
                    if records[j] is None:
                        problems = w.check(x, out)
                    elif record != records[j]:
                        problems = ["output differs from the item's first run"]
                    else:
                        problems = first_problems[j]
                except Exception as exc:  # a check that cannot run is a failed check
                    problems = ["check raised %s: %s" % (type(exc).__name__, exc)]
                    record = ["check-error"]
                finally:
                    if tracer is not None:
                        tracer.paused = False
                near_ties += w.near_ties(out)
            else:
                problems = [error]
                record = ["error", error]
            if records[j] is None:
                records[j], first_problems[j] = record, problems
            if problems:
                failures.append({"item": j, "round": len(round_busy),
                                 "known": w.known_defect(x), "problems": problems})
            attempted += 1
            if tracer is None:
                loops.extend(calibration_loop() for _ in range(CALIBRATION_REPEATS))
        round_busy.append(busy)
        round_cal.append(statistics.median(loops) if loops else None)
    return {"times": times, "round_busy": round_busy, "round_cal": round_cal,
            "attempted": attempted, "records": records, "failures": failures,
            "near_ties": near_ties}


def digest(records):
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def percentile(sorted_values, pct):
    """Nearest-rank percentile and the number of values beyond it."""
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(w, run, setup_s, peak_rss_mb, scale=True):
    """Each item's latency is its median time over the rounds, with each
    round's times scaled to the reference speed (or unscaled)."""
    factors = [CALIBRATION_S / c if scale else 1.0 for c in run["round_cal"]]
    lat = sorted(statistics.median(t * f for t, f in zip(ts, factors))
                 for ts in run["times"])
    tail, beyond = percentile(lat, w.tail_pct)
    values = {
        "setup_s": setup_s,
        "items_per_s": len(lat) / sum(lat),
        "item_p50_ms": 1e3 * statistics.median(lat),
        "item_tail_ms": 1e3 * tail,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": len(run["failures"]) / run["attempted"],
    }
    tail_info = {"percentile": w.tail_pct, "items": len(lat), "items_beyond": beyond,
                 "rounds": len(run["round_busy"])}
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS}, tail_info


def traced_pass(args, w, pool, workdir):
    import tracer as tracing
    import workloads

    tr = tracing.Tracer()
    if args.workload == "cli":
        w.traced = True
        w.span_path = os.path.join(workdir, "spans.jsonl")
    else:
        tr.install(namespaces=[workloads])
    try:
        run = run_rounds(w, pool, rounds=1, tracer=tr)
    finally:
        tr.uninstall()
        w.traced = False
    agg = tr.aggregate()
    extra = {"limits.near_tie_warnings": run["near_ties"],
             "cli.startup_ms": 0.0, "cli.run_command_ms": 0.0}
    if args.workload == "cli":
        command_s = 0.0
        with open(w.span_path, encoding="utf-8") as fh:
            for line in fh:
                entry = json.loads(line)
                command_s += entry["run_command_s"]
                tracing.merge(agg, entry["aggregate"])
        n = len(pool)
        extra["cli.run_command_ms"] = 1e3 * command_s / n
        extra["cli.startup_ms"] = 1e3 * (run["round_busy"][0] - command_s) / n
    return run, agg, extra


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vinberg", "__init__.py")):
        sys.stderr.write("perfbench: no vinberg package under %s; run from the "
                         "root of a checkout\n" % src)
        return 2
    sys.path.insert(0, src)
    # one BLAS thread, set before numpy loads and inherited by every child:
    # OpenBLAS hands parts of small solves to a second thread, and on a
    # shared 2-core host that thread's core is often busy elsewhere
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    if args.setup_probe:
        seconds, _, _ = setup(args.workload, args.seed, root, None)
        print(repr(seconds), repr(calibration()))
        return 0

    workdir = os.path.join(root, ".perfbench_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        return measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def measure(args, root, workdir):
    first, w, pool = setup(args.workload, args.seed, root, workdir)
    samples = setup_samples(args, root, workdir, first)
    if args.workload != "cli":
        # one untimed item on an input outside the item set lets lazy imports
        # and first-call set-up finish before timing
        warm = w.make(workload_rng(args.workload + "-warmup", args.seed), w.cycle[0], 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w.run(warm)

    run = run_rounds(w, pool, seconds=args.seconds)
    n = len(pool)
    peak_rss_mb = w.peak_rss_kb() / 1024.0
    setup_s = statistics.median(t * CALIBRATION_S / c for t, c in samples)
    metrics, tail_info = end_to_end(w, run, setup_s, peak_rss_mb)
    raw_metrics, _ = end_to_end(w, run, statistics.median(t for t, _ in samples),
                                peak_rss_mb, scale=False)
    unexpected = [f for f in run["failures"] if f["known"] is None]
    report = {
        "workload": args.workload,
        "env": env_stamp(args.seed),
        "seconds": args.seconds,
        "setup_samples_s": [t for t, _ in samples],
        "setup_calibration_s": [c for _, c in samples],
        "tail": tail_info,
        "digest": digest(run["records"]),
        "near_tie_warnings": run["near_ties"],
        "known_defects_hit": sorted({f["known"] for f in run["failures"] if f["known"]}),
        "failures": run["failures"][:20],
        "round_s": run["round_busy"],
        "round_calibration_s": run["round_cal"],
        "times_ms": [[round(1e3 * t, 3) for t in ts] for ts in run["times"]],
        "metrics": metrics,
        "raw_metrics": raw_metrics,
    }
    correct = not unexpected
    final_metrics = {k: v for k, v in metrics.items() if k != "failed_frac"}

    if args.trace:
        traced, agg, extra = traced_pass(args, w, pool, workdir)
        import tracer as tracing

        # one traced round against the median untraced round
        plain_round = statistics.median(run["round_busy"])
        extra["trace.overhead_s"] = traced["round_busy"][0] - plain_round
        extra["trace.overhead_frac"] = extra["trace.overhead_s"] / plain_round
        traced_digest = digest(traced["records"])
        report["traced_digest"] = traced_digest
        report["traced_digest_matches"] = traced_digest == report["digest"]
        correct = correct and traced_digest == report["digest"]
        final_metrics = tracing.per_layer_metrics(agg, n, extra)
        report["per_layer"] = final_metrics
        report["spans"] = {name: {"calls": c, "total_s": t, "self_s": o}
                           for name, (c, t, o) in sorted(agg["spans"].items())}

    for name, m in report["metrics"].items():
        print("%-14s %14.6g %s" % (name, m["value"], m["unit"]))
    print("tail percentile p%g over %d items (%d beyond), medians of %d rounds" % (
        tail_info["percentile"], tail_info["items"], tail_info["items_beyond"],
        tail_info["rounds"]))
    if args.trace:
        for name, m in final_metrics.items():
            print("%-52s %14.6g %s" % (name, m["value"], m["unit"]))
    for f in run["failures"][:20]:
        print("failed item %d%s: %s" % (f["item"], " (known defect %s)" % f["known"]
                                        if f["known"] else "", "; ".join(f["problems"])))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": len(run["failures"]), "metrics": final_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
