"""tomoflow benchmark: time one workload for a fixed number of seconds.

    python3 perfbench/run.py --workload reconstruct --seed 1 --seconds 35 --trace 0

Run from the root of a tomoflow checkout; the library is imported from
its `src/` directory.  Untraced (`--trace 0`), a run reports the
end-to-end metrics pass_s, setup_s and peak_rss_mb.  Traced
(`--trace 1`), it alternates untraced and traced passes and reports the
per-layer metrics; the spans are written to perfbench/out/.  `--smoke`
uses small grids so that every workload and its checks run in seconds.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS/OpenMP thread: steadier timings on a shared machine, and the
# same count on every machine with at least one core.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 3
# Fewest passes in a full run; cli-pipeline passes take about 11 s.
MIN_PASSES = 3
WORKLOAD_NAMES = ("reconstruct", "evolve", "cli-pipeline")
ACCURACY = (("wigner_err", "accuracy.wigner_max_err"),
            ("rho_err", "accuracy.rho_max_err"),
            ("evolve_err", "accuracy.evolve_max_err"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small grids; every check still runs")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def time_setups(args, repeats: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its inputs being built."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed (exit {code})")
    return times


def measure(workload, seconds: float, tracer, min_passes: int):
    """Attempt whole passes until the next would overrun `seconds`.

    A run holds at least `min_passes` passes, so that its median is not
    a single sample.  With a tracer, passes alternate untraced and
    traced, starting untraced, and the run holds at least one of each.
    """
    from tracing import install, uninstall

    untraced, traced, traced_ids, verdicts, cycles = [], [], [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        is_traced = tracer is not None and index % 2 == 1
        begin = time.perf_counter()
        if is_traced:
            patches = install(tracer)
            tracer.pass_index = index
            t0 = time.perf_counter()
            with tracer.span("pass"):
                outputs = workload.run_pass(tracer)
            traced.append(time.perf_counter() - t0)
            traced_ids.append(index)
            tracer.pass_index = None
            uninstall(patches)
        else:
            t0 = time.perf_counter()
            outputs = workload.run_pass(None)
            untraced.append(time.perf_counter() - t0)
        verdicts.extend(workload.check(outputs))
        del outputs  # not held while the next pass runs: peak_rss_mb
        cycles.append(time.perf_counter() - begin)
        index += 1
        if index < min_passes or (tracer is not None and not traced):
            continue
        if time.perf_counter() - start + statistics.median(cycles) > seconds:
            return untraced, traced, traced_ids, verdicts


def accuracy(verdicts) -> dict[str, float]:
    out = {metric: 0.0 for _, metric in ACCURACY}
    for v in verdicts:
        for name, (value, _tol) in v.measured.items():
            for prefix, metric in ACCURACY:
                if name.split("@")[0] == prefix:
                    out[metric] = max(out[metric], value)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tomoflow", "__init__.py")):
        print(f"error: no tomoflow sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, SRC)

    import tomoflow
    if os.path.dirname(os.path.dirname(os.path.realpath(tomoflow.__file__))) \
            != os.path.realpath(SRC):
        print(f"error: tomoflow imported from {tomoflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from tracing import PER_LAYER, Tracer, layer_metrics
    from workloads import WORKLOADS, Draw

    draw = Draw.from_seed(args.seed)
    workload = WORKLOADS[args.workload](draw, "smoke" if args.smoke else "full",
                                        ROOT)
    if args.setup_only:
        workload.setup()
        print("ready", flush=True)
        workload.close()
        return 0

    setups = time_setups(args, 1 if args.smoke else SETUP_REPEATS)
    workload.setup()
    tracer = Tracer(args.workload) if args.trace else None
    try:
        untraced, traced, traced_ids, verdicts = measure(
            workload, args.seconds, tracer, 1 if args.smoke else MIN_PASSES)
    finally:
        workload.close()

    worst: dict[str, float] = {}
    for v in verdicts:
        for name, (value, _tol) in v.measured.items():
            key = f"{v.op}/{name.split('@')[0]}"
            worst[key] = max(worst.get(key, 0.0), value)
        if v.failed:
            bad = {k: m for k, m in v.measured.items() if not m[0] <= m[1]}
            print(f"FAILED {args.workload}/{v.op}: {v.error or v.check_error}"
                  f" {bad if bad else ''}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} draw={draw} "
          f"passes={len(untraced)}+{len(traced)} traced "
          f"threads={THREADS} nproc={os.cpu_count()} "
          f"setup_runs={[round(s, 3) for s in setups]} "
          f"pass_runs={[round(s, 3) for s in untraced]}")
    print("# worst measured: " + " ".join(f"{k}={v:.2g}"
                                          for k, v in sorted(worst.items())))

    if tracer is None:
        peak = workload.peak_rss_mb()
        if peak is None:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"pass_s": (statistics.median(untraced), "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (peak, "MB")}
    else:
        values = layer_metrics(tracer, traced_ids)
        values.update(accuracy(verdicts))
        values["trace.overhead_s"] = (statistics.median(traced)
                                      - statistics.median(untraced))
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        units.update({metric: "1" for _, metric in ACCURACY})
        units["trace.overhead_s"] = "s"
        metrics = {name: (value, units[name]) for name, value in values.items()}
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "traced_passes": traced_ids, "spans": tracer.spans,
                       "counts": tracer.counts}, fh)
        print(f"# spans written to {os.path.relpath(path, ROOT)}")

    result = {
        "correct": not any(v.wrong for v in verdicts),
        "attempted": len(verdicts),
        "failed": sum(v.failed for v in verdicts),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
