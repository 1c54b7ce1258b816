"""cloudmap benchmark: run one workload against the checkout's src/ and
print its metrics as the last line of standard output.

    python3 perfbench/run.py --workload train_static --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 wraps the program's
public functions and prints the per-layer metrics instead. The workload
runs in this process, in whole rounds until --seconds have passed, then
checks the outputs of its first round; the exit code is 0 only when every
check holds. Only the import-time probes of set-up run in child
interpreters, one after another.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 5
WORKLOADS = ("train_static", "graphdraw_attack", "cli_leaky")

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t0 = time.perf_counter(); import numpy, cloudmap; "
                "print(time.perf_counter() - t0)")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "train_samples_per_s": "1/s",
    "eval_clouds_per_s": "1/s",
    "attack_clouds_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_seconds():
    """Median time to import numpy and cloudmap in a fresh interpreter,
    which a single in-process import would measure only once."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                               capture_output=True, text=True, check=True, timeout=120)
        times.append(float(probe.stdout))
    return statistics.median(times)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cloudmap" / "__init__.py").is_file():
        print(f"error: no cloudmap package under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread: steady timings on a shared machine, and never more
    # threads than cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import_s = import_seconds()
    import cloudmap
    import tracer
    import workloads
    if Path(cloudmap.__file__).resolve().parent != SRC / "cloudmap":
        print(f"error: imported cloudmap from {cloudmap.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    run_dir = RUNS / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ctx = workload.setup(args.seed, str(run_dir))
            setup_times.append(time.perf_counter() - t0)

        trace = tracer.Tracer() if args.trace else None
        rounds = []
        if trace:
            trace.install()
        try:
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < args.seconds:
                t0 = time.perf_counter()
                r = workload.run_round(ctx, len(rounds))
                r.wall_s = time.perf_counter() - t0
                if trace:
                    trace.end_round()
                rounds.append(r)
        finally:
            if trace:
                trace.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = workload.check(ctx, rounds[0])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass  # another run still uses it

    for r in rounds:
        for err in r.errors:
            print(f"failed operation: {err}", file=sys.stderr)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds of "
          f"{' '.join(f'{r.wall_s:.3f}' for r in rounds)} s", file=sys.stderr)

    if trace:
        units = tracer.metric_units()
        values = trace.metrics()
    else:
        units = END_TO_END_UNITS
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "run_s": statistics.median(r.wall_s for r in rounds),
            "train_samples_per_s": workloads.rate(rounds, "train"),
            "eval_clouds_per_s": workloads.rate(rounds, "eval"),
            "attack_clouds_per_s": workloads.rate(rounds, "attack"),
            "peak_rss_mb": peak_rss_mb,
        }
    result = {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
