"""Benchmark of the matern_thinning pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and README.md) from the checkout's
``src`` tree, checks its outputs, and prints as the last line of standard
output one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps the library's public functions, reports the per-layer
metrics and writes the spans to ``bench/results/``.
"""

import os
import sys
import time

T0 = time.perf_counter()
# one BLAS / OpenMP thread, set before NumPy is first imported: the pools'
# default thread counts made run times spread more on a 2-CPU machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
WORKLOAD_NAMES = ("devtest-hardcore", "marked-pcf-cli")


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time;
    0 where /proc is not available."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import matern_thinning from this checkout's src tree only."""
    if not os.path.isdir(os.path.join(SRC, "matern_thinning")):
        sys.exit(f"error: no matern_thinning package under {SRC}")
    sys.path.insert(0, SRC)
    import matern_thinning
    if not os.path.abspath(matern_thinning.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: matern_thinning was imported from "
                 f"{matern_thinning.__file__}, not from {SRC}")


def main(argv=None) -> int:
    age_at_t0 = process_age()
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    args = parse_args(argv)
    import_library()
    import workloads
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer("matern_thinning")
        tracer.install()

    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    try:
        workload = workloads.WORKLOADS[args.workload]()
        workload.setup(args.seed, workdir)
        setup_s = age_at_t0 + time.perf_counter() - T0

        # operations run until --seconds have passed, each from inputs that
        # depend only on the seed and its index; only operations that
        # succeed are timed
        outputs, durations, failed, n_ops = [], [], 0, 0
        cpu0 = os.times()
        run0 = time.perf_counter()
        deadline = run0 + args.seconds
        while not n_ops or time.perf_counter() < deadline:
            workload.prepare(n_ops)
            with tracer.recording() if tracer else contextlib.nullcontext():
                t = time.perf_counter()
                try:
                    outputs.append(workload.op(n_ops))
                    durations.append(time.perf_counter() - t)
                except Exception:
                    failed += 1
                    traceback.print_exc()
            n_ops += 1
        run_s = time.perf_counter() - run0
        if not durations:
            sys.exit(f"error: all {n_ops} operations failed")
        deciles = (statistics.quantiles(durations, n=10, method="inclusive")
                   if len(durations) > 1 else durations * 9)
        print(f"{n_ops} operations in {run_s:.3f} s; one operation took min "
              f"{min(durations):.4f} s, p10 {deciles[0]:.4f} s, p50 "
              f"{statistics.median(durations):.4f} s, max "
              f"{max(durations):.4f} s", file=sys.stderr)
        cpu1 = os.times()
        cpu_s = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)

        try:
            errors = workload.check(outputs)
        except Exception:
            errors = ["check raised:\n" + traceback.format_exc()]
        for message in errors:
            print(f"check failed: {message}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            # the fastest operation: the host's slow phases only ever add
            # time, and every operation of a workload does the same work
            "op_s_min": {"value": min(durations), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = tracer.metrics(cpu_s, n_ops)
        path = os.path.join(RESULTS,
                            f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds,
                            "operations": n_ops,
                            "op_s": durations, "run_s": run_s,
                            "setup_s": setup_s, "peak_rss_mb": peak_rss_mb},
                     metrics)
        for name in tracer.absent:
            print(f"trace: {name} is absent", file=sys.stderr)
        print(f"trace written to {os.path.relpath(path, ROOT)}",
              file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": n_ops,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
