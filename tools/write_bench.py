"""Run the benchmark on two checkouts and write the results to a BENCH file.

    python3 tools/write_bench.py --base DIR --seed N --out BENCH_6.json

For every workload in ``BENCHMARK.json`` it runs, unmodified,

    python3 bench/run.py --workload W --seed N --seconds S --trace 0

once in the checkout DIR (the parent commit, say a ``git clone`` of it) and
once in this checkout, for ten pairs with seeds N to N + 9, alternating
which side runs first; ten pairs are the fewest that can show a gain.
Pick seeds no development run used.  A run whose outputs fail the
benchmark's checks stops the script with a non-zero exit status, naming
the checkout, the workload and the seed.  The file holds the seeds, every
run's metrics, each side's median and quartiles per metric, how many
pairs the change won, the Python, NumPy and SciPy versions, the CPU count
and each checkout's git SHA.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10


def git_sha(checkout):
    sha = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=True)
    dirty = subprocess.run(["git", "-C", checkout, "status", "--porcelain",
                            "--untracked-files=no"],
                           capture_output=True, text=True, check=True)
    return sha.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def run_once(checkout, command, workload, seed, seconds):
    """One benchmark run; its last line of standard output is the result."""
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(args)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{checkout}: workload {workload}, seed {seed}: the outputs "
                 f"failed the benchmark's checks:\n{proc.stderr}")
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(base_runs, change_runs, end_to_end):
    """Median and quartiles per side, and the pairs the change won."""
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {}
        for side, runs in (("base", base_runs), ("change", change_runs)):
            values = [run["metrics"][name] for run in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
            sides[side] = {"median": q2, "q1": q1, "q3": q3}
        wins = sum((c < b) if lower else (c > b) for b, c in zip(
            (r["metrics"][name] for r in base_runs),
            (r["metrics"][name] for r in change_runs)))
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "bound": metric["bound"], **sides,
                     "change_over_base": sides["change"]["median"]
                     / sides["base"]["median"],
                     "change_wins": wins, "pairs": len(base_runs)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="checkout of the commit to compare against")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    checkouts = {"base": os.path.abspath(args.base), "change": ROOT}
    report = {
        "command": bench["command"], "seconds": bench["run_seconds"],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cpus": os.cpu_count(),
        "git_sha": {side: git_sha(path) for side, path in checkouts.items()},
        "seeds": list(range(args.seed, args.seed + PAIRS)),
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"base": [], "change": []}
        for i in range(PAIRS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                run = run_once(checkouts[side], bench["command"], workload,
                               args.seed + i, bench["run_seconds"])
                runs[side].append(run)
                print(f"{workload} pair {i} {side}: {run['metrics']}",
                      file=sys.stderr)
        report["workloads"][workload] = {
            "summary": summarize(runs["base"], runs["change"],
                                 bench["end_to_end"]),
            "runs": runs}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
