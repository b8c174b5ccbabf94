#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the benchmark binary from the library sources (CMake, into
$CARGO_TARGET_DIR or .bench_build, relative to the repository root), runs one
workload and passes its output through. The last line of stdout is the JSON
result; the exit code is non-zero when the build fails, an output check
fails, or the binary dies.

Steadiness mode:

    python3 perfbench/run.py --steady 5 [--workload <name>] [--seed <n>] [--seconds <s>]

runs each workload (or the one named) once per seed n, n+1, ... and prints,
for every end-to-end metric, the median, the quartiles (statistics.quantiles,
n=4), the relative spread (q3 - q1) / median, and whether that spread is below
a third of the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["campaign", "serve_mix", "epoch_churn"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources not found: no src/CMakeLists.txt beside perfbench/")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(done.stdout.decode(errors="replace")[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run_once(binary, workload, seed, seconds, trace, echo):
    """Runs one workload; returns (exit code, parsed JSON result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", os.path.join(ROOT, ".bench_out")]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                          check=False)
    out = done.stdout.decode(errors="replace")
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    lines = out.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result


def spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def bounds():
    return {m["name"]: m.get("bound") for m in spec().get("end_to_end", [])}


def metrics_match(result, trace):
    """True when the result carries exactly BENCHMARK.json's metrics and units."""
    listed = spec().get("per_layer" if trace else "end_to_end")
    if listed is None:
        return True
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    return want == got


def steady(binary, workloads, first_seed, runs, seconds):
    limits = bounds()
    ok = True
    for workload in workloads:
        values = {}
        for seed in range(first_seed, first_seed + runs):
            code, result = run_once(binary, workload, seed, seconds, 0, echo=False)
            if code != 0 or result is None or not result.get("correct"):
                log(f"{workload} seed {seed}: run failed (exit {code})")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            log(f"{workload} seed {seed}: " +
                ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
        print(f"== {workload}: {runs} runs of {seconds} s, seeds {first_seed}..{first_seed + runs - 1}")
        print(f"{'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}  ok")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = limits.get(name)
            good = bound is None or spread < bound / 3.0
            ok = ok and good
            print(f"{name:<18}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
                  f"{(bound if bound is not None else float('nan')):>7.2f}  {'yes' if good else 'NO'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS", default=0,
                        help="steadiness mode: this many seeds per workload")
    args = parser.parse_args()
    if not args.steady and args.workload is None:
        parser.error("--workload is required")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 2

    if args.steady:
        workloads = [args.workload] if args.workload else WORKLOADS
        return steady(binary, workloads, args.seed, args.steady, args.seconds)

    try:
        code, result = run_once(binary, args.workload, args.seed, args.seconds, args.trace,
                                echo=True)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 3
    if result is None:
        log(f"perfbench: no result line (exit {code})")
        return code or 3
    if not metrics_match(result, args.trace):
        log("perfbench: the result's metrics or units differ from BENCHMARK.json")
        return code or 4
    return code


if __name__ == "__main__":
    sys.exit(main())
