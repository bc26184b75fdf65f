#!/usr/bin/env python3
"""Builds the ktx serving benchmark from source and runs it.

    python3 ktxbench/run.py --workload decode_batch --seed 1 --seconds 25 --trace 0
        One run. The last line of stdout is the run's JSON result, each metric
        with the unit BENCHMARK.json gives it; the exit code is the
        benchmark's (non-zero when a correctness check fails, or when the
        metrics printed are not the ones BENCHMARK.json lists).

    python3 ktxbench/run.py steady --workload decode_batch --runs 10 --seconds 25
        Runs one workload N times with seeds 1..N and prints, per end-to-end
        metric, the median, the quartiles, the quartile spread as a share of
        the median, and the max/min ratio (the figures BENCHMARK.json's
        bounds are set from).

    python3 ktxbench/run.py test
        Builds and runs the checks' own test (each check must reject a
        corrupted output).

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "ktxbench")


def build():
    """Configures and builds the benchmark; returns False if either step fails."""
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    targets = ["--target", "ktxbench_serve", "ktxbench_checks_test"]
    return subprocess.run(["cmake", "--build", out, "-j", jobs] + targets,
                          stdout=sys.stderr).returncode == 0


def units(trace):
    """Metric name -> unit, from BENCHMARK.json's list for this mode."""
    with open(SPEC) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(args):
    """Runs the benchmark binary and prints its output with each metric's
    unit attached; returns (exit code, result or None)."""
    proc = subprocess.run([os.path.join(build_dir(), "ktxbench_serve")] + args,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1, None
    trace = "--trace" in args[:-1] and args[args.index("--trace") + 1] == "1"
    unit_of = units(trace)
    if set(result["metrics"]) != set(unit_of):
        print(f"ktxbench: metrics printed {sorted(result['metrics'])} differ from "
              f"BENCHMARK.json's {sorted(unit_of)}", file=sys.stderr)
        return 1, None
    result["metrics"] = {name: {"value": value, "unit": unit_of[name]}
                         for name, value in result["metrics"].items()}
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    print(json.dumps(result))
    sys.stdout.flush()
    return proc.returncode, result


def steady(argv):
    opts = dict(zip(argv[0::2], argv[1::2]))
    workload = opts.get("--workload", "decode_batch")
    runs = int(opts.get("--runs", "10"))
    seconds = opts.get("--seconds", "25")
    values = {}
    failed_shares = []
    for seed in range(1, runs + 1):
        code, result = run_once(["--workload", workload, "--seed", str(seed),
                                 "--seconds", seconds, "--trace", "0"])
        if code != 0 or result is None or not result["correct"]:
            print(f"seed {seed}: run failed (exit {code})", file=sys.stderr)
            return 1
        failed_shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"\n{workload}: {runs} runs of {seconds} s, seeds 1..{runs}")
    print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'iqr/med':>10}{'max/min':>9}")
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4)
        print(f"{name:<16}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
              f"{(q3 - q1) / med:>10.4f}{max(v) / min(v):>9.3f}")
    print(f"failed share per run: {sorted(set(failed_shares))}")
    return 0


def main(argv):
    if not build():
        print("ktxbench: build failed", file=sys.stderr)
        return 1
    if argv[:1] == ["steady"]:
        return steady(argv[1:])
    if argv[:1] == ["test"]:
        return subprocess.run([os.path.join(build_dir(), "ktxbench_checks_test")]).returncode
    code, _ = run_once(argv)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
