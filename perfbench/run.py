#!/usr/bin/env python3
"""Build and run the optiplet benchmark.

    python3 perfbench/run.py --workload cnn_day --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload rack16 --size smoke    # seconds-long
    python3 perfbench/run.py --self-test

Run from anywhere inside a checkout of the repository. The first call
configures and builds the library and the benchmark (Release) under
`.bench_build/perfbench` at the checkout root; later calls rebuild only what
changed. The benchmark's last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; everything before it is a
human-readable report. Per-run result files (run context, metrics with
sample counts, checks, digest, span self times) and, for `--trace 1`, the
span file land in `.bench_build/perfbench/results`.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(BUILD, "results")
WORKLOADS = ("cnn_day", "llm_chat", "rack16", "cycle_zoo")
# A run must end within 180 s; leave room for the no-op rebuild.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """Digest of the sources the benchmark measures, plus the git commit
    when the checkout is a repository."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    ident = "src-" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
            ident += " git-" + commit
        except (OSError, subprocess.SubprocessError):
            pass
    return ident


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no optiplet sources at {ROOT}: the benchmark must sit in a "
             "checkout of the repository")
    os.makedirs(RESULTS, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", BUILD, "-j", jobs]]
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr, timeout=840)
            except (OSError, subprocess.SubprocessError) as e:
                fail(f"build step {' '.join(step)} failed: {e}")
            if done.returncode != 0:
                fail(f"build step {' '.join(step)} exited "
                     f"{done.returncode}")
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed phase length (default 10, smoke 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--self-test", action="store_true",
                        help="check that corrupted reports raise error_rate")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = 1.0 if args.size == "smoke" else 10.0

    binary = build()
    if args.self_test:
        cmd = [binary, "--self-test"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--size", args.size, "--out", RESULTS,
               "--source-id", source_id()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited {done.returncode}", done.returncode)
    if args.self_test:
        print("\n".join(lines))
        return

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout)
        fail("benchmark printed no result line", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys {sorted(result)}", 1)
    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json: "
             f"missing {sorted(expected - set(result['metrics']))}, "
             f"extra {sorted(set(result['metrics']) - expected)}", 1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
