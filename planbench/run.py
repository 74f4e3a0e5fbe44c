#!/usr/bin/env python3
"""Build and run the plan-search benchmark (see planbench/README.md).

Run from the repository root:

  python3 planbench/run.py --workload search_cold --seed 1 --seconds 30 --trace 0
  python3 planbench/run.py --test                    # the benchmark's own tests
  python3 planbench/run.py --regenerate-predictors   # retrain the pinned .ptck files

The first run configures and builds the predtop libraries and plan_bench in
Release under .bench_build/planbench; later runs rebuild incrementally.
Build output goes to stderr, so the last line of stdout is plan_bench's
result object. Run artifacts (worker sockets, samples, Chrome traces) go to
.bench_run/. Exits non-zero without a result when the sources are missing,
the build fails, or plan_bench refuses or fails to set up.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "planbench")
RUN_DIR = ".bench_run"
PREDICTORS = os.path.join("planbench", "predictors")
RUN_TIMEOUT_S = 170
# Compiler and plan_bench temporaries stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, BUILD_DIR, "tmp")


def fail(message):
    print("planbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when the checkout is a git work tree, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "bench", "planbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def child_env():
    os.makedirs(TMP_DIR, exist_ok=True)
    return dict(os.environ, TMPDIR=TMP_DIR)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("predtop sources (src/) not found next to planbench/; nothing to build")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "planbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          env=child_env()).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true")
    parser.add_argument("--regenerate-predictors", action="store_true")
    args = parser.parse_args()

    if args.test:
        binary = build("plan_bench_test")
        sys.exit(subprocess.run([binary], cwd=ROOT, env=child_env()).returncode)

    binary = build("plan_bench")
    if args.regenerate_predictors:
        os.makedirs(os.path.join(ROOT, PREDICTORS), exist_ok=True)
        sys.exit(subprocess.run([binary, "--regenerate-predictors", PREDICTORS], cwd=ROOT,
                                env=child_env()).returncode)

    if not args.workload:
        fail("--workload is required")
    os.makedirs(os.path.join(ROOT, RUN_DIR), exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--predictors", PREDICTORS, "--run-dir", RUN_DIR, "--commit", source_id()]
    try:
        done = subprocess.run(command, cwd=ROOT, env=child_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("plan_bench did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
