#!/usr/bin/env python3
"""Build and run the secure k-NN benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload plain-k2 --seed 1 --seconds 25 --trace 0

The script builds perfbench/main.exe with dune (the shared build cache
off, so nothing is written outside the checkout), runs it at one domain
and passes its output through.  The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}.  It exits
non-zero without a result when the checkout lacks the library sources or
the build or the run fails.  Runtime state (the exact-count record and
the GC event ring) lives in .perfbench_state/ at the checkout root.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE = ".perfbench_state"
WORKLOADS = ("plain-k2", "packed-k20", "batch8-k2")
# What the result depends on: the library, the kernel calibration the
# traced run uses, the benchmark itself and the build files.  Markdown
# is skipped, so editing documentation keeps the exact-count records.
SOURCES = ("lib", os.path.join("bench", "kernels"), "perfbench", "dune-project", "dune")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs]
        for f in sorted(files):
            rel = os.path.relpath(f, ROOT)
            if "__pycache__" in rel or rel.endswith(".md"):
                continue
            h.update(rel.encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    missing = [p for p in ("dune-project", "lib", os.path.join("bench", "kernels"))
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("not a source checkout, missing: " + ", ".join(missing))

    state = os.path.join(ROOT, STATE)
    os.makedirs(state, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", XDG_CACHE_HOME=os.path.join(state, "cache"))
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "--display=quiet",
         "./perfbench/main.exe"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed")

    env.update(PERFBENCH_REV=git_rev(), PERFBENCH_SOURCE=source_digest(),
               OCAML_RUNTIME_EVENTS_DIR=state, SKNN_DOMAINS="1")
    try:
        run = subprocess.run(
            [os.path.join(ROOT, "_build", "default", "perfbench", "main.exe"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace), "--state-dir", state],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if run.returncode != 0 or not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        sys.stderr.write(run.stdout)
        fail("run failed (exit code %d) or printed no result" % run.returncode)
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
