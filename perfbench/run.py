#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is built from source with
dune into .bench_build/ (the dune cache is off, so nothing is written
outside the checkout), its self-test of the timing wrappers is
run, and then main.exe measures the workload. The last line of standard
output is the JSON result; result files with spans and the box record go
to .bench_build/results/. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROFILE = "dev"  # what `dune build` / `dune exec` give a user of the repo
EXES = ["main", "selftest"]
RUN_TIMEOUT_S = 170
RESULTS = os.path.join(BUILD, "results")
# Keep every file the build and the runs write inside the checkout: no
# dune cache, temporary files and runtime_events rings under BUILD.
ENV = dict(
    os.environ,
    DUNE_CACHE="disabled",
    TMPDIR=os.path.join(BUILD, "tmp"),
    OCAML_RUNTIME_EVENTS_DIR=RESULTS,
)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for need in ["dune-project", os.path.join("lib", "harness", "run.mli")]:
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing: run from the root of a full checkout" % need)
    for d in [ENV["TMPDIR"], RESULTS]:
        os.makedirs(d, exist_ok=True)
    cmd = [
        "dune", "build", "--root", ROOT, "--profile", PROFILE,
        "--build-dir", os.path.join(BUILD, "dune"), "--display", "quiet",
    ] + ["./perfbench/%s.exe" % e for e in EXES]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        fail("dune is not on PATH")
    if r.returncode != 0:
        fail("build failed (exit %d)" % r.returncode)
    return {e: os.path.join(BUILD, "dune", "default", "perfbench", e + ".exe") for e in EXES}


def run(cmd, timeout):
    """Run to completion, forwarding its output; kill it on timeout (its
    campaign workers exit when their lease pipe closes)."""
    p = subprocess.Popen(cmd, cwd=ROOT, env=ENV)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        fail("%s timed out after %d s" % (os.path.basename(cmd[0]), timeout))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    exes = build()
    t0 = time.monotonic()
    if run([exes["selftest"]], RUN_TIMEOUT_S) != 0:
        fail("self-test of the timing wrappers failed")
    code = run(
        [
            exes["main"], "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--out", RESULTS,
            "--reference", os.path.join(HERE, "reference.json"),
            "--dune-profile", PROFILE,
        ],
        RUN_TIMEOUT_S - (time.monotonic() - t0),
    )
    if code != 0:
        fail("main.exe exited %d" % code)


if __name__ == "__main__":
    main()
