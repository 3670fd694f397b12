#!/usr/bin/env python3
"""Build and run the contiver benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Builds perfbench/main.exe from source with dune, then runs one workload
in one process. The last line of standard output is the JSON result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
`--workload all` runs every workload untraced and traced, prints each
report plus the tracing overhead, and ends with one combined JSON line.

Exits non-zero without a result when the build fails, and non-zero
after the result when any verdict check failed.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ["table1", "batch-wide", "serve-drive", "certify"]
# A run must end within 180 s; leave the rest for process start-up.
RUN_TIMEOUT_S = 175


def fail(msg: str) -> None:
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def env() -> dict:
    e = dict(os.environ)
    # Keep dune's build cache inside the checkout.
    e["DUNE_CACHE"] = "disabled"
    e["PERFBENCH_SOURCE"] = provenance()
    return e


def provenance() -> str:
    """Content hash of the sources the benchmark builds, plus the git
    commit when the checkout is a git repository."""
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(path)
            for f in fs
            if f.endswith((".ml", ".mli", ".c", "dune", "dune-project"))
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return "sha256:%s,git:%s" % (h.hexdigest()[:16], commit)


def build(e: dict) -> None:
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    r = subprocess.run([dune, "build", "--root", ".", "./perfbench/main.exe"],
                       cwd=ROOT, env=e, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.isfile(os.path.join(ROOT, EXE)):
        fail("build failed")


def run_one(e: dict, workload: str, seed: int, seconds: int, trace: int,
            echo: bool = True):
    args = [os.path.join(".", EXE), "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(args, cwd=ROOT, env=e, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if echo:
        sys.stdout.write(r.stdout)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s printed no result (exit %d)" % (workload, r.returncode))
    return r.returncode, result


def run_all(e: dict, seed: int, seconds: int) -> int:
    code, combined, correct = 0, {}, True
    attempted = failed = 0
    for w in WORKLOADS:
        rc_u, untraced = run_one(e, w, seed, seconds, 0, echo=False)
        rc_t, traced = run_one(e, w, seed, seconds, 1, echo=False)
        code = code or rc_u or rc_t
        for res in (untraced, traced):
            correct = correct and res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
        print("== %s" % w)
        for k, m in list(untraced["metrics"].items()) + list(traced["metrics"].items()):
            if m["value"] != 0:
                print("  %-30s %14.6g  %s" % (k, m["value"], m["unit"]))
                combined["%s.%s" % (w, k)] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return code


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    e = env()
    build(e)
    if a.workload == "all":
        sys.exit(run_all(e, a.seed, a.seconds))
    code, _ = run_one(e, a.workload, a.seed, a.seconds, a.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
