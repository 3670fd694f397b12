#!/usr/bin/env python3
"""A/B the benchmark: alternating parent/change pairs of perfbench runs.

Usage (from the repository root):

    python3 scripts/perf_ab.py --parent REV --workloads W,... --seeds 61-70
    python3 scripts/perf_ab.py --self-test

The current checkout is the change side. REV is checked out with
`git worktree add --detach` into a temporary directory outside the
checkout, which is removed on exit. Pair i runs
`perfbench/run.py --workload W --seed S --seconds N --trace 0` on both
sides, the parent first on even i, where N is BENCHMARK.json's
run_seconds. Every result line is kept in a JSONL file under
_build/perf_ab/. A run that exits non-zero or reports failed operations
is printed with its side, seed and exit code, and the tool exits 1.

For each workload and each end-to-end metric of BENCHMARK.json it
prints both medians with q1-q3, the relative change, the change's wins
(ties count for neither side) and a verdict:

  gain          the change wins at least 9/10 of the pairs and the
                medians differ by more than the parent's q1-q3 spread
  worse         the change's median is worse than the parent's by more
                than the metric's bound
  unresolved    the parent's q1-q3 spread is wider than the bound (unless
                every change run beats every parent run)
  within bound  otherwise

Once both sides are built it prints the address of each side's
calibration kernel (camlPerfbench__Util.calib_kernel*, read with nm from
_build/default/perfbench/main.exe) and warns when the two differ modulo
4096: every scaled time is divided by that kernel's speed, and moving it
within its page alone has moved every scaled metric by 2-13%. Compare
unscaled times then.

--self-test checks the quantile, verdict and placement rules on fixed
numbers and runs nothing else. Uses the Python standard library only.
"""
import argparse
import datetime
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quantile(xs, q):
    """Linear interpolation between the closest ranks of sorted xs."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def quartiles(xs):
    return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)


def verdict(parent, change, better, bound):
    """Verdict for one metric over aligned pairs: (verdict, wins, rel)
    where rel is the relative change of the median, change vs parent."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if (c - p) * sign > 0)
    p1, pm, p3 = quartiles(parent)
    cm = quantile(change, 0.5)
    rel = (cm - pm) / abs(pm) if pm else 0.0
    iqr = p3 - p1
    if 10 * wins >= 9 * len(parent) and (cm - pm) * sign > 0 and abs(cm - pm) > iqr:
        return "gain", wins, rel
    if -sign * rel > bound:
        return "worse", wins, rel
    separated = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if pm and iqr / abs(pm) > bound and not separated:
        return "unresolved", wins, rel
    return "within bound", wins, rel


CALIB_KERNEL = "camlPerfbench__Util.calib_kernel"


def calib_address(root):
    """Address of the calibration kernel in root's perfbench binary, or
    None when the binary or the symbol is missing."""
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    try:
        out = subprocess.run(["nm", exe], capture_output=True, text=True,
                             check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[2].startswith(CALIB_KERNEL):
            return int(fields[0], 16)
    return None


def placement_differs(parent, change):
    """True when the two kernels sit at different offsets within a
    4096-byte page, so scaled times may differ by placement alone."""
    return parent % 4096 != change % 4096


def report_placement(roots):
    parent, change = calib_address(roots["parent"]), calib_address(roots["change"])
    print("calib_kernel: parent %s  change %s" % tuple(
        "?" if a is None else hex(a) for a in (parent, change)))
    if None not in (parent, change) and placement_differs(parent, change):
        print("perf_ab: warning: calib_kernel moved within its page; scaled "
              "times can differ by placement alone, compare unscaled times")


def self_test():
    def expect(name, got, want):
        if got != want:
            sys.exit("perf_ab self-test: %s: got %r, want %r" % (name, got, want))

    ten = [float(x) for x in range(1, 11)]
    expect("q1", quantile(ten, 0.25), 3.25)
    expect("median", quantile(ten, 0.5), 5.5)
    expect("q3", quantile(ten, 0.75), 7.75)
    expect("median odd", quantile([3.0, 1.0, 2.0], 0.5), 2.0)
    expect("single", quartiles([4.0]), (4.0, 4.0, 4.0))
    parent = [20.0, 20.5, 21.0, 21.2, 21.4, 21.6, 21.8, 22.0, 22.5, 23.0]
    # Lower is better: every change run faster.
    fast = [8.0 + 0.1 * i for i in range(10)]
    expect("gain", verdict(parent, fast, "lower", 0.2)[:2], ("gain", 10))
    # 9 of 10 wins is enough, 8 is not.
    nine = fast[:9] + [30.0]
    expect("gain 9/10", verdict(parent, nine, "lower", 0.2)[0], "gain")
    eight = fast[:8] + [30.0, 30.0]
    expect("8/10 is no gain", verdict(parent, eight, "lower", 0.2)[0], "within bound")
    # Ties count for neither side.
    expect("ties", verdict(parent, parent, "lower", 0.2)[:2], ("within bound", 0))
    # Winning every pair by less than the parent's q1-q3 spread is no gain.
    shaved = [p - 0.01 for p in parent]
    expect("inside iqr", verdict(parent, shaved, "lower", 0.2)[:2], ("within bound", 10))
    # 30% slower is worse than a 0.2 bound; 10% slower is within it.
    expect("worse", verdict(parent, [p * 1.3 for p in parent], "lower", 0.2)[0], "worse")
    expect("within", verdict(parent, [p * 1.1 for p in parent], "lower", 0.2)[0], "within bound")
    # Higher is better: the sign flips.
    expect("gain higher", verdict(parent, [p * 2 for p in parent], "higher", 0.2)[0], "gain")
    expect("worse higher", verdict(parent, [p * 0.7 for p in parent], "higher", 0.2)[0], "worse")
    v, _, rel = verdict([10.0] * 4, [12.0] * 4, "lower", 0.2)
    expect("relative change", (v, round(rel, 9)), ("within bound", 0.2))
    # A parent spread wider than the bound leaves the metric unresolved...
    wide = [5.0, 7.0, 9.0, 10.0, 11.0, 13.0, 15.0, 10.0, 8.0, 12.0]
    expect("unresolved", verdict(wide, list(reversed(wide)), "lower", 0.2)[0], "unresolved")
    # ...unless every change run beats every parent run.
    spread = [1.0, 2.0, 3.0, 10.0, 10.0, 10.0, 10.0, 17.0, 18.0, 19.0]
    expect("separated", verdict(spread, [0.5] * 10, "lower", 0.2)[:2],
           ("within bound", 10))
    expect("seeds", parse_seeds("61-63,70"), [61, 62, 63, 70])
    # The kernel addresses of a past A/B: 0xf4800 and 0xf37f0 read every
    # scaled metric 2-13% apart; the change padded to 0xf3800 tied.
    expect("moved kernel", placement_differs(0xf4800, 0xf37f0), True)
    expect("padded kernel", placement_differs(0xf4800, 0xf3800), False)
    print("perf_ab self-test: ok")


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git(*args, cwd=ROOT):
    return subprocess.run(["git"] + list(args), cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def run(root, workload, seed, seconds):
    """One untraced perfbench run, which builds its side first outside
    the timed region: (exit code, result dict or None)."""
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    try:
        return r.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return r.returncode, None


def fmt(x):
    return "%.4g" % x


def report(spec, workload, seeds, results):
    print("== %s (%d pairs, seeds %s)" % (workload, len(seeds),
                                         ",".join(map(str, seeds))))
    for m in spec["end_to_end"]:
        name = m["name"]
        parent = [results[("parent", s)]["metrics"][name]["value"] for s in seeds]
        change = [results[("change", s)]["metrics"][name]["value"] for s in seeds]
        v, wins, rel = verdict(parent, change, m["better"], m["bound"])
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        print("  %-11s parent %s [%s-%s]  change %s [%s-%s]  %+.1f%%  wins %d/%d  %s"
              % (name, fmt(pm), fmt(p1), fmt(p3), fmt(cm), fmt(c1), fmt(c3),
                 100 * rel, wins, len(seeds), v))
        print("  %-11s pairs %s" % ("", " ".join(
            "%s/%s" % (fmt(p), fmt(c)) for p, c in zip(parent, change))))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="git revision of the parent side")
    ap.add_argument("--workloads", help="comma-separated workload names")
    ap.add_argument("--seeds", default="61-70", help="e.g. 61-70 or 61,63")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        self_test()
        return
    if not a.parent or not a.workloads:
        ap.error("--parent and --workloads are required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    known = [w["name"] for w in spec["workloads"]]
    workloads = a.workloads.split(",")
    for w in workloads:
        if w not in known:
            ap.error("unknown workload %s (known: %s)" % (w, ", ".join(known)))
    seeds = parse_seeds(a.seeds)
    rev = git("rev-parse", "--verify", a.parent + "^{commit}")
    os.makedirs(os.path.join(ROOT, "_build", "perf_ab"), exist_ok=True)
    log_path = os.path.join(
        ROOT, "_build", "perf_ab",
        datetime.datetime.now().strftime("%Y%m%dT%H%M%S") + ".jsonl")
    tmp = tempfile.mkdtemp(prefix="perf_ab-")
    parent_root = os.path.join(tmp, "parent")
    git("worktree", "add", "--detach", parent_root, rev)
    failed = False
    try:
        roots = {"parent": parent_root, "change": ROOT}
        with open(log_path, "w") as log:
            for w in workloads:
                results = {}
                for i, seed in enumerate(seeds):
                    order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                    for side in order:
                        code, res = run(roots[side], w, seed, spec["run_seconds"])
                        log.write(json.dumps({"workload": w, "pair": i, "seed": seed,
                                              "side": side, "exit": code,
                                              "result": res}) + "\n")
                        log.flush()
                        if code != 0 or res is None or res.get("failed", 0) > 0:
                            print("perf_ab: %s run failed: workload %s seed %d exit %d%s"
                                  % (side, w, seed, code,
                                     "" if res is None else
                                     ", %d failed operations" % res.get("failed", 0)))
                            failed = True
                        else:
                            results[(side, seed)] = res
                    if failed:
                        break
                    if w == workloads[0] and i == 0:
                        report_placement(roots)
                if failed:
                    break
                report(spec, w, seeds, results)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", parent_root],
                       cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        print("perf_ab: results in %s" % os.path.relpath(log_path, ROOT))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
