#!/usr/bin/env python3
"""Paired benchmark gate: HEAD against a parent revision.

    python3 bench/perf_gate.py PARENT_REV

Checks PARENT_REV out in the git worktree .perfgate/parent and HEAD in
.perfgate/change (both removed on exit), so the two sides build and run
from paths of the same length, and runs 5 pairs of 3-second
`python3 perfbench/run.py` runs of replay_quadrangle, replay_nsfnet and
compile, one run of each pair in each checkout.  Pair k uses seed k on
both sides; odd pairs run the parent first, even pairs the change.

Exits 2 when tracked files have uncommitted changes, since the gate
measures HEAD and would silently leave them out.  Also exits 2, naming
the side and workload, when a run fails, prints no result, reports
"correct": false or a failed operation; 1, naming the
workload, when the change's median time_p50_ref is more than 15% above
the parent's and the change is slower in at least 4 of the 5 pairs.

The gate reads time_p50_ref, the ratio of each operation to a
list-sorting reference kernel timed in the same process.  That kernel's
speed still follows what the program keeps on its heap: when traces
lost their per-call records, the replay ratio read +15.7% while the
operations themselves got faster.  A reading near the threshold should
be checked against the raw op_ms of a traced run (--trace 1).
"""

import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["replay_quadrangle", "replay_nsfnet", "compile"]
PAIRS = 5
SECONDS = 3
THRESHOLD = 1.15
SLOWER_PAIRS = 4

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARENT_DIR = os.path.join(ROOT, ".perfgate", "parent")
CHANGE_DIR = os.path.join(ROOT, ".perfgate", "change")


class RunFailed(Exception):
    pass


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run(side, checkout, workload, seed):
    """One run's time_p50_ref; RunFailed names the side and workload."""
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS)],
        cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if p.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(p.stderr[-4000:])
        raise RunFailed(f"{side} {workload} seed {seed}: exit code "
                        f"{p.returncode}, no result")
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RunFailed(f"{side} {workload} seed {seed}: correct "
                        f"{result.get('correct')}, failed {result.get('failed')}")
    return result["metrics"]["time_p50_ref"]["value"]


def gate(workload):
    """Runs the pairs of one workload; True when the change is slower."""
    print(workload)
    parent, change = [], []
    for k in range(1, PAIRS + 1):
        sides = [("parent", PARENT_DIR, parent), ("change", CHANGE_DIR, change)]
        for side, checkout, readings in sides if k % 2 else sides[::-1]:
            readings.append(run(side, checkout, workload, k))
        print(f"  pair {k} (seed {k}, {'parent' if k % 2 else 'change'} first): "
              f"parent {parent[-1]:.3f}  change {change[-1]:.3f}")
    p50_parent = statistics.median(parent)
    p50_change = statistics.median(change)
    ratio = p50_change / p50_parent
    slower = sum(c > p for p, c in zip(parent, change))
    print(f"  median: parent {p50_parent:.3f}  change {p50_change:.3f}  "
          f"ratio {ratio:.3f}  change slower in {slower} of {PAIRS} pairs")
    return ratio > THRESHOLD and slower >= SLOWER_PAIRS


def main():
    sys.stdout.reconfigure(line_buffering=True)
    if len(sys.argv) != 2:
        print("usage: python3 bench/perf_gate.py PARENT_REV", file=sys.stderr)
        return 2
    try:
        rev = git("rev-parse", "--verify", sys.argv[1] + "^{commit}")
    except subprocess.CalledProcessError:
        print(f"perf_gate: {sys.argv[1]} is not a commit", file=sys.stderr)
        return 2
    if git("status", "--porcelain", "--untracked-files=no"):
        print("perf_gate: tracked files have uncommitted changes; commit "
              "them, the gate measures HEAD", file=sys.stderr)
        return 2
    head = git("rev-parse", "HEAD")
    checkouts = [(PARENT_DIR, rev), (CHANGE_DIR, head)]
    for checkout, _ in checkouts:
        if os.path.isdir(checkout):
            git("worktree", "remove", "--force", checkout)
    git("worktree", "prune")
    try:
        for checkout, commit in checkouts:
            git("worktree", "add", "--detach", checkout, commit)
        print(f"perf_gate: parent {rev[:12]} against HEAD {head[:12]}, "
              f"{PAIRS} pairs of {SECONDS} s runs")
        slower = [w for w in WORKLOADS if gate(w)]
    except RunFailed as e:
        print(f"perf_gate: run failed: {e}", file=sys.stderr)
        return 2
    finally:
        for checkout, _ in checkouts:
            if os.path.isdir(checkout):
                git("worktree", "remove", "--force", checkout)
        os.rmdir(os.path.dirname(PARENT_DIR))
    for w in slower:
        print(f"perf_gate: {w}: median more than {THRESHOLD - 1:.0%} above the "
              f"parent's, slower in {SLOWER_PAIRS}+ of {PAIRS} pairs", file=sys.stderr)
    return 1 if slower else 0


if __name__ == "__main__":
    sys.exit(main())
