#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the benchmark
(perfbench/arnbench.exe) and the arn executable from source with dune,
runs the workload, and prints the benchmark's JSON result as the last
line of standard output.  Exits nonzero without a result when the
checkout is incomplete, the build fails, or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = [
    "replay_quadrangle",
    "replay_nsfnet",
    "compile",
    "daemon_line",
    "daemon_binary",
]
EXE = os.path.join("_build", "default", "perfbench", "arnbench.exe")
ARN = os.path.join("_build", "default", "bin", "arn.exe")
RUN_DIR = ".perfbench"
# a run measures for --seconds plus set-up and wind-down; past this it
# is stopped, so a hung daemon cannot hold the caller for long
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    for need in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            return fail(f"{need} is missing: run from the root of a full source checkout", 2)
    if shutil.which("dune") is None:
        return fail("dune is not on PATH", 2)

    build = subprocess.run(
        ["dune", "build", "--root", ".", "./" + EXE, "./" + ARN],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        return fail("build failed", 3)

    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [
        "./" + EXE,
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--arn", ARN,
    ]
    # The benchmark runs on one CPU, so the reference kernel and the
    # operation it scales are timed on the same core.  The daemon it
    # starts gets another CPU of its own, as a deployment would pin it.
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1 and shutil.which("taskset"):
        cmd += ["--daemon-cpu", str(cpus[1])]
    # its own process group, so a timeout also stops the daemon it starts
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpus[0]}),
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return fail(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)

    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        return fail(f"{a.workload} exited with code {proc.returncode}", 5)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(out)
        return fail("the last output line is not JSON", 5)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return fail("result has the wrong keys", 5)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
