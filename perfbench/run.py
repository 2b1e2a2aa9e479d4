"""awlab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measured run of the workload is a
fresh interpreter (perfbench/child.py), started one at a time, so awlab's
module-level caches start cold in each.  Runs repeat until --seconds is
used up (at least MIN_RUNS of them) and every metric is the median over
runs.  The last line of stdout is one JSON object:

    {"correct": bool, "attempted": checks, "failed": checks, "metrics": {...}}

`failed` counts checks whose outcome differs from the expected one (see
workloads.wrong_checks); a crashed or timed-out child counts all of its
checks as failed.

Times are given at reference host speed.  The speed of a shared host
drifts: on a 2-CPU Xeon VM (2.1 GHz) one child's wall time varied from
3.0 s to 4.9 s over five minutes, CPU time tracked it, and the drift was
independent between the two CPUs.  So the benchmark pins itself and its
children to one CPU, times a fixed stdlib Fraction computation there
(`reference`) before and after each child, and multiplies the child's
times by REFERENCE_S over the mean of those two timings.  On that host
this cut the spread of one input's run time from 15% to 6%.  Work that is
spread over several CPUs gains nothing here, by design.

--trace 0 reports the end-to-end metrics:
    run_s         wall time of one child, spawn to exit
    cpu_s         CPU time of that child
    checks_per_s  checks completed per second inside run_suite
    setup_s       spawn to first check (import plus certification), the
                  median over SETUP_PROBES set-up-only children and the runs
    peak_rss_mb   peak resident memory of the child
--trace 1 alternates untraced and traced children and reports the
per-layer metrics of the traced ones (tracing.py); trace.overhead_frac is
the traced median run_s over the untraced one, minus 1, and
host.reference_s the median raw reference timing.  A traced run whose
trial-based checks applied no operator counts as wrong, and so does one
whose per-layer counts differ from the first traced run's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import NMAX, RUNNERS, expected_suites, wrong_checks  # noqa: E402

MIN_RUNS = 2
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150
#: reference() on an unloaded CPU of the baseline host (2.1 GHz Xeon VM).
REFERENCE_S = 0.125


class ProgramMissing(RuntimeError):
    """The checkout holds no runnable awlab."""


def reference() -> float:
    """Seconds a fixed big-rational computation takes on this CPU right now."""
    started = time.perf_counter()
    for _ in range(10):
        x, total = Fraction(17, 31), Fraction(0)
        for k in range(1, 400):
            x = x * Fraction(29, 23) - Fraction(k, 19)
            total += x / (k + 1)
    return time.perf_counter() - started


def spawn(workload: str, seed: int, *, trace: bool = False,
          setup_only: bool = False) -> dict | None:
    """Run one child; its JSON result plus wall and set-up time, or None."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k != "AWLAB_SEED"}
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: child timed out after {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    wall = time.monotonic() - started
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"{workload}: child exited {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = wall
    result["setup_s"] = result["first_check"] - started
    return result


def plan_count(nmax: int) -> int:
    """Checks one clean suite reports at this horizon, per suite_plan."""
    from awlab.verify import suite_plan

    return sum(1 if ns is None else len(ns) for _, ns in suite_plan(nmax))


class Run:
    """The children of one benchmark run and the checks they got wrong."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.per_suite = plan_count(NMAX[workload])
        self.suites = expected_suites(workload)
        self.children: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.last_reference = reference()

    def child(self, *, trace: bool = False, setup_only: bool = False) -> dict | None:
        """Spawn one child between two reference timings; add its speed factor."""
        before = self.last_reference
        result = spawn(self.workload, self.seed, trace=trace, setup_only=setup_only)
        self.last_reference = reference()
        if result is not None:
            result["reference_s"] = (before + self.last_reference) / 2
            result["speed"] = REFERENCE_S / result["reference_s"]
            result["traced"] = trace
        return result

    def add(self, result: dict | None) -> None:
        per_child = self.per_suite * self.suites
        self.attempted += per_child
        if result is None:
            self.failed += per_child
            return
        missing = max(self.suites - len(result["suites"]), 0)
        wrong = wrong_checks(result, self.per_suite) + missing * self.per_suite
        result["wrong"] = min(per_child, wrong)
        self.failed += result["wrong"]
        self.children.append(result)

    def flag(self, result: dict, why: str) -> None:
        """Count every check of an already added child as wrong."""
        print(f"{self.workload}: {why}", file=sys.stderr)
        self.failed += self.per_suite * self.suites - result["wrong"]
        self.children.remove(result)

    def check_stdout_identical(self) -> None:
        shas = Counter(c["stdout_sha256"] for c in self.children
                       if "stdout_sha256" in c)
        if len(shas) > 1:
            usual = shas.most_common(1)[0][0]
            for c in [c for c in self.children
                      if c.get("stdout_sha256", usual) != usual]:
                self.flag(c, "CLI stdout differs between repetitions")


def measure(run: Run, seconds: float, plan: list[bool], at_least: int) -> None:
    """Start children, traced or not by cycling `plan`, until time is up.

    A child is started only while the time left fits another one as long
    as the last, so a run ends close to `seconds`.
    """
    started = time.monotonic()
    last = 0.0
    i = 0
    while i < at_least or time.monotonic() - started + last <= seconds:
        t0 = time.monotonic()
        run.add(run.child(trace=plan[i % len(plan)]))
        last = time.monotonic() - t0
        i += 1


def at_speed(children: list[dict], key: str) -> float:
    """Median over children of a time, at reference host speed."""
    return statistics.median(c[key] * c["speed"] for c in children)


def end_to_end(run: Run, seconds: float) -> dict:
    probes = [run.child(setup_only=True) for _ in range(SETUP_PROBES)]
    if None in probes:
        raise ProgramMissing("set-up failed")
    measure(run, seconds, [False], MIN_RUNS)
    run.check_stdout_identical()
    kids = run.children
    if not kids:
        return {}
    checks = run.per_suite * run.suites
    return {
        "run_s": (at_speed(kids, "run_s"), "s"),
        "cpu_s": (at_speed(kids, "cpu_s"), "s"),
        "checks_per_s": (checks / at_speed(kids, "suite_s"), "1/s"),
        "setup_s": (at_speed(probes + kids, "setup_s"), "s"),
        "peak_rss_mb": (statistics.median(c["maxrss_kb"] / 1024 for c in kids), "MB"),
    }


def per_layer(run: Run, seconds: float) -> dict:
    measure(run, seconds, [False, True], 2)
    run.check_stdout_identical()
    traced = [c for c in run.children if c["traced"]]
    plain = [c for c in run.children if not c["traced"]]
    for c in list(traced):
        if c["vacuous"]:
            run.flag(c, f"trial-based checks applied no operator: {c['vacuous']}")
            traced.remove(c)
    if not traced or not plain:
        return {}
    counts = {k: v for k, v in traced[0]["layers"].items()
              if PER_LAYER[k][0] != "s"}
    for c in traced[1:]:
        if {k: c["layers"][k] for k in counts} != counts:
            run.flag(c, "per-layer counts differ between traced runs")
            traced.remove(c)
    metrics = {name: (counts[name] if name in counts else
                      statistics.median(c["layers"][name] * c["speed"] for c in traced),
                      PER_LAYER[name][0])
               for name in traced[0]["layers"]}
    overhead = at_speed(traced, "run_s") / at_speed(plain, "run_s") - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["host.reference_s"] = (
        statistics.median(c["reference_s"] for c in run.children), "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="awlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "awlab" / "__init__.py").is_file():
        print(f"error: no awlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed)
    try:
        if args.trace:
            metrics = per_layer(run, args.seconds)
        else:
            metrics = end_to_end(run, args.seconds)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
