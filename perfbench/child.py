"""Run one workload once, in this fresh interpreter, and print one JSON line.

    python3 perfbench/child.py --workload NAME --seed N [--trace] [--setup-only]

The awlab package is imported from the checkout's src/ directory.  A thin
wrapper around run_suite records when the first check starts (set-up ends)
and how long the suites take; with --setup-only the run stops there.  With
--trace the layers are instrumented (tracing.py), the spans are written to
perfbench/out/<workload>.spans.jsonl, and the per-layer metrics are added
to the output.  The CLI's stdout is captured in memory, never printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class SetupDone(Exception):
    """Raised at the first run_suite call of a --setup-only run."""


class SuiteClock:
    """Times every run_suite call: first entry, and total time inside."""

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.first_check = None
        self.suite_s = 0.0

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            started = time.monotonic()
            if self.first_check is None:
                self.first_check = started
            if self.setup_only:
                raise SetupDone
            try:
                return fn(*args, **kwargs)
            finally:
                self.suite_s += time.monotonic() - started
        return timed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import awlab
    import awlab.cli  # noqa: F401  (loads every layer before instrumenting)

    if Path(awlab.__file__).resolve().parent != SRC / "awlab":
        raise SystemExit(f"imported awlab from {awlab.__file__}, not from {SRC}")

    from tracing import Recorder, rebind
    from workloads import RUNNERS

    recorder = None
    if args.trace:
        recorder = Recorder(uuid.uuid4().hex)
        recorder.instrument()
    clock = SuiteClock(args.setup_only)
    run_suite = sys.modules["awlab.verify"].run_suite
    rebind(run_suite, clock.wrap(run_suite))

    try:
        result = RUNNERS[args.workload](args.seed)
    except SetupDone:
        result = {}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update({
        "first_check": clock.first_check,
        "suite_s": clock.suite_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    })
    if recorder is not None:
        outcomes = [o for suite in result["suites"] for o in suite["outcomes"]]
        result["vacuous"] = recorder.trial_checks_without_hecke()
        result["layers"] = recorder.layer_metrics(
            result["stdout_bytes"], len(outcomes),
            sum(not passed for _, _, passed in outcomes))
        recorder.write(HERE / "out" / f"{args.workload}.spans.jsonl",
                       {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
