"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --seconds 30 --seeds 1-10 [--trace 1]
        [--workloads deep-n24,wide-n8] [--out perfbench/out/spread.json]

Runs `run.py` once per (seed, workload), seed-major so slow drift of the
host affects every workload alike, and prints per workload and metric the
median, the quartiles and the spread: the distance between the first and
third quartile, as statistics.quantiles(values, n=4) gives them, over the
median.  Writes every raw result to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import RUNNERS  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(RUNNERS))
    parser.add_argument("--out", type=Path, default=HERE / "out" / "spread.json")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    raw: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(seed=seed, wall_s=time.monotonic() - started)
            raw[w].append(result)
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"wall={result['wall_s']:.1f}s", file=sys.stderr)

    summary = {}
    for w, results in raw.items():
        names = results[0]["metrics"]
        summary[w] = {
            "correct": all(r["correct"] for r in results),
            "max_wall_s": max(r["wall_s"] for r in results),
            "metrics": {n: {"unit": results[0]["metrics"][n]["unit"],
                            **summarise([r["metrics"][n]["value"] for r in results])}
                        for n in names},
        }
        for n, s in summary[w]["metrics"].items():
            print(f"{w:11} {n:32} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.3f}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "seconds": args.seconds, "seeds": args.seeds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "machine": platform.machine(), "summary": summary, "raw": raw,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
