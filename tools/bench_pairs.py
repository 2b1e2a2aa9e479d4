"""Run the benchmark in alternating pairs on two checkouts and compare them.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \
        --seeds 1-10 --label NAME [--seconds 40] [--trace]

Before the first pair, `src/` and `perfbench/` are byte-compiled in both
checkouts, so neither side's children compile modules that the other
side's import from bytecode.  For each seed, `perfbench/run.py
--workload W --seed N --seconds S` runs once in each checkout, from that
checkout's own files: the parent first on odd seeds and the change first
on even ones, so a drift in host speed falls on both sides alike.  Every
run's result line is kept, and BENCH_<label>.json in the current
directory gets, per metric, each side's runs in seed order with their
median and quartiles, the change's median over the parent's, the
parent's quartile distance, and the pairs the change won (ties count for
neither side).  Which way is better comes from BENCHMARK.json in the
change's checkout; per-layer metrics (--trace) take theirs from
perfbench's own table.  Each end-to-end metric also gets a verdict
against its relative `bound` in BENCHMARK.json:

    gain        the change wins at least 9/10 of the pairs, the medians
                differ, in its favour, by more than the parent's quartile
                distance, and the change's share of failed checks (failed
                over attempted, summed over the pairs) is no higher than
                the parent's; a faster tree that fails more checks is no
                gain, and its metric reads "no worse" instead
    worse       the change's median is worse than the parent's by more
                than bound times the parent's median
    unresolved  the parent's quartile distance is more than bound times
                its median, and not every change run beats every parent run
    no worse    otherwise

Per-layer metrics have no bound and get no verdict.  Each side's
`attempted` checks are kept per run, in seed order, and `peak_rss_mb`
gets beside it the change's median of them over the parent's: a child
started by the harness inherits the harness's resident high-water mark,
which grows with the children it has run, so a tree that fits more
children into the same seconds reads as using more memory, and this
ratio shows how far such a rise follows the number of checks.  The file is
rewritten after every pair, and an existing one keeps its other workloads
and fields, so one file can collect several workloads from separate
invocations.
"""

from __future__ import annotations

import argparse
import compileall
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """"1-10" or "1,3,5" or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


COMPILED = ("src", "perfbench")


def compile_bytecode(checkout: Path) -> None:
    """Write the bytecode of every module under COMPILED in `checkout`."""
    for name in COMPILED:
        if not compileall.compile_dir(checkout / name, quiet=1):
            raise RuntimeError(f"{checkout / name}: byte-compiling failed")


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited "
                           f"{proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def directions(change: Path, trace: bool) -> dict[str, tuple[str, float | None]]:
    """Metric name -> ("lower" or "higher", whichever is better; its bound)."""
    if trace:
        sys.path.insert(0, str(change / "perfbench"))
        from tracing import PER_LAYER
        return {name: (better, None) for name, (_, better) in PER_LAYER.items()}
    spec = json.loads((change / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return {"median": round(statistics.median(runs), 6), "q1": round(q1, 6),
            "q3": round(q3, 6), "runs": [round(r, 6) for r in runs]}


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads better; ties count for neither side."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (c - p) < 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """"gain", "worse", "unresolved" or "no worse", as the module says."""
    sign = 1 if better == "lower" else -1
    median = statistics.median(parent)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else [median] * 3
    gap = sign * (statistics.median(change) - median)  # > 0: the change is worse
    if wins(parent, change, better) >= 0.9 * len(parent) and -gap > q3 - q1:
        return "gain"
    if gap > bound * abs(median):
        return "worse"
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if q3 - q1 > bound * abs(median) and not every_run_better:
        return "unresolved"
    return "no worse"


def compare(results: list[dict], better: dict[str, tuple[str, float | None]]) -> dict:
    """The workload entry of the BENCH file from its (parent, change) pairs."""
    failed, attempted = ({side: sum(pair[side][key] for pair in results)
                          for side in ("parent", "change")}
                         for key in ("failed", "attempted"))
    # failed / attempted of the change <= that of the parent, cross-multiplied
    fails_no_more = (failed["change"] * attempted["parent"]
                     <= failed["parent"] * attempted["change"])
    attempted_runs = {side: [pair[side]["attempted"] for pair in results]
                      for side in ("parent", "change")}
    names = [name for name in results[0]["parent"]["metrics"] if name in better]
    metrics = {}
    for name in names:
        sides = {side: [pair[side]["metrics"][name]["value"] for pair in results]
                 for side in ("parent", "change")}
        direction, bound = better[name]
        parent, change = summary(sides["parent"]), summary(sides["change"])
        metrics[name] = {
            "parent": parent,
            "change": change,
            "change_over_parent": (round(change["median"] / parent["median"], 4)
                                   if parent["median"] else None),
            "parent_iqr": round(parent["q3"] - parent["q1"], 6),
            "wins": f"{wins(sides['parent'], sides['change'], direction)}/{len(results)}",
        }
        if bound is not None:
            v = verdict(sides["parent"], sides["change"], direction, bound)
            metrics[name]["verdict"] = "no worse" if v == "gain" and not fails_no_more else v
        if name == "peak_rss_mb":
            runs = [statistics.median(attempted_runs[side]) for side in ("parent", "change")]
            metrics[name]["attempted_change_over_parent"] = (
                round(runs[1] / runs[0], 4) if runs[0] else None)
    return {
        "seeds": [pair["seed"] for pair in results],
        "failed_checks": failed,
        "attempted_checks": attempted,
        "attempted_runs": attempted_runs,
        "correct": all(pair[side]["correct"] for pair in results
                       for side in ("parent", "change")),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", action="store_true",
                        help="compare the per-layer metrics of traced runs")
    args = parser.parse_args()

    better = directions(args.change, args.trace)
    out = Path(f"BENCH_{args.label}.json")
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.update({
        "label": args.label,
        "host": {"machine": platform.machine(), "python": platform.python_version()},
        "pairs": ("parent and change alternate which runs first (odd seeds "
                  "parent first); one result line per run, each a median over "
                  "that run's fresh child interpreters; each side runs from "
                  "its own checkout"),
        "bytecode": (f"{' and '.join(COMPILED)} byte-compiled in both "
                     f"checkouts (compileall) before the first pair"),
        "statistic": ("median and quartiles (statistics.quantiles n=4) over "
                      "seeds; wins = pairs where the change reads better; "
                      "verdict per end-to-end metric as tools/bench_pairs.py "
                      "defines it"),
    })
    for checkout in (args.parent, args.change):
        compile_bytecode(checkout)
    section = doc.setdefault("workloads_traced" if args.trace else "workloads", {})
    results = []
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        pair = {"seed": seed}
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            pair[side] = run_once(checkout, args.workload, seed, args.seconds,
                                  args.trace)
            print(f"{args.workload} seed {seed} {side}: "
                  f"{json.dumps(pair[side])}", file=sys.stderr, flush=True)
        results.append(pair)
        section[args.workload] = {
            "command": (f"python3 perfbench/run.py --workload {args.workload} "
                        f"--seed N --seconds {args.seconds:g} "
                        f"--trace {int(args.trace)}"),
            **compare(results, better)}
        out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
