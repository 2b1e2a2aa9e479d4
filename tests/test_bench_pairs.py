"""tools/bench_pairs.py: bytecode state of both checkouts, and verdicts.

A checkout holding compiled modules imports them, while one without
compiles every module in every child, which reads as a slower set-up, so
both checkouts are byte-compiled first.  Each end-to-end metric's verdict
is checked on synthetic pairs.
"""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compile_bytecode_covers_every_source_module(tmp_path):
    skip = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    sources = sorted((tmp_path / "src").rglob("*.py"))
    assert sources
    assert not any(tmp_path.rglob("*.pyc"))
    _bench_pairs().compile_bytecode(tmp_path)
    for path in sources + sorted((tmp_path / "perfbench").glob("*.py")):
        assert Path(importlib.util.cache_from_source(str(path))).is_file(), path


def _pairs(parent, change, failed=(0, 0), attempted=(1, 1)):
    """Pairs with the given run_s values; each run of the parent, then of
    the change, fails failed[i] of attempted[i] checks."""
    return [{"seed": seed,
             "parent": {"metrics": {"run_s": {"value": p}}, "failed": failed[0],
                        "attempted": attempted[0], "correct": True},
             "change": {"metrics": {"run_s": {"value": c}}, "failed": failed[1],
                        "attempted": attempted[1], "correct": True}}
            for seed, (p, c) in enumerate(zip(parent, change), 1)]


PARENT = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]


@pytest.mark.parametrize("change, bound, expected", [
    # 10/10 pairs won, medians 0.2 apart against a parent IQR of 0.025
    ([r - 0.2 for r in PARENT], 0.25, "gain"),
    # 9/10 pairs won is still a gain
    ([r - 0.2 for r in PARENT[:9]] + [1.5], 0.25, "gain"),
    # 8/10 pairs won is not, however far apart the medians are
    ([r - 0.2 for r in PARENT[:8]] + [1.5, 1.5], 0.25, "no worse"),
    # every pair won, but by less than the parent's IQR
    ([r - 0.005 for r in PARENT], 0.25, "no worse"),
    # median 30% worse against a bound of 25%
    ([r * 1.3 for r in PARENT], 0.25, "worse"),
    # median 3% worse against a bound of 5%
    ([r * 1.03 for r in PARENT], 0.05, "no worse"),
    # median 3% worse against a bound of 1%, although the parent's IQR
    # (2.5%) is wider than the bound: worse is decided first
    ([r * 1.03 for r in PARENT], 0.01, "worse"),
])
def test_verdicts_from_synthetic_pairs(change, bound, expected):
    bench_pairs = _bench_pairs()
    doc = bench_pairs.compare(_pairs(PARENT, change),
                              {"run_s": ("lower", bound)})
    assert doc["metrics"]["run_s"]["verdict"] == expected


@pytest.mark.parametrize("failed, attempted, expected", [
    # the change fails 500 of 10000 checks and the parent none
    ((0, 50), (1000, 1000), "no worse"),
    # the same share on both sides, over different check counts
    ((1, 2), (100, 200), "gain"),
    ((5, 5), (1000, 1000), "gain"),
    # a share just above the parent's
    ((1, 2), (100, 199), "no worse"),
    # fewer failures than the parent
    ((3, 0), (1000, 1000), "gain"),
])
def test_a_gain_needs_no_higher_failure_share(failed, attempted, expected):
    # every pair won by 0.2, so only the failure shares decide
    doc = _bench_pairs().compare(
        _pairs(PARENT, [r - 0.2 for r in PARENT], failed, attempted),
        {"run_s": ("lower", 0.25)})
    assert doc["metrics"]["run_s"]["verdict"] == expected
    assert doc["failed_checks"] == {"parent": 10 * failed[0],
                                    "change": 10 * failed[1]}


def test_unresolved_needs_a_wide_parent_and_overlapping_runs():
    bench_pairs = _bench_pairs()
    # median 1.1, IQR 0.65: wider than 25% of the median
    wide = [1.0, 1.6, 0.7, 1.4, 0.8, 1.5, 0.9, 1.3, 0.6, 1.2]
    for parent, change, better, expected in (
        (wide, [r * 0.98 for r in wide], "lower", "unresolved"),
        (wide, [r * 1.02 for r in wide], "higher", "unresolved"),
        # every change run (0.5 to 0.545) beats every parent run, although
        # the medians differ by less than the parent's IQR
        (wide, [0.5 + i * 0.005 for i in range(10)], "lower", "no worse"),
        # a narrow parent leaves nothing unresolved
        (PARENT, [r * 0.98 for r in PARENT], "lower", "no worse"),
        (PARENT, [r * 1.3 for r in PARENT], "higher", "gain"),
    ):
        assert bench_pairs.verdict(parent, change, better, 0.25) == expected


def test_per_layer_metrics_get_no_verdict():
    doc = _bench_pairs().compare(_pairs(PARENT, PARENT),
                                 {"run_s": ("lower", None)})
    assert "verdict" not in doc["metrics"]["run_s"]
    assert doc["metrics"]["run_s"]["wins"] == "0/10"


def test_attempted_checks_are_kept_per_run_beside_peak_rss():
    # the change fits more children into its seconds in some runs; the
    # ratio of the medians of attempted checks sits beside peak_rss_mb,
    # which grows with them, and nowhere else
    attempted = {"parent": [100, 120, 110, 90, 100],
                 "change": [130, 120, 140, 110, 150]}
    results = [{"seed": seed, **{side: {
        "metrics": {"peak_rss_mb": {"value": 20.0 + attempted[side][i] / 100},
                    "run_s": {"value": 1.0}},
        "failed": 0, "attempted": attempted[side][i], "correct": True}
        for side in ("parent", "change")}}
        for i, seed in enumerate(range(1, 6))]
    doc = _bench_pairs().compare(results, {"peak_rss_mb": ("lower", 0.05),
                                           "run_s": ("lower", 0.25)})
    assert doc["attempted_runs"] == attempted  # in seed order
    assert doc["attempted_checks"] == {"parent": 520, "change": 650}
    assert doc["metrics"]["peak_rss_mb"]["attempted_change_over_parent"] == 1.3
    assert "attempted_change_over_parent" not in doc["metrics"]["run_s"]
