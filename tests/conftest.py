"""Shared fixtures and the acceptance summary hook.

tests/test_acceptance.py holds one test per acceptance criterion.  After
the run, a terminal section lists every criterion that was exercised with
a single PASS or FAIL line, so the verdict is readable without scanning
the full pytest output.
"""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from awlab.scalars import check_genericity, random_param_sets


@pytest.fixture(scope="session")
def p8():
    """Reference parameter point used throughout the unit tests."""
    return check_genericity(
        Fraction(1, 2), Fraction(1, 3), Fraction(1, 5),
        Fraction(1, 7), Fraction(1, 11), 8,
    )


@pytest.fixture(scope="session")
def seeded_points():
    """Five certified random points with horizon 9, fixed seed."""
    return random_param_sets(42, 5, 9)


_CRITERIA = {
    1: "terminating-sum P matches the eigenvector construction",
    2: "q-difference and Y eigenrelations hold exactly",
    3: "raising/lowering through the q-difference operator",
    4: "raising/lowering through the Hecke ladder",
    5: "Hecke relations, inverses, commutations, factorization",
    6: "symmetrization, projection and intertwiner proportionality",
    7: "scalar compatibility and the bridge identity",
    8: "fault injection flips exactly the dependent checks",
    9: "byte-identical reruns and runtime budget",
}

_ACCEPT_NODE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    seen: dict[int, list[str]] = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            match = _ACCEPT_NODE.search(getattr(report, "nodeid", ""))
            if match is not None:
                seen.setdefault(int(match.group(1)), []).append(status)
    if not seen:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(seen):
        verdict = "PASS" if all(s == "passed" for s in seen[num]) else "FAIL"
        label = _CRITERIA.get(num, "unknown criterion")
        terminalreporter.write_line(f"criterion {num} ({label}): {verdict}")
