"""The suite's plan and CLI output, pinned byte for byte.

tests/data/suite_outputs.json was recorded before the identity table in
awlab.verify was introduced, from the four hand-written tables it
replaced.  It holds the stdout and exit code of `awlab verify` at the p8
point with --trials 2 at nmax 0..3, under each fault at nmax 3, and in
JSON at nmax 2, plus suite_plan(N) for N = 0..12 with and without the
negative controls.  Together these pin every family's index range, the
horizons at which the controls start, and the SKIP lines, none of which
the behavioural tests look at.

tests/data/negative_q_outputs.json holds the stdout and exit code of
`awlab verify --json` at a point with q = -2/3 at nmax 12, clean and
under each fault.  A negative q makes the operator kernels form negative
unreduced denominators, so this pins every witness where a sign slip in
their reduction would show.
"""

import json
from pathlib import Path

import pytest

from awlab.cli import main
from awlab.verify import suite_plan

DATA = Path(__file__).parent / "data"
FIXTURE = json.loads((DATA / "suite_outputs.json").read_text())
NEGATIVE_Q = json.loads((DATA / "negative_q_outputs.json").read_text())


def _assert_output(case, capsys, monkeypatch):
    monkeypatch.delenv("AWLAB_SEED", raising=False)
    rc = main(case["argv"])
    out, err = capsys.readouterr()
    assert (rc, err) == (case["exit"], "")
    assert out == case["stdout"]


@pytest.mark.parametrize("case", FIXTURE["commands"],
                         ids=lambda case: " ".join(case["argv"][4:]))
def test_verify_output_is_byte_identical(case, capsys, monkeypatch):
    _assert_output(case, capsys, monkeypatch)


@pytest.mark.parametrize("case", NEGATIVE_Q["commands"],
                         ids=lambda case: " ".join(case["argv"][4:]))
def test_negative_q_output_is_byte_identical(case, capsys, monkeypatch):
    _assert_output(case, capsys, monkeypatch)


@pytest.mark.parametrize("negative_controls", [True, False])
def test_suite_plan_matches_fixture(negative_controls):
    key = "with_controls" if negative_controls else "without_controls"
    recorded = FIXTURE["suite_plan"][key]
    assert len(recorded) == 13
    for n_max, plan in enumerate(recorded):
        expected = [(i, None if ns is None else tuple(ns)) for i, ns in plan]
        planned = suite_plan(n_max)
        if not negative_controls:
            planned = [row for row in planned
                       if not row[0].startswith("control-")]
        assert planned == expected, n_max
