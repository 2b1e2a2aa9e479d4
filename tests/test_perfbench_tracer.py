"""The benchmark's tracer still instruments the package.

perfbench/tracing.py wraps awlab's functions from outside, by name, so a
refactor that renames or stops binding one of them breaks the traced
benchmark without touching anything else.  The tracer patches module
globals and LaurentPoly itself, so it runs in a child interpreter.  The
workloads, like the README's Library example, import from the package
itself, so every name they import from `awlab` must stay exported there.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import awlab.cli
from tracing import SPANNED, Recorder

def bound():
    return {f"{layer}.{name}": getattr(sys.modules["awlab." + layer], name)
            for layer, names in SPANNED.items() for name in names}

before = bound()
recorder = Recorder("tier1")
recorder.instrument()
after = bound()
p = awlab.check_genericity(*map(awlab.scalars.parse_scalar,
                                ("1/2", "1/3", "1/5", "1/7", "1/11")), 3)
reports = awlab.run_suite(p, trials=2, seed=7)
_, calls = recorder.self_times()
print(json.dumps({
    "unwrapped": sorted(k for k in before if after[k] is before[k]),
    "vacuous": recorder.trial_checks_without_hecke(),
    "failed": [r.identity_id for r in reports if not r.passed],
    "checks": len(reports),
    "calls": dict(calls),
}))
"""


def test_tracer_instruments_every_spanned_name():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    result = json.loads(done.stdout)
    assert result["unwrapped"] == []
    assert result["vacuous"] == []
    assert result["failed"] == []
    assert result["checks"] > 0
    # the wrappers really sit on the call paths the suite takes
    for name in ("verify.run_suite", "polynomials.askey_wilson_P",
                 "polynomials.nonsymmetric_E", "hecke.apply_Y",
                 "laurent.exact_quotient", "verify.check_hecke_relations",
                 "verify.check_factorization", "verify.check_bridge_identity"):
        assert result["calls"].get(name, 0) > 0, name


def _names_from_awlab(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "awlab"
            for alias in node.names}


def test_names_imported_from_the_package_resolve():
    sources = [path.read_text() for path in (ROOT / "perfbench").glob("*.py")]
    readme = (ROOT / "README.md").read_text().split("## Library", 1)[1]
    sources.append(readme.split("```python\n", 1)[1].split("```", 1)[0])
    names = set().union(*map(_names_from_awlab, sources))
    assert {"run_suite", "FAULT_TARGETS", "check_genericity", "apply_D"} <= names
    unresolved = []
    for name in sorted(names):
        try:
            exec(f"from awlab import {name}", {})
        except ImportError:
            unresolved.append(name)
    assert unresolved == []
