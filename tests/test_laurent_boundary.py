"""LaurentPoly's storage format stays behind the laurent module.

A LaurentPoly keeps integer numerators from its lowest degree up over one
denominator, in the slots below.  Every other module of src/awlab goes
through the class's methods, `combination` and the kernels, so the format
can change in laurent.py alone.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STORAGE_SLOTS = {"_lo", "_num", "_den", "_canonical"}


def storage_reads(path: Path) -> list[str]:
    """`file:line .attr` for each read of a storage slot in the file."""
    return [f"{path.name}:{node.lineno} .{node.attr}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in STORAGE_SLOTS]


def test_only_laurent_reads_the_storage_slots():
    sources = sorted((ROOT / "src" / "awlab").glob("*.py"))
    outside = [read for path in sources if path.name != "laurent.py"
               for read in storage_reads(path)]
    assert outside == []
    # the scan sees the slots where they are read
    assert {read.rsplit(".", 1)[1] for read in
            storage_reads(ROOT / "src" / "awlab" / "laurent.py")} == STORAGE_SLOTS
