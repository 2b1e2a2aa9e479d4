"""tools/bench_pairs.py brings both checkouts to the same bytecode state.

A checkout holding compiled modules imports them, while one without
compiles every module in every child, which reads as a slower set-up.
"""

import importlib.util
import shutil
from pathlib import Path

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
