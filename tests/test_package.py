"""Package hygiene: every name a module exports through __all__ exists,
so a deleted function cannot linger in an export list, every function
the benchmark's tracer hooks exists, so a renamed one fails here rather
than in a benchmark run, and the command line imports only what the
checks run."""

from __future__ import annotations

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import zetafock

MODULES = sorted(m.name for m in pkgutil.iter_modules(zetafock.__path__))


def test_modules_are_found():
    assert {"catalog", "cli", "fock", "quadratic", "scalars", "series", "voa"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"zetafock.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_benchmark_hooks_resolve():
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert [name for name, module, attr in spans.SPANS if spans._resolve(module, attr) is None] == []
    for _, module, attr in spans.CACHES:
        assert hasattr(spans._resolve(module, attr)[2], "cache_info"), attr
    assert spans._resolve("catalog", "CATALOG_IDS") is not None


def test_cli_import_leaves_out_the_oracle_modules():
    # a fresh interpreter: what the cli import adds to a bare one's modules
    code = (
        "import sys; bare = set(sys.modules); import zetafock.cli; "
        "print(*sorted(set(sys.modules) - bare))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    added = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "zetafock.cli" in added
    assert [m for m in ("zetafock.series", "zetafock.calculus", "dataclasses") if m in added] == []
