"""Package hygiene: every name a module exports through __all__ exists,
so a deleted function cannot linger in an export list, and every
function the benchmark's tracer hooks exists, so a renamed one fails
here rather than in a benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import zetafock

MODULES = sorted(m.name for m in pkgutil.iter_modules(zetafock.__path__))


def test_modules_are_found():
    assert {"catalog", "cli", "fock", "quadratic", "series", "voa"} <= set(MODULES)


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
