"""Package hygiene: every name a module exports through __all__ exists,
so a deleted function cannot linger in an export list."""

from __future__ import annotations

import importlib
import pkgutil

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
