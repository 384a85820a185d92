"""The package's public surface: every name a module exports exists."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import kontact

MODULES = sorted(m.name for m in pkgutil.iter_modules(kontact.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"kontact.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"kontact.{name}.__all__ names missing attributes {missing}"
