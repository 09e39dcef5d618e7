"""Packaging metadata: exported names and declared entry points resolve."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import droopsched

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
MODULES = sorted(m.name for m in pkgutil.iter_modules(droopsched.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"droopsched.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"droopsched.{name}.__all__ names missing attributes: {missing}"


def test_console_scripts_resolve_to_callables():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for script, target in scripts.items():
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{script} = {target!r} is not a callable"
