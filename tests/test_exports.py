"""Every name a module exports resolves, so that a name removed from a
module but left in its ``__all__`` cannot break ``from agecurve import *``."""

import importlib

import pytest

LAYERS = ("dataset", "design", "wls", "models", "shape", "simulate", "render")


@pytest.mark.parametrize("module", ["agecurve", *(f"agecurve.{layer}" for layer in LAYERS)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
