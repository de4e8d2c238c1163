"""Every name a package exports in ``__all__`` exists, so that
``from <package> import *`` cannot break on a stale entry."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize("module_name", ["ppkmsent", "ppkmsent.encoder"])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
