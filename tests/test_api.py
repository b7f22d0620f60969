"""The package's exported names."""

from __future__ import annotations

import importlib
import pkgutil

import negcontrol


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # ``from negcontrol.<module> import *``
    modules = [negcontrol] + [
        importlib.import_module(f"negcontrol.{info.name}")
        for info in pkgutil.iter_modules(negcontrol.__path__)
    ]
    assert len(modules) > 5
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
