import importlib
import pkgutil

import pytest

import cachecomp

MODULES = ["cachecomp"] + [
    f"cachecomp.{m.name}" for m in pkgutil.iter_modules(cachecomp.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)
