import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def run_fresh(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter, started with the interpreter
    ``flags``, that imports this checkout's package."""
    src = str(Path(cachecomp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )


def assert_fresh(code: str) -> None:
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "first",
    [
        "import cachecomp.sweep",
        "from cachecomp.sweep import count_violators",
        "from cachecomp import sweep",
        "from cachecomp import count_violators, sweep",
        "import cachecomp; cachecomp.table_to_csv",
    ],
)
def test_sweep_is_the_function_in_every_import_order(first):
    assert_fresh(
        f"{first}\n"
        "import sys, cachecomp\n"
        "module = sys.modules['cachecomp.sweep']\n"
        "assert cachecomp.sweep is module.sweep, cachecomp.sweep\n"
        "from cachecomp import sweep\n"
        "assert sweep is module.sweep\n"
        "import cachecomp.sweep as again\n"
        "assert again is module.sweep"
    )


def test_lazy_names_are_their_owners_objects():
    assert_fresh(
        "import importlib, sys, cachecomp\n"
        "assert set(cachecomp._OWNERS) | {'__version__'} == set(cachecomp.__all__)\n"
        "for name, owner in cachecomp._OWNERS.items():\n"
        "    value = getattr(cachecomp, name)\n"
        "    assert value is getattr(importlib.import_module('cachecomp.' + owner), name), name\n"
        "    assert getattr(cachecomp, name) is value, name"
    )


def test_import_loads_no_submodule_and_a_name_only_its_owner():
    assert_fresh(
        "import sys, cachecomp\n"
        "loaded = lambda: [m for m in sys.modules if m.startswith('cachecomp.')]\n"
        "assert loaded() == []\n"
        "cachecomp.parse_trace\n"
        "assert loaded() == ['cachecomp.trace']"
    )


def test_submodules_still_import_by_name():
    assert_fresh(
        "from cachecomp import offline, dualcert\n"
        "import types\n"
        "assert isinstance(offline, types.ModuleType) and offline.__name__ == 'cachecomp.offline'\n"
        "assert dualcert.__name__ == 'cachecomp.dualcert'"
    )


def test_dir_lists_all_exports():
    assert_fresh("import cachecomp\nassert set(cachecomp.__all__) <= set(dir(cachecomp))")


def test_unknown_name():
    assert_fresh(
        "import cachecomp\n"
        "try:\n"
        "    cachecomp.nope\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
        "try:\n"
        "    from cachecomp import nope\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no ImportError')"
    )
