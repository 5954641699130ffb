"""The benchmark's tracer, ``perfbench/spans.py``, wraps library functions
by module and attribute name and reads a few fields off their results.
These checks read its target list, so a rename or deletion in the library
that would break ``perfbench/run.py --trace 1`` fails here first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from cachecomp.dualcert import run_greedydual_certified
from cachecomp.strategies import run
from cachecomp.trace import generate_random

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()
COUNTS = {name: counts for _, _, name, counts in spans.TARGETS if counts}


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in spans.TARGETS])
def test_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"cachecomp.{module}"), attr))


def test_certified_run_counts():
    t = generate_random(8, 60, 9, seed=1)
    cert = run_greedydual_certified(t, 3)
    got = COUNTS["dualcert.certified"]((t, 3), {}, cert)
    assert got == {"history_steps": len(t), "relabels": len(cert.relabels)}
    assert got["relabels"] > 0


def test_strategy_run_counts():
    t = generate_random(8, 60, 9, seed=1)
    got = COUNTS["strategies.run"](("fwf", 3, t), {}, run("fwf", 3, t))
    assert got["strategy"] == "fwf" and got["requests"] == len(t)
    assert got["events"] == len(t) + got["moves"]  # a flush adds a free event
