"""The benchmark's tracer, ``perfbench/spans.py``, wraps library functions
by module and attribute name and reads a few fields off their results.
These checks read its target list, so a rename or deletion in the library
that would break ``perfbench/run.py --trace 1`` fails here first.  The
benchmark's own self-tests run here too."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from cachecomp.dualcert import run_greedydual_certified
from cachecomp.strategies import run
from cachecomp.trace import generate_random

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


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


def test_sweep_calls_the_cli_attributes_the_tracer_wraps(monkeypatch, tmp_path, capsys):
    # the tracer replaces these cli attributes; a handler that called its
    # own import of them would leave the sweep.* and trace.parse spans empty
    from cachecomp import cli

    wrapped = {a for m, a, _, _ in spans.TARGETS if m == "cli" and a != "main"}
    assert wrapped == {"parse_trace", "run_sweep", "count_violators", "table_to_csv"}
    calls = []
    for attr in sorted(wrapped):
        real = getattr(cli, attr)

        def recorder(*args, _real=real, _attr=attr, **kwargs):
            calls.append(_attr)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, attr, recorder)
    path = tmp_path / "t.txt"
    path.write_text("a\nb\nc\na\n", encoding="utf-8")
    argv = ["sweep", "--trace", str(path), "--n", "3", "--strategies", "lru,fifo",
            "--c-family", "log:4"]
    assert cli.main(argv) == 0
    assert "violators lru" in capsys.readouterr().out
    assert set(calls) == wrapped


def test_benchmark_selftest_passes():
    # its certificate-tamper cases export certificates with this library,
    # so a library change that breaks the benchmark's checks fails here
    done = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "selftest.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
