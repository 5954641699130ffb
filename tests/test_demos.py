"""Every demo prints exactly what it printed before: the sha256 of its
stdout is pinned.  Demo 01 runs flush-when-full on a weighted trace and
demo 04 prints phase statistics, so both pin those engines end to end.
The README's library quick start runs too, so it cannot rot."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "01_strategies_tour.py": "7ec9204a5ddd1513bc8e4baf4dace4ddba57bb1a3e679103cf88247b7d5df46e",
    "02_dual_certificate.py": "c71e1ccb04b12d48c863b5a76bf0e874044a2d7208f5f056fdf818052475b539",
    "03_offline_optimum.py": "41541a3108948d5fea1367cbd76257da408d1749c5aac5e2543a56491aadecd5",
    "04_phase_structure.py": "6fa1fe1652595cce04becf8c9720b8ba454b3c7e3444561e7c42bdfe5499c917",
    "05_loose_competitiveness.py": "562c80ae8faed7dbd79b05b6c44d66292516d619d9256fa887305d2d27fae443",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


def _run_python(args):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, timeout=120, check=False
    )
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output_is_unchanged(name):
    stdout = _run_python([str(ROOT / "demos" / name)])
    assert hashlib.sha256(stdout).hexdigest() == STDOUT_SHA256[name]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "sweep(" in block
    _run_python(["-c", block])
