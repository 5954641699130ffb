"""cachecomp: trace-driven competitive analysis of paging and weighted caching.

Run online strategies, named by plain strings (LRU, FIFO,
flush-when-full, Balance, randomized marking, and the primal-dual
GreedyDual with a live optimality certificate, whose min-lowering also
runs Balance), compute exact offline optima, decompose traces into
k-phases, and sweep the server count to measure loose competitiveness.
All certificate arithmetic is exact (integers and rationals).

Every exported name loads its owner module on first access (PEP 562),
so ``import cachecomp`` compiles nothing else, and a CLI subcommand loads
only the layers it runs.  ``cachecomp.sweep`` is the ``sweep`` function,
also after the submodule of that name is imported.
"""

from __future__ import annotations

import importlib
import sys
import types

__version__ = "0.1.0"

# exported name -> the submodule that owns it
_OWNERS = {
    name: module
    for module, names in {
        "dualcert": (
            "CertifiedRun",
            "DualSolution",
            "check_feasibility",
            "check_feasibility_fast",
            "check_primal_dual_bound",
            "dual_cost",
            "export_certificate",
            "run_greedydual_certified",
            "write_certificate",
        ),
        "offline": (
            "InstanceSizeError",
            "OptSchedule",
            "opt_belady",
            "opt_bruteforce",
            "opt_flow",
            "opt_flow_profile",
            "opt_paging_profile",
            "opt_single_server",
        ),
        "phases": (
            "PhasePartition",
            "harmonic",
            "mark_upper_bound",
            "opt_phase_lower_bound",
            "partition",
            "verify_phase_shrink",
        ),
        "strategies": (
            "MAX_LOWER",
            "MIN_LOWER",
            "Event",
            "SimulationResult",
            "parse_strategy",
            "run",
        ),
        "sweep": (
            "RatioFamily",
            "SweepTable",
            "count_violators",
            "parse_family",
            "sweep",
            "table_to_csv",
        ),
        "trace": (
            "RequestTrace",
            "TraceDomainError",
            "TraceParseError",
            "generate_cyclic",
            "generate_random",
            "parse_trace",
            "serialize_trace",
        ),
    }.items()
    for name in names
}

__all__ = [*sorted(_OWNERS), "__version__"]


def __getattr__(name: str):
    module = _OWNERS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """Importing a submodule binds it as an attribute of the package; the
    ``sweep`` submodule would hide the exported ``sweep`` function, so its
    binding stores the function instead."""

    def __setattr__(self, name: str, value: object) -> None:
        if name == "sweep" and isinstance(value, types.ModuleType):
            value = value.sweep
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
