"""cachecomp: trace-driven competitive analysis of paging and weighted caching.

Run online strategies, named by plain strings (LRU, FIFO,
flush-when-full, Balance, randomized marking, and the primal-dual
GreedyDual with a live optimality certificate, whose min-lowering also
runs Balance), compute exact offline optima, decompose traces into
k-phases, and sweep the server count to measure loose competitiveness.
All certificate arithmetic is exact (integers and rationals).
"""

from .dualcert import (
    CertifiedRun,
    DualSolution,
    check_feasibility,
    check_feasibility_fast,
    check_primal_dual_bound,
    dual_cost,
    export_certificate,
    run_greedydual_certified,
    write_certificate,
)
from .offline import (
    InstanceSizeError,
    OptSchedule,
    opt_belady,
    opt_bruteforce,
    opt_flow,
    opt_flow_profile,
    opt_paging_profile,
    opt_single_server,
)
from .phases import (
    PhasePartition,
    harmonic,
    mark_upper_bound,
    opt_phase_lower_bound,
    partition,
    verify_phase_shrink,
)
from .strategies import (
    MAX_LOWER,
    MIN_LOWER,
    Event,
    SimulationResult,
    parse_strategy,
    run,
    run_greedydual,
)
from .sweep import (
    RatioFamily,
    SweepTable,
    count_violators,
    parse_family,
    sweep,
    table_to_csv,
    violator_bound_check,
)
from .trace import (
    RequestTrace,
    TraceDomainError,
    TraceParseError,
    generate_cyclic,
    generate_random,
    parse_trace,
    serialize_trace,
)

__version__ = "0.1.0"

__all__ = [
    "CertifiedRun",
    "DualSolution",
    "Event",
    "InstanceSizeError",
    "MAX_LOWER",
    "MIN_LOWER",
    "OptSchedule",
    "PhasePartition",
    "RatioFamily",
    "RequestTrace",
    "SimulationResult",
    "SweepTable",
    "TraceDomainError",
    "TraceParseError",
    "check_feasibility",
    "check_feasibility_fast",
    "check_primal_dual_bound",
    "count_violators",
    "dual_cost",
    "export_certificate",
    "generate_cyclic",
    "generate_random",
    "harmonic",
    "mark_upper_bound",
    "opt_belady",
    "opt_bruteforce",
    "opt_flow",
    "opt_flow_profile",
    "opt_paging_profile",
    "opt_phase_lower_bound",
    "opt_single_server",
    "parse_family",
    "parse_strategy",
    "parse_trace",
    "partition",
    "run",
    "run_greedydual",
    "run_greedydual_certified",
    "serialize_trace",
    "sweep",
    "table_to_csv",
    "verify_phase_shrink",
    "violator_bound_check",
    "write_certificate",
    "__version__",
]
