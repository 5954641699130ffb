"""Spans around cachecomp's public functions, recorded from outside the library.

``install`` replaces each function under the name its callers look it up
by (``cachecomp.sweep.run`` as well as ``cachecomp.strategies.run``) with a
wrapper that records one span per call: name, start, end, parent span and
a few counts read off the arguments or the result.  Spans stay in memory
and the child process writes them out when the job ends.  The rest of this
module turns the spans of a run into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import defaultdict


def now() -> float:
    """CLOCK_MONOTONIC is shared by all processes, so parent and child times compare."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _strategy_counts(args, kwargs, result) -> dict:
    spec, _, trace = args[:3]  # every caller passes (strategy, k, trace) positionally
    kinds = [e.kind for e in result.events]
    return {
        "strategy": str(spec).replace(":", "-"),
        "requests": len(trace),
        "events": len(kinds),
        "moves": sum(1 for x in kinds if x in ("move", "flush")),
        "hits": kinds.count("hit"),
    }


# (module, attribute, span name, counts taken after the call)
TARGETS = [
    ("cli", "parse_trace", "trace.parse", lambda a, kw, r: {"requests": len(r)}),
    ("strategies", "run", "strategies.run", _strategy_counts),
    ("sweep", "run", "strategies.run", _strategy_counts),
    ("offline", "opt_flow", "offline.flow", None),
    ("offline", "opt_flow_profile", "offline.profile", lambda a, kw, r: {"k": len(r)}),
    ("offline", "opt_belady", "offline.belady", None),
    ("offline", "opt_single_server", "offline.single_server", None),
    ("dualcert", "run_greedydual_certified", "dualcert.certified",
     lambda a, kw, r: {"history_steps": len(r.history), "relabels": len(r.relabels)}),
    ("dualcert", "check_feasibility_fast", "dualcert.check_fast", None),
    ("dualcert", "check_primal_dual_bound", "dualcert.bound", None),
    ("dualcert", "dual_cost", "dualcert.bound", None),
    ("dualcert", "export_certificate", "dualcert.export",
     lambda a, kw, r: {"bytes": len(r.encode())}),
    ("phases", "partition", "phases.partition", lambda a, kw, r: {"phases": len(r.boundaries)}),
    ("sweep", "partition", "phases.partition", lambda a, kw, r: {"phases": len(r.boundaries)}),
    ("cli", "run_sweep", "sweep.sweep", lambda a, kw, r: {"rows": len(r.rows)}),
    ("cli", "count_violators", "sweep.violators", None),
    ("sweep", "count_violators", "sweep.violators", None),
    ("cli", "table_to_csv", "sweep.csv", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    """Records spans as [name, start, end, parent index, counts]."""

    def __init__(self, memory: bool = False):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.memory = memory  # also record the traced peak of each outermost dualcert call

    def wrap(self, fn, name: str, counts):
        measure = self.memory and name.startswith("dualcert.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = measure and not any(self.spans[i][0].startswith("dualcert.") for i in self._stack)
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            if outer:
                tracemalloc.reset_peak()
            rec[1] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = now()
                self._stack.pop()
            extra = counts(args, kwargs, result) if counts else {}
            if outer:
                extra["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            rec[4] = extra or None
            return result

        return wrapper


def install(memory: bool = False) -> Tracer:
    tracer = Tracer(memory)
    if memory:
        tracemalloc.start()
    for module, attr, name, counts in TARGETS:
        mod = importlib.import_module(f"cachecomp.{module}")
        setattr(mod, attr, tracer.wrap(getattr(mod, attr), name, counts))
    return tracer


# ------------------------------------------------------------------ analysis


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval covered by its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(idx, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures for the spans of one run (all jobs together).

    ``<x>_s`` for a group of span names is the time inside any of them,
    not counting a span nested in another of the same group twice.
    """
    selfs = self_times(spans)

    def outermost(names: set[str]) -> list[int]:
        out = []
        for idx, rec in enumerate(spans):
            if rec[0] not in names:
                continue
            p = rec[3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                out.append(idx)
        return out

    def total(*names: str) -> float:
        return sum(spans[i][2] - spans[i][1] for i in outermost(set(names)))

    def self_of(name: str) -> float:
        return sum(selfs[i] for i, rec in enumerate(spans) if rec[0] == name)

    def calls(name: str) -> int:
        return sum(1 for rec in spans if rec[0] == name)

    def count(name: str, key: str) -> int:
        return sum((rec[4] or {}).get(key, 0) for rec in spans if rec[0] == name)

    runs = [rec for rec in spans if rec[0] == "strategies.run"]
    by_strategy: dict[str, float] = defaultdict(float)
    for rec in runs:
        by_strategy[rec[4]["strategy"]] += rec[2] - rec[1]
    requests = count("strategies.run", "requests")
    peaks = [rec[4]["peak_bytes"] for rec in spans if rec[4] and "peak_bytes" in rec[4]]
    m = {
        "trace.parse_s": total("trace.parse"),
        "trace.parse_calls": calls("trace.parse"),
        "trace.requests": count("trace.parse", "requests"),
        "strategies.run_s": total("strategies.run"),
    }
    for name in STRATEGIES:
        m[f"strategies.run_s.{name}"] = by_strategy.get(name, 0.0)
    m.update({
        "strategies.calls": len(runs),
        "strategies.events": count("strategies.run", "events"),
        "strategies.moves": count("strategies.run", "moves"),
        "strategies.hit_ratio": count("strategies.run", "hits") / requests if requests else 0.0,
        "offline.flow_s": total("offline.flow"),
        "offline.flow_calls": calls("offline.flow"),
        "offline.profile_s": total("offline.profile"),
        "offline.profile_calls": calls("offline.profile"),
        "offline.profile_k": count("offline.profile", "k"),
        "offline.belady_s": total("offline.belady"),
        "offline.belady_calls": calls("offline.belady"),
        "offline.single_server_s": total("offline.single_server"),
        "dualcert.certified_s": total("dualcert.certified"),
        "dualcert.check_fast_s": total("dualcert.check_fast"),
        "dualcert.bound_s": total("dualcert.bound"),
        "dualcert.export_s": total("dualcert.export"),
        "dualcert.cert_bytes": count("dualcert.export", "bytes"),
        "dualcert.peak_mb": max(peaks, default=0) / 2**20,
        "dualcert.history_steps": count("dualcert.certified", "history_steps"),
        "dualcert.relabels": count("dualcert.certified", "relabels"),
        "phases.partition_s": total("phases.partition"),
        "phases.partition_calls": calls("phases.partition"),
        "phases.phases": count("phases.partition", "phases"),
        "sweep.sweep_s": total("sweep.sweep"),
        "sweep.self_s": self_of("sweep.sweep"),
        "sweep.violators_s": total("sweep.violators"),
        "sweep.csv_s": self_of("sweep.csv"),
        "sweep.rows": count("sweep.sweep", "rows"),
        "cli.main_s": total("cli.main"),
        "cli.self_s": self_of("cli.main"),
    })
    return m


STRATEGIES = ("lru", "fifo", "fwf", "balance", "mark", "greedydual-max", "greedydual-min")
