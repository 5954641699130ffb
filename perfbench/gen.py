"""Seeded trace generator owned by the benchmark.

It does not call ``cachecomp.trace``, so a later change to the library's
own generators cannot change the benchmark's inputs.

Model: a working set of ``working_set`` slots, where slot r is requested
with probability proportional to 1/(r+1)**skew (Zipf-like popularity).
Every ``drift_every`` requests the next slot in turn, hottest first, is
given the next node of the universe (cycling through 0..universe-1), so
the working set drifts over time and old nodes come back once the
universe wraps around.  The drift follows a fixed schedule, not a random
one, so that traces of one spec have about the same number of distinct
nodes and hit ratios, and so about the same work, for every seed; only
the requests within the working set are drawn at random.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class TraceSpec:
    length: int
    universe: int
    working_set: int
    drift_every: int
    skew: float
    weight_max: int = 1  # 1 = unit weights (a paging trace)


def generate(spec: TraceSpec, seed: int, salt: str) -> tuple[list[int], list[int]]:
    """Return (requests, weight per universe node); same inputs, same output.

    ``salt`` separates the traces of one workload that share a seed.
    """
    if not 1 <= spec.working_set <= spec.universe:
        raise ValueError("need 1 <= working_set <= universe")
    rng = random.Random(f"perfbench:{salt}:{seed}")
    if spec.weight_max == 1:
        weights = [1] * spec.universe
    else:
        weights = [rng.randint(1, spec.weight_max) for _ in range(spec.universe)]
    cum = list(itertools.accumulate(1.0 / (r + 1) ** spec.skew for r in range(spec.working_set)))
    total = cum[-1]
    slots = list(range(spec.working_set))
    fresh = spec.working_set
    requests = []
    for i in range(1, spec.length + 1):
        if i % spec.drift_every == 0:
            slots[(fresh - spec.working_set) % spec.working_set] = fresh % spec.universe
            fresh += 1
        rank = min(bisect.bisect_right(cum, rng.random() * total), spec.working_set - 1)
        requests.append(slots[rank])
    return requests, weights


def to_text(requests: list[int], weights: list[int]) -> str:
    """Render in the cachecomp trace format: ``<label> [<weight>]`` per line."""
    unit = all(w == 1 for w in weights)
    lines = [f"p{v}" if unit else f"p{v} {weights[v]}" for v in requests]
    return "\n".join(lines) + "\n"
