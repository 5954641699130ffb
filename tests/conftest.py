"""Shared corpus fixtures.

The acceptance corpus is 200 seeded random traces of 200 requests whose
parameters cycle through node counts {3, 5, 10, 50}, weight maxima
{1, 10}, k in 1..10, and both relabel policies.  Everything derived from
it (certified runs, offline optimum profiles) is computed once per
session and shared across test modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from cachecomp.dualcert import CertifiedRun, run_greedydual_certified
from cachecomp.offline import opt_flow_profile
from cachecomp.strategies import MAX_LOWER, MIN_LOWER
from cachecomp.trace import RequestTrace, generate_random

CORPUS_SIZE = 200
CORPUS_TRACE_LEN = 200
NODE_COUNTS = (3, 5, 10, 50)
WEIGHT_MAXES = (1, 10)
CORPUS_SEED_BASE = 31337


@dataclass(frozen=True)
class CorpusMember:
    idx: int
    trace: RequestTrace
    k: int
    relabel: str

    @property
    def is_paging(self) -> bool:
        return self.trace.is_paging


def build_corpus() -> list[CorpusMember]:
    members = []
    for i in range(CORPUS_SIZE):
        nodes = NODE_COUNTS[i % 4]
        wmax = WEIGHT_MAXES[(i // 4) % 2]
        k = (i // 8) % 10 + 1
        relabel = (MAX_LOWER, MIN_LOWER)[i % 2]
        trace = generate_random(nodes, CORPUS_TRACE_LEN, wmax, seed=CORPUS_SEED_BASE + i)
        members.append(CorpusMember(i, trace, k, relabel))
    return members


@pytest.fixture(scope="session")
def corpus() -> list[CorpusMember]:
    return build_corpus()


@pytest.fixture(scope="session")
def certified_runs(corpus) -> list[CertifiedRun]:
    return [run_greedydual_certified(m.trace, m.k, m.relabel) for m in corpus]


@pytest.fixture(scope="session")
def opt_profiles(corpus) -> dict[int, list[int]]:
    """idx -> [OPT(1), ..., OPT(k)] for each corpus member."""
    return {m.idx: opt_flow_profile(m.trace, m.k) for m in corpus}
