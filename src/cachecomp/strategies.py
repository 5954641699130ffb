"""Online eviction strategies run against a trace with k servers.

All strategies share the free-initial-placement convention: a request to an
unserved node is satisfied by an unplaced server at no cost while one
remains; only after all k servers are placed does a miss force a paid move.
Costs are exact integers: the weight of each vacated node, so a flush
pays for every node it unplaces.

Each engine only decides: it walks the trace with O(1) or O(log k) work
per request and records the paid decisions; flush-when-full, which
flushes at every k-phase boundary after the first, is read off
``phases.partition``.  Sweeps read only the cost, so they never build a
per-request log; ``SimulationResult.events`` is expanded from the
decisions on first access.  A placed server is never unplaced except by
a flush, which unplaces them all, so the lowest unplaced server id is
always the number of servers placed.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

from .phases import partition
from .trace import RequestTrace

__all__ = [
    "HIT",
    "FREE",
    "MOVE",
    "FLUSH",
    "Event",
    "SimulationResult",
    "StrategySpec",
    "MAX_LOWER",
    "MIN_LOWER",
    "STRATEGY_NAMES",
    "parse_strategy",
    "run",
    "run_greedydual",
]

HIT = "hit"
FREE = "free"
MOVE = "move"
FLUSH = "flush"

# Relabel policies for GreedyDual: how far labels are lowered on a miss.
MAX_LOWER = "max"  # lower as much as allowed (LRU-like)
MIN_LOWER = "min"  # lower as little as allowed (Balance/FIFO-like)

STRATEGY_NAMES = ("lru", "fifo", "fwf", "balance", "mark", "greedydual")

DEFAULT_SEED = 0


@dataclass(frozen=True, slots=True)
class Event:
    """One log entry.  ``index`` is the 0-based position in the trace.

    kind=="move" carries the evicted node and its weight as cost;
    kind=="flush" (flush-when-full only) carries no single evicted node and
    the summed weight of the nodes it unplaces as cost, and is followed by
    a "free" event for the same index.
    """

    index: int
    node: int
    kind: str
    evicted: int | None = None
    cost: int = 0


@dataclass(frozen=True)
class SimulationResult:
    """A run: its cost and paid decisions, ``(request index, evicted node)``
    per move and ``(index, None)`` per flush.  The event log and the final
    placement are expanded from these on first access."""

    strategy: str
    k: int
    total_cost: int
    paid: tuple[tuple[int, int | None], ...]
    trace: RequestTrace = field(repr=False)

    @cached_property
    def _expanded(self) -> tuple[tuple[Event, ...], tuple[int | None, ...]]:
        weights, k = self.trace.weights, self.k
        where: dict[int, int] = {}  # node -> server id
        node_of: list[int | None] = [None] * k
        events: list[Event] = []
        decisions = iter(self.paid)
        due, evicted = next(decisions, (-1, None))
        for i, v in enumerate(self.trace.requests):
            if v in where:
                events.append(Event(i, v, HIT))
                continue
            if i == due:
                u = evicted
                due, evicted = next(decisions, (-1, None))
                if u is not None:
                    s = where[v] = where.pop(u)
                    node_of[s] = v
                    events.append(Event(i, v, MOVE, evicted=u, cost=weights[u]))
                    continue
                cost = sum(weights[u] for u in where)
                events.append(Event(i, v, FLUSH, cost=cost))
                where.clear()
                node_of = [None] * k
            s = len(where)
            node_of[s] = v
            where[v] = s
            events.append(Event(i, v, FREE))
        return tuple(events), tuple(node_of)

    @property
    def events(self) -> tuple[Event, ...]:
        """One event per request, plus a free event after each flush."""
        return self._expanded[0]

    @property
    def final_nodes(self) -> tuple[int | None, ...]:
        """Node per server id; None = never placed (or flushed, not refilled)."""
        return self._expanded[1]


@dataclass(frozen=True)
class StrategySpec:
    name: str
    relabel: str = MAX_LOWER  # only meaningful for greedydual

    def __str__(self) -> str:
        if self.name == "greedydual":
            return f"greedydual:{self.relabel}"
        return self.name


def parse_strategy(spec: str) -> StrategySpec:
    """Parse ``lru | fifo | fwf | balance | mark | greedydual[:max|:min]``."""
    text = spec.strip().lower()
    if text.startswith("greedydual"):
        rest = text[len("greedydual"):]
        if rest in ("", f":{MAX_LOWER}"):
            return StrategySpec("greedydual", MAX_LOWER)
        if rest == f":{MIN_LOWER}":
            return StrategySpec("greedydual", MIN_LOWER)
        raise ValueError(f"unknown greedydual variant {spec!r}")
    if text in STRATEGY_NAMES:
        return StrategySpec(text)
    raise ValueError(f"unknown strategy {spec!r}")


def _run_recency(trace: RequestTrace, k: int, refresh: bool) -> list:
    """LRU (refresh=True) and FIFO (refresh=False): served nodes are kept
    oldest first, by last request for LRU (a hit moves its node to the end)
    and by placement for FIFO."""
    served: OrderedDict[int, None] = OrderedDict()
    paid = []
    for i, v in enumerate(trace.requests):
        if v in served:
            if refresh:
                served.move_to_end(v)
            continue
        if len(served) == k:
            paid.append((i, served.popitem(last=False)[0]))
        served[v] = None
    return paid


def _run_balance(trace: RequestTrace, k: int) -> list:
    """Move the server minimizing (weight of its node + distance traveled
    so far); ties go to the smallest server id.  A move adds the new node's
    weight to the moved server's key and changes no other key, so a heap
    of (key, server id, node) stays exact."""
    weights = trace.weights
    served: set[int] = set()
    heap: list[tuple[int, int, int]] = []  # (key, server id, node)
    paid = []
    for i, v in enumerate(trace.requests):
        if v in served:
            continue
        if len(heap) < k:
            heapq.heappush(heap, (weights[v], len(heap), v))
        else:
            key, s, u = heap[0]
            heapq.heapreplace(heap, (key + weights[v], s, v))
            served.remove(u)
            paid.append((i, u))
        served.add(v)
    return paid


def _run_mark(trace: RequestTrace, k: int, seed: int) -> list:
    """Randomized marking: evict uniformly among servers on nodes not yet
    requested in the current k-phase.  Phases restart when a request would
    bring the phase's distinct-node count past k.  The candidates are kept
    sorted, rebuilt at each phase start, so ``randrange`` draws over the
    same list as a sort at every miss would."""
    rng = random.Random(seed)
    served: set[int] = set()
    marked: set[int] = set()  # requested in this phase, hence served
    unmarked: list[int] = []  # sorted(served - marked)
    paid = []
    for i, v in enumerate(trace.requests):
        if v in marked:
            continue
        if len(marked) == k:
            marked = set()
            unmarked = sorted(served)
        if v in served:
            del unmarked[bisect_left(unmarked, v)]
        elif len(served) == k:
            assert unmarked, "marking invariant: an unmarked served node exists"
            u = unmarked.pop(rng.randrange(len(unmarked)))
            served.remove(u)
            paid.append((i, u))
        served.add(v)
        marked.add(v)
    return paid


def run_greedydual(
    trace: RequestTrace, k: int, relabel: str = MAX_LOWER
) -> SimulationResult:
    """GreedyDual in its direct label form.

    Each placed server s carries integer labels L[s] <= H[s].  A request to
    its node resets H[s] to the node weight; placement and moves reset both.
    On a miss with all servers placed, every label is lowered uniformly by

        delta = min_s H[s]   (relabel="max", LRU-like: as much as allowed)
        delta = min_s L[s]   (relabel="min", Balance-like: as little as allowed)

    after which some server has L <= 0 and may be evicted.  Among eligible
    servers the victim is the one with minimal H (then earliest last touch)
    under "max", or minimal L (then earliest last move) under "min"; these
    tie-breaks make the unit-weight runs reproduce LRU and FIFO exactly.

    Labels are kept lazily against a global offset, so a relabel is O(1);
    observable behavior equals eager subtraction.
    """
    return _greedydual(trace, k, relabel)[0]


def _greedydual(
    trace: RequestTrace, k: int, relabel: str
) -> tuple[SimulationResult, list[int]]:
    """The label loop of ``run_greedydual``, also returning the offset (the
    dual's cumulative raise, see ``dualcert``) at the start of each request
    followed by the final offset.

    A relabel lands the offset on the least stored H (or L), so the victim
    is the heap minimum of (H, last touch, id) under "max" or (L, last
    move, id) under "min".  Only moves change L; under "max" a hit pushes a
    new H, and entries older than their server's last touch are skipped.
    """
    if relabel not in (MAX_LOWER, MIN_LOWER):
        raise ValueError(f"unknown relabel policy {relabel!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    by_touch = relabel == MAX_LOWER
    weights = trace.weights
    offset = 0
    where: dict[int, int] = {}  # node -> server id
    stamp: list[int] = []  # last touch under "max", last move under "min"
    heap: list[tuple[int, int, int, int]] = []  # (stored label, stamp, id, node)
    offsets: list[int] = []
    paid = []
    for i, v in enumerate(trace.requests):
        offsets.append(offset)
        s = where.get(v)
        if s is None and len(where) < k:
            s = len(where)
            stamp.append(i)
        elif s is None:
            while heap[0][1] != stamp[heap[0][2]]:
                heapq.heappop(heap)
            offset, _, s, u = heapq.heappop(heap)
            paid.append((i, u))
            del where[u]
            stamp[s] = i
        elif by_touch:
            stamp[s] = i
            if len(heap) >= 2 * k:
                heap = [e for e in heap if e[1] == stamp[e[2]]]
                heapq.heapify(heap)
        else:
            continue
        heapq.heappush(heap, (weights[v] + offset, i, s, v))
        where[v] = s
    offsets.append(offset)
    return _result(f"greedydual:{relabel}", k, trace, paid), offsets


def run(
    strategy: StrategySpec | str,
    k: int,
    trace: RequestTrace,
    seed: int = DEFAULT_SEED,
) -> SimulationResult:
    """Simulate one strategy over the whole trace.

    Deterministic for every strategy; ``mark`` is deterministic given the
    seed.  Requests to served nodes are hits and cost nothing.
    """
    if isinstance(strategy, str):
        strategy = parse_strategy(strategy)
    if k < 1:
        raise ValueError("k must be >= 1")
    name = strategy.name
    if name == "greedydual":
        return run_greedydual(trace, k, strategy.relabel)
    if name in ("lru", "fifo"):
        paid = _run_recency(trace, k, refresh=name == "lru")
    elif name == "fwf":
        p = partition(trace, k)
        paid = tuple((b, None) for b in p.boundaries[1:])
        return SimulationResult(name, k, sum(p.weights[:-1]), paid, trace)
    elif name == "balance":
        paid = _run_balance(trace, k)
    elif name == "mark":
        paid = _run_mark(trace, k, seed)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return _result(name, k, trace, paid)


def _result(name: str, k: int, trace: RequestTrace, paid: list) -> SimulationResult:
    cost = sum(trace.weights[u] for _, u in paid)
    return SimulationResult(name, k, cost, tuple(paid), trace)
