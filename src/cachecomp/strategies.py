"""Online eviction strategies run against a trace with k servers.

All strategies share the free-initial-placement convention: a request to an
unserved node is satisfied by an unplaced server at no cost while one
remains; only after all k servers are placed does a miss force a paid move.
Costs are exact integers: the weight of each vacated node, so a flush
pays for every node it unplaces.

Each engine only decides: it walks the trace with O(1) or O(log k) work
per request and records the paid decisions.  LRU and FIFO share an O(1)
recency engine.  Balance runs on GreedyDual's label engine, as its
min-lowering with ties by server id (see ``_label_loop``).
Flush-when-full, which flushes at every k-phase boundary after the
first, is read off ``phases.partition`` (``fwf_cost``).  Randomized
marking is a phase stream and a replay: ``mark_stream`` records each
k-phase's opening cache and first requests, and ``replay_mark`` draws
one seed's evictions from it, so a sweep builds one stream per k for all
its trials.  On unit weights ``lru_cost_profile`` gives LRU's cost for
every k from one stack-distance pass.  Sweeps read only the cost, so
they never build a per-request log; ``SimulationResult.events`` is
expanded from the decisions on first access.  A placed server is never
unplaced except by a flush, which unplaces them all, so the lowest
unplaced server id is always the number of servers placed.

Strategies are plain names, canonicalized by ``parse_strategy``;
``UNIT_WEIGHT_TWINS`` records which of them decide alike on unit
weights.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import OrderedDict
from functools import cached_property
from typing import NamedTuple

from .phases import PhasePartition, partition
from .trace import RequestTrace, _Record

__all__ = [
    "HIT",
    "FREE",
    "MOVE",
    "FLUSH",
    "Event",
    "SimulationResult",
    "MAX_LOWER",
    "MIN_LOWER",
    "STRATEGY_NAMES",
    "UNIT_WEIGHT_TWINS",
    "parse_strategy",
    "run",
    "run_greedydual",
    "lru_cost_profile",
    "mark_stream",
    "replay_mark",
    "fwf_cost",
]

HIT = "hit"
FREE = "free"
MOVE = "move"
FLUSH = "flush"

# Relabel policies for GreedyDual: how far labels are lowered on a miss.
MAX_LOWER = "max"  # lower as much as allowed (LRU-like)
MIN_LOWER = "min"  # lower as little as allowed (Balance/FIFO-like)

STRATEGY_NAMES = ("lru", "fifo", "fwf", "balance", "mark", "greedydual:max", "greedydual:min")

# On unit weights each of these strategies makes exactly the decisions of
# its twin: GreedyDual's policies are LRU and FIFO (see ``run_greedydual``),
# and Balance, whose key is then the number of nodes a server has served,
# moves its servers round-robin by id, as FIFO does.
UNIT_WEIGHT_TWINS = {"greedydual:max": "lru", "greedydual:min": "fifo", "balance": "fifo"}

DEFAULT_SEED = 0


class Event(NamedTuple):
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


class SimulationResult(_Record):
    """A run: its cost and paid decisions, ``(request index, evicted node)``
    per move and ``(index, None)`` per flush.  The event log is expanded
    from these on first access, and the final placement from the log, so
    neither costs O(k) unless the placement is read.  The repr omits the
    trace."""

    _fields = ("strategy", "k", "total_cost", "paid", "trace")
    _hidden = ("trace",)
    __slots__ = (*_fields, "__dict__")  # the dict holds the cached properties

    def __init__(
        self,
        strategy: str,
        k: int,
        total_cost: int,
        paid: tuple[tuple[int, int | None], ...],
        trace: RequestTrace,
    ) -> None:
        self._assign(strategy, k, total_cost, paid, trace)

    @cached_property
    def events(self) -> tuple[Event, ...]:
        """One event per request, plus a free event after each flush."""
        weights = self.trace.weights
        served: set[int] = set()
        events: list[Event] = []
        decisions = iter(self.paid)
        due, evicted = next(decisions, (-1, None))
        for i, v in enumerate(self.trace.requests):
            if v in served:
                events.append(Event(i, v, HIT))
                continue
            if i == due:
                u = evicted
                due, evicted = next(decisions, (-1, None))
                if u is not None:
                    served.remove(u)
                    served.add(v)
                    events.append(Event(i, v, MOVE, evicted=u, cost=weights[u]))
                    continue
                cost = sum(weights[u] for u in served)
                events.append(Event(i, v, FLUSH, cost=cost))
                served.clear()
            served.add(v)
            events.append(Event(i, v, FREE))
        return tuple(events)

    @cached_property
    def final_nodes(self) -> tuple[int | None, ...]:
        """Node per server id; None = never placed (or flushed, not refilled)."""
        where: dict[int, int] = {}  # node -> server id
        for e in self.events:
            if e.kind == FREE:
                where[e.node] = len(where)
            elif e.kind == MOVE:
                where[e.node] = where.pop(e.evicted)
            elif e.kind == FLUSH:
                where.clear()
        node_of: list[int | None] = [None] * self.k
        for v, s in where.items():
            node_of[s] = v
        return tuple(node_of)


def parse_strategy(spec: str) -> str:
    """The canonical name of ``lru | fifo | fwf | balance | mark |
    greedydual[:max|:min]``, one of ``STRATEGY_NAMES``; ``greedydual`` is
    ``greedydual:max``."""
    text = spec.strip().lower()
    if text == "greedydual":
        text = f"greedydual:{MAX_LOWER}"
    if text not in STRATEGY_NAMES:
        raise ValueError(f"unknown strategy {spec!r}")
    return text


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


def mark_stream(trace: RequestTrace, k: int) -> list:
    """What randomized marking's decisions depend on, per k-phase after
    the first: ``(nodes, firsts)``.  ``nodes`` is the sorted list of the
    previous phase's nodes, which is exactly the cache when the phase
    opens (the first phase fills it for free, and every later phase ends
    with its k requested nodes served).  ``firsts`` holds the phase's
    first request to each node as ``(index, node, stale)``, where stale
    means the node was in the previous phase.  Each node list is that of
    a full phase, which spans at least k requests, so the stream holds
    O(N) entries."""
    if k < 1:
        raise ValueError("k must be >= 1")
    stream: list = []
    previous: set[int] = set()
    current: set[int] = set()
    firsts: list | None = None  # None during the first phase
    for i, v in enumerate(trace.requests):
        if v in current:
            continue
        if len(current) == k:
            previous, current, firsts = current, set(), []
            stream.append((sorted(previous), firsts))
        current.add(v)
        if firsts is not None:
            firsts.append((i, v, v in previous))
    return stream


def replay_mark(stream: list, seed: int) -> list:
    """Randomized marking's paid decisions from ``mark_stream``: at a
    miss, evict uniformly among the cached nodes not yet requested in the
    current phase.  Those candidates start as the phase's opening cache
    and lose each node as it is requested or evicted, so a stale request
    hits exactly when its node is still a candidate and a new request
    always misses.  The candidates stay sorted, so each draw is over the
    same list as a sort at every miss would give; one stream serves any
    number of seeds.

    A draw is ``Random(seed).randrange(m)`` for m candidates, inlined as
    the rejection loop CPython 3.11 runs for it (``_randbelow``): take
    ``m.bit_length()`` random bits until they fall below m.  If a later
    CPython changes ``randrange``, the draw-equivalence test in
    ``test_strategies`` shows it; if it changes ``getrandbits``, the output
    pins show it too."""
    import random  # here, so that only marking loads ``random``

    getrandbits = random.Random(seed).getrandbits
    paid = []
    for nodes, firsts in stream:
        candidates = nodes.copy()
        for i, v, stale in firsts:
            m = len(candidates)
            if stale:
                j = bisect_left(candidates, v)
                if j < m and candidates[j] == v:
                    del candidates[j]
                    continue
            if not m:  # randrange(0) raises; the loop below would spin
                raise ValueError("a miss with no candidate: not a mark_stream phase")
            b = m.bit_length()
            r = getrandbits(b)
            while r >= m:
                r = getrandbits(b)
            paid.append((i, candidates.pop(r)))
    return paid


def lru_cost_profile(trace: RequestTrace, n: int) -> list[int]:
    """LRU's cost for k = 1..n on a unit-weight trace, from one pass over
    stack distances (Mattson, Gecsei, Slutz & Traiger 1970).  A request
    hits under LRU with k servers iff fewer than k distinct nodes were
    requested since its node's previous request.  A Fenwick tree over
    request times, holding a 1 at each node's latest request, counts
    those nodes in O(log N), so the pass takes O(N log N) time and O(N)
    memory.  The first min(k, distinct) misses place servers for free."""
    if not trace.is_paging:
        raise ValueError("the LRU profile needs a unit-weight (paging) trace")
    if n < 1:
        raise ValueError("n must be >= 1")
    size = len(trace.requests)
    tree = [0] * (size + 1)
    latest: dict[int, int] = {}  # node -> 1-based time of its latest request
    between = [0] * (size + 1)  # [d]: reuses with d distinct nodes since the last
    for t, v in enumerate(trace.requests, 1):
        p = latest.get(v)
        if p is not None:
            earlier, j = 0, p
            while j:
                earlier += tree[j]
                j &= j - 1
            between[len(latest) - earlier] += 1
            while p <= size:
                tree[p] -= 1
                p += p & -p
        latest[v] = j = t
        while j <= size:
            tree[j] += 1
            j += j & -j
    distinct = len(latest)
    missed = size - distinct  # reuses that miss with k servers
    costs = []
    for k in range(1, n + 1):
        if k <= size:
            missed -= between[k - 1]
        costs.append(distinct + missed - min(k, distinct))
    return costs


def fwf_cost(p: PhasePartition) -> int:
    """Flush-when-full's cost: it flushes at every phase boundary after
    the first, paying the weight of the phase that ends there."""
    return sum(p.weights[:-1])


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
    Balance is "min" with ties by server id instead; ``run("balance")``
    runs it, and ``relabel`` accepts only "max" and "min".

    Labels are kept lazily against a global offset, so a relabel is O(1);
    observable behavior equals eager subtraction.
    """
    return _label_loop(trace, k, relabel)


def _greedydual(
    trace: RequestTrace, k: int, relabel: str, by_id: bool = False
) -> tuple[SimulationResult, list[int]]:
    """``_label_loop``'s run, also returning the offset (the dual's
    cumulative raise, see ``dualcert``) at the start of each request
    followed by the final offset.  The offset changes only at paid moves,
    so the loop records it there and this expands it."""
    levels: list[int] = []
    result = _label_loop(trace, k, relabel, by_id, levels)
    offsets: list[int] = []
    offset = 0
    for (i, _), level in zip(result.paid, levels):
        offsets.extend([offset] * (i + 1 - len(offsets)))
        offset = level
    offsets.extend([offset] * (len(trace) + 1 - len(offsets)))
    return result, offsets


def _label_loop(
    trace: RequestTrace,
    k: int,
    relabel: str,
    by_id: bool = False,
    levels: list[int] | None = None,
) -> SimulationResult:
    """The label loop of ``run_greedydual``.  Given ``levels``, it appends
    the offset after each paid move.

    A relabel lands the offset on the least stored H (or L), so the victim
    is the heap minimum of (H, last touch, id) under "max" or (L, last
    move, id) under "min".  Only moves change L; under "max" a hit pushes a
    new H, and entries older than their server's last touch are skipped.
    The victim's entry is replaced by the moved server's new one in place.

    ``by_id`` runs Balance: "min" lowering with ties by server id, which
    is then each entry's stamp and never changes.  A stored L telescopes
    to the weight of the server's node plus the distance it has traveled,
    which is Balance's key.
    """
    if relabel not in (MAX_LOWER, MIN_LOWER):
        raise ValueError(f"unknown relabel policy {relabel!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    by_touch = relabel == MAX_LOWER
    weights = trace.weights
    offset = 0
    where: dict[int, int] = {}  # node -> server id
    stamp: list[int] = []  # last touch ("max"), last move ("min") or id (Balance)
    heap: list[tuple[int, int, int, int]] = []  # (stored label, stamp, id, node)
    paid = []
    for i, v in enumerate(trace.requests):
        s = where.get(v)
        if s is None and len(where) < k:
            s = len(where)
            stamp.append(s if by_id else i)
            heapq.heappush(heap, (weights[v] + offset, stamp[s], s, v))
        elif s is None:
            while heap[0][1] != stamp[heap[0][2]]:
                heapq.heappop(heap)
            offset, _, s, u = heap[0]
            paid.append((i, u))
            if levels is not None:
                levels.append(offset)
            del where[u]
            stamp[s] = s if by_id else i
            heapq.heapreplace(heap, (weights[v] + offset, stamp[s], s, v))
        elif by_touch:
            stamp[s] = i
            if len(heap) >= 2 * k:
                heap = [e for e in heap if e[1] == stamp[e[2]]]
                heapq.heapify(heap)
            heapq.heappush(heap, (weights[v] + offset, i, s, v))
        else:
            continue
        where[v] = s
    name = "balance" if by_id else f"greedydual:{relabel}"
    return _result(name, k, trace, paid)


def run(
    strategy: str, k: int, trace: RequestTrace, seed: int = DEFAULT_SEED
) -> SimulationResult:
    """Simulate one strategy, named as ``parse_strategy`` accepts, over
    the whole trace.

    Deterministic for every strategy; ``mark`` is deterministic given the
    seed.  Requests to served nodes are hits and cost nothing.
    """
    name = parse_strategy(strategy)
    if k < 1:
        raise ValueError("k must be >= 1")
    if name.startswith("greedydual:"):
        return run_greedydual(trace, k, name.partition(":")[2])
    if name == "balance":
        return _label_loop(trace, k, MIN_LOWER, by_id=True)
    if name in ("lru", "fifo"):
        paid = _run_recency(trace, k, refresh=name == "lru")
    elif name == "fwf":
        p = partition(trace, k)
        paid = tuple((b, None) for b in p.boundaries[1:])
        return SimulationResult(name, k, fwf_cost(p), paid, trace)
    else:
        paid = replay_mark(mark_stream(trace, k), seed)
    return _result(name, k, trace, paid)


def _result(name: str, k: int, trace: RequestTrace, paid: list) -> SimulationResult:
    cost = sum(trace.weights[u] for _, u in paid)
    return SimulationResult(name, k, cost, tuple(paid), trace)
