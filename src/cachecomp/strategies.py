"""Online eviction strategies run against a trace with k servers.

All strategies share the free-initial-placement convention: a request to an
unserved node is satisfied by an unplaced server at no cost while one
remains; only after all k servers are placed does a miss force a paid move.
Costs are exact integers: the weight of each vacated node, so a flush
pays for every node it unplaces.

Each engine only decides: it walks the trace with O(1) or O(log k) work
per request and records the paid decisions.  LRU and FIFO share an O(1)
recency engine.  Balance, ``greedydual:max`` and ``greedydual:min`` are
the three members of GreedyDual's label engine, ``_label_loop``, which
takes the member's name; ``run`` is the one way in for all of them.
Flush-when-full, which flushes at every k-phase boundary after the
first, is read off ``phases.partition`` (``fwf_cost``).  Randomized
marking is a phase stream (``mark_stream``) and a replay per seed
(``replay_mark``), so a sweep builds one stream per k for all its
trials.  ``lru_cost_profile`` gives LRU's cost for every k from one
stack-distance pass on any weights.
Sweeps read only the cost, so they never build a per-request log;
``SimulationResult.events`` is expanded from the decisions on first
access.  It and ``dualcert``'s replay, bound check and certificate
read the decisions through ``_walk_decisions``, their one fit check and
the one holder of the served set S, which yields each request's outcome
beside S.

Strategies are plain names, canonicalized by ``parse_strategy``;
``UNIT_WEIGHT_TWINS`` records which of them decide alike on unit
weights.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import OrderedDict
from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import pairwise
from typing import TYPE_CHECKING, NamedTuple

from .trace import RequestTrace, _Record

if TYPE_CHECKING:
    from .phases import PhasePartition

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
# its twin: GreedyDual's policies are LRU and FIFO (see ``_label_loop``),
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
    from these on first access.  The repr omits the trace."""

    _fields = ("strategy", "k", "total_cost", "paid", "trace")
    _hidden = ("trace",)
    __slots__ = (*_fields, "__dict__")  # the dict holds the cached event log

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
        """One event per request, plus a free event after each flush;
        ``ValueError`` if the decisions misfit (``_walk_decisions``)."""
        weights = self.trace.weights
        events: list[Event] = []
        held = 0  # the served nodes' summed weight, which a flush pays
        walk = _walk_decisions(self.trace, self.k, self.paid)
        for i, (v, (u, _, _)) in enumerate(zip(self.trace.requests, walk, strict=True)):
            if u is HIT:
                events.append(Event(i, v, HIT))
                continue
            if u is FLUSH:
                events.append(Event(i, v, FLUSH, cost=held))
                held = 0
            elif u is not FREE:
                events.append(Event(i, v, MOVE, evicted=u, cost=weights[u]))
                held += weights[v] - weights[u]
                continue
            held += weights[v]
            events.append(Event(i, v, FREE))
        return tuple(events)


def _walk_decisions(
    trace: RequestTrace,
    k: int,
    paid: Iterable[tuple[int, int | None]],
    flushes: bool = True,
    error: type[Exception] = ValueError,
) -> Iterator[tuple[int | str, tuple[int, int] | None, dict[int, tuple[int, int]]]]:
    """Yield, per request, ``(outcome, left, served)`` under the paid
    decisions.  ``outcome`` is ``HIT``, ``FREE`` (it places a server), the
    node its move evicts, or ``FLUSH`` (it unplaces every server, then
    places one); callers tell the markers from node ids by identity.
    ``served`` is one dict, updated in place, mapping each served node to
    ``(i, moved)``: the 1-based request it serves and the one at which its
    server last moved, which a hit keeps and a placement or a move sets to
    the request itself.  A request re-inserts its node, so the values stay
    ordered by ``i``.  ``left`` is the pair that leaves S here, the one a
    hit supersedes or the victim's; None on a placement or a flush.

    This is the one fit check: a decision falls at exactly each miss that
    finds all k servers placed, and a move evicts a served node (so does a
    flush when ``flushes`` is false).  The first misfit, or a decision
    left over, raises ``error`` naming its 1-based request."""
    served: dict[int, tuple[int, int]] = {}
    decisions = iter(paid)
    due, evicted = next(decisions, (None, None))
    for i, v in enumerate(trace.requests):
        left = served.pop(v, None)
        if (i == due) == (left is not None or len(served) < k):
            raise error(f"paid decisions do not fit request {i + 1}")
        if left is not None:
            served[v] = (i + 1, left[1])
            yield HIT, left, served
            continue
        if i != due:
            u = FREE
        else:
            u, (due, evicted) = evicted, next(decisions, (None, None))
            if u is None and flushes:
                served.clear()
                u = FLUSH
            else:
                left = served.pop(u, None)
                if left is None:
                    raise error(f"request {i + 1} evicts an unserved node")
        served[v] = (i + 1, i + 1)
        yield u, left, served
    if due is not None:
        raise error(f"paid decisions do not fit: request {due + 1} is left over")


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
    from .phases import _k_phases  # here, so that only fwf and marking load ``phases``

    phases = _k_phases(trace.requests, k)
    return [
        (sorted(previous), [(i, v, v in previous) for v, i in current.items()])
        for previous, current in pairwise(phases)
    ]


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
    """LRU's cost for k = 1..n, from one pass over stack distances
    (Mattson, Gecsei, Slutz & Traiger 1970).  LRU evicts by recency alone,
    so this holds on any weights.  A request hits under LRU with k servers
    iff fewer than k distinct nodes were requested since its node's
    previous request; each reuse that misses means its node was evicted
    exactly once in between, at the node's weight.  After its last request
    a node is evicted iff it is not among the k most recently requested
    nodes.  A Fenwick tree over request times, holding a 1 at each node's
    latest request, counts the nodes in between in O(log N), so the pass
    takes O(N log N) time and O(N) memory."""
    if n < 1:
        raise ValueError("n must be >= 1")
    reqs, weights = trace.requests, trace.weights
    size = len(reqs)
    tree = [0] * (size + 1)
    latest: dict[int, int] = {}  # node -> 1-based time of its latest request
    between = [0] * (size + 1)  # [d]: weight of reuses d distinct nodes after the last
    for t, v in enumerate(reqs, 1):
        p = latest.get(v)
        if p is not None:
            earlier, j = 0, p
            while j:
                earlier += tree[j]
                j &= j - 1
            between[len(latest) - earlier] += weights[v]
            while p <= size:
                tree[p] -= 1
                p += p & -p
        latest[v] = j = t
        while j <= size:
            tree[j] += 1
            j += j & -j
    missed = sum(between)  # weight of the reuses that miss with k servers
    tail = sum(weights[v] for v in latest)  # of nodes evicted after their last request
    recent = sorted(latest, key=latest.__getitem__, reverse=True)
    costs = []
    for k in range(1, n + 1):
        if k <= size:
            missed -= between[k - 1]
        if k <= len(recent):
            tail -= weights[recent[k - 1]]
        costs.append(missed + tail)
    return costs


def fwf_cost(p: PhasePartition) -> int:
    """Flush-when-full's cost: it flushes at every phase boundary after
    the first, paying the weight of the phase that ends there."""
    return sum(p.weights[:-1])


def _label_loop(
    trace: RequestTrace, k: int, name: str, levels: list[int] | None = None
) -> SimulationResult:
    """GreedyDual's label engine, run as the member ``name``:
    ``greedydual:max``, ``greedydual:min`` or ``balance``.  Given
    ``levels``, it appends the offset after each paid move.

    Each placed server s carries integer labels L[s] <= H[s].  A request to
    its node resets H[s] to the node weight; placement and moves reset both.
    On a miss with all servers placed, every label is lowered uniformly by
    delta = min_s H[s] under "max" (LRU-like: as much as allowed), or by
    delta = min_s L[s] under "min" and Balance (as little as allowed).
    Then some server has L <= 0, and the victim is the one with minimal H
    (then earliest last touch) under "max", minimal L (then earliest last
    move) under "min", or minimal L (then least server id) under Balance.
    The first two tie-breaks make the unit-weight runs reproduce LRU and
    FIFO exactly; under Balance a stored L telescopes to the weight of the
    server's node plus the distance it has traveled, Balance's key.

    Labels are kept lazily against a global offset, so a relabel is O(1)
    and lands the offset on the least stored label: the victim is the heap
    minimum of (label, stamp, id).  Only moves change L; under "max" a hit
    pushes a new H, and entries older than their server's last touch are
    skipped.  The victim's entry is replaced by the moved server's in
    place.  No server is ever unplaced, so the next free id is the number
    of servers placed.
    """
    by_touch = name == f"greedydual:{MAX_LOWER}"
    by_id = name == "balance"
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
    return _result(name, k, trace, paid)


def run(
    strategy: str, k: int, trace: RequestTrace, seed: int = DEFAULT_SEED
) -> SimulationResult:
    """Simulate one strategy, named as ``parse_strategy`` accepts, over
    the whole trace.

    Deterministic for every strategy; ``mark`` is deterministic given the
    seed, which must be >= 0 (``random.Random`` would replay a negative
    seed's absolute value).  Requests to served nodes are hits and cost
    nothing.
    """
    name = parse_strategy(strategy)
    if k < 1:
        raise ValueError("k must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if name == "balance" or name.startswith("greedydual:"):
        return _label_loop(trace, k, name)
    if name in ("lru", "fifo"):
        paid = _run_recency(trace, k, refresh=name == "lru")
    elif name == "fwf":
        from .phases import partition  # here, as in ``mark_stream``

        p = partition(trace, k)
        paid = tuple((b, None) for b in p.boundaries[1:])
        return SimulationResult(name, k, fwf_cost(p), paid, trace)
    else:
        paid = replay_mark(mark_stream(trace, k), seed)
    return _result(name, k, trace, paid)


def _result(name: str, k: int, trace: RequestTrace, paid: list) -> SimulationResult:
    cost = sum(trace.weights[u] for _, u in paid)
    return SimulationResult(name, k, cost, tuple(paid), trace)
