"""Offline optimal cost OPT(h): exact solvers and test oracles.

The optimum is the minimum-cost assignment of a predecessor to every
request: request j is served either by the server that previously served
request i (cost 0 if both are to the same node, otherwise the weight of
node r_i) or by one of h initial placements (cost 0).

``opt_flow`` solves it as max-weight interval scheduling (the reduction of
Chrobak, Karloff, Payne and Vishwanathan 1991; the flow of Carlisle and
Lloyd 1995).  Number the requests 1..N and let next(i) be the next request
to the same node, or N+1 if there is none.  Each i < N with
next(i) > i + 1 is an interval of weight w(r_i) covering requests
i+1..next(i)-1: parking r_i's server over them saves evicting r_i.  One
server pays every such weight, so OPT(1) is their sum ``base``; with h
servers one serves the current request and at most h-1 stay parked, so

    OPT(h) = base - max weight of intervals at most h-1 deep at every request.

The max-weight set is a min-cost flow of h-1 units on the request
timeline.  Node t (0..N) is the moment after request t:

    t-1 -> t                     uncapacitated, cost 0   (request t)
    i -> next(i) - 1             cap 1, cost -w(r_i)     (interval i)

Every unit runs from node 0 to node N and crosses each request once, so
h-1 units cover each request with at most h-1 intervals.  The request
arcs need no cap: every arc points forward, so a request arc carries at
most the units that cross its cut, at most the k-1 sent, and the network
is the same for every k.  At most one interval ends at a node t < N
(request t+1 has one previous request), so t has at most four residual
arcs: on to t+1, back to t-1 while request t carries flow, along the
interval that starts at t while it is not kept, and back along the one
that ends at t while it is kept.  ``_IntervalFlow`` keeps them in flat
per-node arrays.

Successive shortest paths send one unit per extra server: potentials
seeded by one pass over the DAG make all reduced costs nonnegative, and
each unit is then one Dijkstra.  Once a unit saves nothing, no later one
can, so the profile OPT(1..k) costs at most k-1 Dijkstra runs.

The schedule is decoded from the kept intervals: a request whose interval
is kept, or whose node is requested again right away, hands its server to
next(i).  Every other request takes the longest-free server from a FIFO
pool that starts with h initial placements (0), and a request whose
server is not handed on returns it to the pool once served.  At most h-1
kept intervals cover a request, so the pool is never empty when drawn
from, and each dropped interval is paid at most once, so the schedule
costs exactly OPT(h).

On unit weights OPT/MIN is a stack algorithm (Mattson, Gecsei, Slutz and
Traiger 1970): the cache with k servers is the top k of one stack kept
in next-use order, so ``opt_paging_profile`` reads OPT(1..n) off one
pass as OPT(k) = N - hits(depth <= k) - min(k, distinct).  ``opt_belady``
(farthest in future) computes one k, and is the profile's test oracle.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import NamedTuple

from .trace import RequestTrace

__all__ = [
    "OptSchedule",
    "InstanceSizeError",
    "opt_flow",
    "opt_flow_profile",
    "opt_belady",
    "opt_paging_profile",
    "opt_bruteforce",
    "opt_single_server",
    "OPT_METHODS",
    "FLOW_CAP",
    "resolve_opt_method",
]

_INF = float("inf")

FLOW_CAP = 100_000  # most requests the flow solver accepts
OPT_METHODS = ("auto", "flow", "belady")
BRUTE_FORCE_MAX_LEN = 12
BRUTE_FORCE_MAX_K = 4


class InstanceSizeError(ValueError):
    """Instance exceeds the flow solver's size cap, ``FLOW_CAP``."""


class OptSchedule(NamedTuple):
    """A minimum-cost schedule.

    ``predecessor[j]`` (1-based over the trace, entry 0 unused) is the
    request whose server serves request j; 0 denotes one of the k free
    initial placements.  Each i >= 1 precedes at most one j, and 0 precedes
    at most k.
    """

    predecessor: tuple[int, ...]
    cost: int
    k: int


_BACK, _ON, _UNKEEP, _KEEP = range(4)  # residual arc kinds


def _next_use(reqs: tuple[int, ...]) -> list[int]:
    """0-based position of the next request to the same node after each
    request, or len(reqs) if there is none."""
    n = len(reqs)
    nxt = [n] * n
    last_seen: dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        v = reqs[i]
        nxt[i] = last_seen.get(v, n)
        last_seen[v] = i
    return nxt


class _IntervalFlow:
    """The interval network of one trace (see the module docstring).

    ``w[i]`` is the weight of the interval starting at node i and
    ``into[t]`` the interval ending at node t < N, 0 for none; ``kept[i]``
    says whether interval i carries a unit, and ``flow[t]`` counts the
    units on request t.  Index 0 names no interval, so ``kept[0]`` is 0.
    """

    def __init__(self, trace: RequestTrace):
        n = len(trace)
        reqs = trace.requests
        # next request to the same node, 1-based; n + 1 = none
        self.nxt = nxt = [n + 1] + [p + 1 for p in _next_use(reqs)]
        self.n = n
        self.w = w = [0] * (n + 1)
        self.into = into = [0] * (n + 1)
        for i in range(1, n):
            if nxt[i] > i + 1:
                w[i] = trace.weights[reqs[i - 1]]
                into[nxt[i] - 1] = i
        self.base = sum(w)
        self.kept = bytearray(n + 1)
        self.flow = [0] * (n + 1)
        # min(0, cheapest path cost into each node): one pass in node
        # order suffices because every arc points forward
        self.pot = pot = [0] * (n + 1)
        for u in range(n):
            pot[u + 1] = min(pot[u + 1], pot[u])
            if w[u]:
                pot[nxt[u] - 1] = min(pot[nxt[u] - 1], pot[u] - w[u])

    def _send_unit(self) -> int:
        """Push one unit from node 0 to node N along a shortest path; return
        its true cost.

        Dijkstra stops when node N is settled.  Nodes not settled by then
        are at least as far, so raising every potential by
        min(dist, dist[N]) keeps all residual reduced costs >= 0, and so
        no relaxation lowers a settled node's dist.  On a tie a node keeps
        the parent settled first, and two arcs out of one node that share a
        head differ in cost by an interval weight, so the order in which a
        node's arcs are relaxed never changes the schedule ``decode`` returns.
        """
        n, w, nxt, into, kept, flow, pot = (
            self.n, self.w, self.nxt, self.into, self.kept, self.flow, self.pot
        )
        push, pop = heapq.heappush, heapq.heappop
        dist: list[float] = [_INF] * (n + 1)
        parent = [0] * (n + 1)
        kind = bytearray(n + 1)
        dist[0] = 0
        heap: list[tuple[float, int]] = [(0, 0)]
        while heap:
            d, u = pop(heap)
            if d > dist[u]:
                continue
            if u == n:
                break
            d += pot[u]
            if flow[u]:
                v = u - 1
                nd = d - pot[v]
                if nd < dist[v]:
                    dist[v], parent[v], kind[v] = nd, u, _BACK
                    push(heap, (nd, v))
            v = u + 1
            nd = d - pot[v]
            if nd < dist[v]:
                dist[v], parent[v], kind[v] = nd, u, _ON
                push(heap, (nd, v))
            v = into[u]
            if kept[v]:
                nd = d + w[v] - pot[v]
                if nd < dist[v]:
                    dist[v], parent[v], kind[v] = nd, u, _UNKEEP
                    push(heap, (nd, v))
            if w[u] and not kept[u]:
                v = nxt[u] - 1
                nd = d - w[u] - pot[v]
                if nd < dist[v]:
                    dist[v], parent[v], kind[v] = nd, u, _KEEP
                    push(heap, (nd, v))
        reach = int(dist[n])
        true_cost = reach + pot[n] - pot[0]
        self.pot = [p + min(dv, reach) for p, dv in zip(pot, dist)]
        v = n
        while v:
            u = parent[v]
            if kind[v] == _BACK:
                flow[u] -= 1
            elif kind[v] == _ON:
                flow[v] += 1
            elif kind[v] == _UNKEEP:
                kept[v] = 0
            else:
                kept[u] = 1
            v = u
        return true_cost

    def profile(self, k: int) -> list[int]:
        """[OPT(1), ..., OPT(j)], j <= k: one augmentation per extra server
        until one saves nothing; OPT keeps the last value from there to k."""
        profile = [self.base]
        while len(profile) < k:
            saving = self._send_unit()
            if saving == 0:
                break
            profile.append(profile[-1] + saving)
        return profile

    def decode(self, k: int) -> tuple[int, ...]:
        """Predecessor array of the flow left by ``profile`` (see the module
        docstring)."""
        n, nxt, w, kept = self.n, self.nxt, self.w, self.kept
        pred = [-1] * (n + 1)
        pred[0] = 0
        # at most n draws, so min(k, n) initial placements draw as k would
        pool: deque[int] = deque([0] * min(k, n))
        for j in range(1, n + 1):
            if pred[j] < 0:
                pred[j] = pool.popleft()
            if w[j] and not kept[j]:
                pool.append(j)
            elif nxt[j] <= n:
                pred[nxt[j]] = j
        return tuple(pred)


def _interval_flow(trace: RequestTrace, k: int) -> _IntervalFlow:
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(trace) > FLOW_CAP:
        raise InstanceSizeError(
            f"flow solver capped at {FLOW_CAP} requests, trace has {len(trace)}; "
            "use belady (unit weights) or sample the trace"
        )
    return _IntervalFlow(trace)


def resolve_opt_method(trace: RequestTrace, method: str) -> str:
    """The solver behind ``method``: ``auto`` is belady on unit weights and
    flow otherwise.  Belady on a weighted trace is rejected here, before
    any solver runs, so a caller that skips the solve still rejects it."""
    if method not in OPT_METHODS:
        raise ValueError(f"unknown opt method {method!r}")
    if method == "auto":
        return "belady" if trace.is_paging else "flow"
    if method == "belady" and not trace.is_paging:
        raise ValueError("belady requires a unit-weight (paging) trace")
    return method


def opt_flow(trace: RequestTrace, k: int) -> OptSchedule:
    """Exact minimum cost with k servers, with the serving schedule.

    Raises InstanceSizeError beyond ``FLOW_CAP`` requests; use
    ``opt_belady`` (unit weights) or sample the trace instead.
    """
    net = _interval_flow(trace, k)
    cost = net.profile(k)[-1]
    return OptSchedule(net.decode(k), cost, k)


def opt_flow_profile(trace: RequestTrace, k: int) -> list[int]:
    """[OPT(1), OPT(2), ..., OPT(k)] from one incremental flow solve."""
    profile = _interval_flow(trace, k).profile(k)
    return profile + [profile[-1]] * (k - len(profile))


def opt_belady(trace: RequestTrace, k: int) -> int:
    """Farthest-in-future optimum for unit-weight traces (cost = paid moves).

    Equals ``opt_flow(trace, k).cost`` on every unit-weight trace; runs in
    O(N log N) and serves large paging sweeps.
    """
    if not trace.is_paging:
        raise ValueError("opt_belady requires a unit-weight (paging) trace")
    if k < 1:
        raise ValueError("k must be >= 1")
    reqs = trace.requests
    nxt = _next_use(reqs)  # len(reqs) = never
    cached: set[int] = set()
    heap: list[tuple[int, int]] = []  # (-next use, node)
    cost = 0
    for i, v in enumerate(reqs):
        if v not in cached:
            if len(cached) >= k:
                # every entry left is a cached node's latest (next use > i) or was
                # superseded before i (an eviction pops its victim's): the top is live
                cached.remove(heapq.heappop(heap)[1])
                cost += 1
            cached.add(v)
        heapq.heappush(heap, (-nxt[i], v))
    return cost


def opt_paging_profile(trace: RequestTrace, n: int) -> list[int]:
    """[OPT(1), ..., OPT(n)] on a unit-weight trace from one OPT-stack
    pass (Mattson, Gecsei, Slutz & Traiger 1970): OPT/MIN is a stack
    algorithm, so the cache with k servers is the top k of one stack.

    A node's priority is its next-use time, or N + i for a node whose
    last request is i, so no two nodes tie.  A reference at depth d hits
    for every k >= d.  The requested node goes to the top, and the old top
    is carried down positions 1..d-1: at each one, whichever of the two
    nodes is used later moves on, and the carried node lands at d (on a
    miss, at the bottom, or off the stack once it holds n nodes).  The top
    n positions never depend on the ones below, so truncating at n is
    exact for every k <= n, and the stack and the hit counters hold
    min(n, distinct) entries.  The first min(k, distinct) misses place
    servers for free, so

        OPT(k) = N - hits(depth <= k) - min(k, distinct).

    O(N·min(n, distinct)) time in the worst case; equals ``opt_belady``
    for every k.
    """
    if not trace.is_paging:
        raise ValueError("the OPT profile needs a unit-weight (paging) trace")
    if n < 1:
        raise ValueError("n must be >= 1")
    reqs = trace.requests
    size = len(reqs)
    # priority after each request: its node's next use, size + i for none
    nxt = [p if p < size else size + i for i, p in enumerate(_next_use(reqs))]
    distinct = len(set(reqs))
    depth_cap = min(n, distinct)
    prio = [0] * len(trace.weights)
    held = bytearray(len(trace.weights))  # 1 = on the truncated stack
    stack: list[int] = []  # top first
    hits = [0] * (depth_cap + 1)  # [d]: references that hit at depth d
    for i, v in enumerate(reqs):
        if held[v]:
            d = stack.index(v)
            hits[d + 1] += 1
        else:
            d = len(stack)
            held[v] = 1
            stack.append(v)
        if d:
            carried = stack[0]
            later = prio[carried]
            stack[0] = v
            for j in range(1, d):
                u = stack[j]
                if prio[u] > later:
                    stack[j] = carried
                    carried, later = u, prio[u]
            stack[d] = carried
            if d == depth_cap:
                held[stack.pop()] = 0
        prio[v] = nxt[i]
    costs = [size - sum(hits) - distinct] * n  # k >= distinct: every reuse hits
    hit = 0
    for k in range(1, depth_cap + 1):
        hit += hits[k]
        costs[k - 1] = size - hit - k
    return costs


def opt_bruteforce(trace: RequestTrace, k: int) -> int:
    """Exhaustive minimum over all demand schedules (the test oracle).

    Explores every reachable cache-content set with its cheapest cost;
    intended only for tiny instances.
    """
    if len(trace) > BRUTE_FORCE_MAX_LEN or k > BRUTE_FORCE_MAX_K:
        raise InstanceSizeError(
            f"brute force capped at {BRUTE_FORCE_MAX_LEN} requests"
            f" / k <= {BRUTE_FORCE_MAX_K}"
        )
    if k < 1:
        raise ValueError("k must be >= 1")
    states: dict[frozenset[int], int] = {frozenset(): 0}
    for v in trace.requests:
        nxt_states: dict[frozenset[int], int] = {}

        def offer(cache: frozenset[int], c: int) -> None:
            cur = nxt_states.get(cache)
            if cur is None or c < cur:
                nxt_states[cache] = c

        for cache, c in states.items():
            if v in cache:
                offer(cache, c)
            elif len(cache) < k:
                offer(cache | {v}, c)
            else:
                for u in cache:
                    offer((cache - {u}) | {v}, c + trace.weights[u])
        states = nxt_states
    return min(states.values()) if states else 0


def opt_single_server(trace: RequestTrace) -> int:
    """OPT(1) in closed form: a lone server must chase every node change,
    paying the weight of the node it leaves."""
    reqs = trace.requests
    return sum(
        trace.weights[reqs[i - 1]]
        for i in range(1, len(reqs))
        if reqs[i] != reqs[i - 1]
    )
