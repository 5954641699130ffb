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

    t-1 -> t                     cap k, cost 0         (request t)
    i -> next(i) - 1             cap 1, cost -w(r_i)   (interval i)

Every unit runs from node 0 to node N and crosses each request once, so
h-1 units cover each request with at most h-1 intervals.  Successive
shortest paths send one unit per extra server: potentials seeded by one
pass over the DAG make all reduced costs nonnegative, and each unit is
then one Dijkstra.  Once a unit saves nothing, no later one can, so the
profile OPT(1..k) costs at most k-1 Dijkstra runs.

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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class OptSchedule:
    """A minimum-cost schedule.

    ``predecessor[j]`` (1-based over the trace, entry 0 unused) is the
    request whose server serves request j; 0 denotes one of the k free
    initial placements.  Each i >= 1 precedes at most one j, and 0 precedes
    at most k.
    """

    predecessor: tuple[int, ...]
    cost: int
    k: int


class _MinCostFlow:
    """Paired-arc residual network; successive shortest paths with potentials.

    Every arc points from a lower node to a higher one, so one pass in node
    order seeds potentials under which negative arc costs reduce to >= 0,
    and each augmentation is one Dijkstra over reduced costs.
    """

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []
        self.pot: list[int] = [0] * n

    def add_arc(self, u: int, v: int, cap: int, cost: int) -> int:
        aid = len(self.to)
        self.adj[u].append(aid)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.adj[v].append(aid + 1)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        return aid

    def flow_on(self, aid: int) -> int:
        return self.cap[aid ^ 1]

    def seed_potentials(self) -> None:
        """Set each potential to min(0, cheapest path cost into the node).

        One pass in node order suffices because every arc points forward.
        """
        pot, to, cap, cost = self.pot, self.to, self.cap, self.cost
        for u in range(self.n):
            pu = pot[u]
            for aid in self.adj[u]:
                if cap[aid] > 0:
                    v = to[aid]
                    if pu + cost[aid] < pot[v]:
                        pot[v] = pu + cost[aid]

    def send_unit(self, src: int, sink: int) -> int:
        """Push one unit along a shortest path; return its true cost.

        Dijkstra stops when the sink is settled.  Nodes not settled by then
        are at least as far, so raising every potential by
        min(dist, dist[sink]) keeps all residual reduced costs >= 0.
        """
        n = self.n
        dist: list[float] = [_INF] * n
        parent = [-1] * n
        done = bytearray(n)
        dist[src] = 0
        heap: list[tuple[float, int]] = [(0, src)]
        adj, to, cap, cost, pot = self.adj, self.to, self.cap, self.cost, self.pot
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = 1
            if u == sink:
                break
            pu = pot[u]
            for aid in adj[u]:
                if cap[aid] <= 0:
                    continue
                v = to[aid]
                if done[v]:
                    continue
                nd = d + cost[aid] + pu - pot[v]
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = aid
                    heapq.heappush(heap, (nd, v))
        reach = int(dist[sink])
        true_cost = reach + pot[sink] - pot[src]
        for v in range(n):
            pot[v] += min(dist[v], reach)
        v = sink
        while v != src:
            aid = parent[v]
            cap[aid] -= 1
            cap[aid ^ 1] += 1
            v = to[aid ^ 1]
        return true_cost


class _IntervalFlow:
    """The interval network of one trace, for up to k servers."""

    def __init__(self, trace: RequestTrace, k: int):
        n = len(trace)
        reqs = trace.requests
        # next request to the same node, 1-based; n + 1 = none
        nxt = [n + 1] * (n + 1)
        last_seen: dict[int, int] = {}
        for j in range(n, 0, -1):
            v = reqs[j - 1]
            nxt[j] = last_seen.get(v, n + 1)
            last_seen[v] = j
        self.n = n
        self.k = k
        self.nxt = nxt
        self.g = g = _MinCostFlow(n + 1)
        for t in range(1, n + 1):
            g.add_arc(t - 1, t, k, 0)
        self.base = 0
        self.interval_arcs: dict[int, int] = {}
        for i in range(1, n):
            if nxt[i] > i + 1:
                w = trace.weights[reqs[i - 1]]
                self.base += w
                self.interval_arcs[i] = g.add_arc(i, nxt[i] - 1, 1, -w)
        g.seed_potentials()

    def profile(self) -> list[int]:
        """[OPT(1), ..., OPT(j)], j <= k: one augmentation per extra server
        until one saves nothing; OPT keeps the last value from there to k."""
        profile = [self.base]
        while len(profile) < self.k:
            saving = self.g.send_unit(0, self.n)
            if saving == 0:
                break
            profile.append(profile[-1] + saving)
        return profile

    def decode(self) -> tuple[int, ...]:
        """Predecessor array of the flow left by ``profile`` (see the module
        docstring)."""
        n, nxt, g = self.n, self.nxt, self.g
        pred = [-1] * (n + 1)
        pred[0] = 0
        hands_on = [False] * (n + 1)
        for i in range(1, n):
            aid = self.interval_arcs.get(i)
            hands_on[i] = aid is None or g.flow_on(aid) == 1
            if hands_on[i] and nxt[i] <= n:
                pred[nxt[i]] = i
        # at most n draws, so min(k, n) initial placements draw as k would
        pool: deque[int] = deque([0] * min(self.k, n))
        for j in range(1, n + 1):
            if pred[j] < 0:
                pred[j] = pool.popleft()
            if not hands_on[j]:
                pool.append(j)
        return tuple(pred)


def _interval_flow(trace: RequestTrace, k: int) -> _IntervalFlow:
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(trace) > FLOW_CAP:
        raise InstanceSizeError(
            f"flow solver capped at {FLOW_CAP} requests, trace has {len(trace)}; "
            "use belady (unit weights) or sample the trace"
        )
    return _IntervalFlow(trace, k)


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
    cost = net.profile()[-1]
    return OptSchedule(net.decode(), cost, k)


def opt_flow_profile(trace: RequestTrace, k: int) -> list[int]:
    """[OPT(1), OPT(2), ..., OPT(k)] from one incremental flow solve."""
    profile = _interval_flow(trace, k).profile()
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
    n = len(trace)
    reqs = trace.requests
    nxt = [n] * n  # position of the next request to the same node, n = never
    last_seen: dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        v = reqs[i]
        nxt[i] = last_seen.get(v, n)
        last_seen[v] = i
    cached: set[int] = set()
    upcoming: dict[int, int] = {}  # node -> its next use position
    heap: list[tuple[int, int]] = []  # (-next use, node), lazily invalidated
    cost = 0
    for i, v in enumerate(reqs):
        if v not in cached:
            if len(cached) >= k:
                while True:
                    negpos, u = heapq.heappop(heap)
                    if u in cached and upcoming[u] == -negpos:
                        break
                cached.remove(u)
                cost += 1
            cached.add(v)
        upcoming[v] = nxt[i]
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
    nxt = [0] * size  # priority after each request: its node's next use
    last_seen: dict[int, int] = {}
    for i in range(size - 1, -1, -1):
        v = reqs[i]
        nxt[i] = last_seen.get(v, size + i)
        last_seen[v] = i
    distinct = len(last_seen)
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
