"""Online eviction strategies run against a trace with k servers.

All strategies share the free-initial-placement convention: a request to an
unserved node is satisfied by an unplaced server at no cost while one
remains; only after all k servers are placed does a miss force a paid move.
Costs are exact integers (the weight of the vacated node).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Event:
    """One log entry.  ``index`` is the 0-based position in the trace.

    kind=="move" carries the evicted node and its weight as cost;
    kind=="flush" (flush-when-full only) carries cost k and no single
    evicted node, and is followed by a "free" event for the same index.
    """

    index: int
    node: int
    kind: str
    evicted: int | None = None
    cost: int = 0


@dataclass(frozen=True)
class SimulationResult:
    strategy: str
    k: int
    events: tuple[Event, ...]
    total_cost: int
    final_nodes: tuple[int | None, ...]  # per server id; None = never placed

    def moves(self) -> tuple[Event, ...]:
        """Paid events only (moves and flushes)."""
        return tuple(e for e in self.events if e.kind in (MOVE, FLUSH))

    def eviction_decisions(self) -> tuple[tuple[int, int | None], ...]:
        """(request index, evicted node) for every paid event."""
        return tuple((e.index, e.evicted) for e in self.moves())


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


@dataclass
class _State:
    """Shared simulation bookkeeping for the placed-server pool."""

    k: int
    trace: RequestTrace
    where: dict[int, int] = field(default_factory=dict)  # node -> server id
    node_of: list[int | None] = field(default_factory=list)  # server id -> node
    events: list[Event] = field(default_factory=list)
    total_cost: int = 0

    def __post_init__(self) -> None:
        self.node_of = [None] * self.k

    @property
    def placed(self) -> int:
        return len(self.where)

    def unplaced_server(self) -> int | None:
        for s in range(self.k):
            if self.node_of[s] is None:
                return s
        return None

    def hit(self, i: int, v: int) -> int:
        s = self.where[v]
        self.events.append(Event(i, v, HIT))
        return s

    def place(self, i: int, v: int, s: int) -> None:
        self.node_of[s] = v
        self.where[v] = s
        self.events.append(Event(i, v, FREE))

    def move(self, i: int, v: int, s: int) -> int:
        old = self.node_of[s]
        assert old is not None
        cost = self.trace.weights[old]
        del self.where[old]
        self.node_of[s] = v
        self.where[v] = s
        self.events.append(Event(i, v, MOVE, evicted=old, cost=cost))
        self.total_cost += cost
        return cost

    def result(self, name: str) -> SimulationResult:
        return SimulationResult(
            name, self.k, tuple(self.events), self.total_cost, tuple(self.node_of)
        )


def _run_recency(trace: RequestTrace, k: int, by_move: bool) -> _State:
    """LRU (by_move=False) and FIFO (by_move=True).

    LRU evicts the served node whose last request is oldest; FIFO evicts the
    server whose last placement/move is oldest (requests to served nodes do
    not refresh it).
    """
    st = _State(k, trace)
    last_touch = [0] * k
    last_move = [0] * k
    for i, v in enumerate(trace.requests):
        if v in st.where:
            s = st.hit(i, v)
            last_touch[s] = i
            continue
        s = st.unplaced_server()
        if s is not None:
            st.place(i, v, s)
        else:
            stamp = last_move if by_move else last_touch
            s = min(range(k), key=lambda s2: (stamp[s2], s2))
            st.move(i, v, s)
        last_touch[s] = i
        last_move[s] = i
    return st


def _run_fwf(trace: RequestTrace, k: int) -> _State:
    """Flush-when-full: on a miss with every server placed, remove all
    servers at a flat cost of k, then keep placing for free."""
    st = _State(k, trace)
    for i, v in enumerate(trace.requests):
        if v in st.where:
            st.hit(i, v)
            continue
        if st.placed == k:
            st.where.clear()
            st.node_of = [None] * k
            st.events.append(Event(i, v, FLUSH, cost=k))
            st.total_cost += k
        s = st.unplaced_server()
        assert s is not None
        st.place(i, v, s)
    return st


def _run_balance(trace: RequestTrace, k: int) -> _State:
    """Move the server minimizing (weight of its node + distance traveled
    so far); ties go to the smallest server id."""
    st = _State(k, trace)
    traveled = [0] * k
    for i, v in enumerate(trace.requests):
        if v in st.where:
            st.hit(i, v)
            continue
        s = st.unplaced_server()
        if s is not None:
            st.place(i, v, s)
            continue
        s = min(
            range(k),
            key=lambda s2: (trace.weights[st.node_of[s2]] + traveled[s2], s2),
        )
        cost = st.move(i, v, s)
        traveled[s] += cost
    return st


def _run_mark(trace: RequestTrace, k: int, seed: int) -> _State:
    """Randomized marking: evict uniformly among servers on nodes not yet
    requested in the current k-phase.  Phases restart when a request would
    bring the phase's distinct-node count past k."""
    st = _State(k, trace)
    rng = random.Random(seed)
    phase_nodes: set[int] = set()
    for i, v in enumerate(trace.requests):
        if v not in phase_nodes and len(phase_nodes) == k:
            phase_nodes = set()
        if v in st.where:
            st.hit(i, v)
        else:
            s = st.unplaced_server()
            if s is not None:
                st.place(i, v, s)
            else:
                candidates = sorted(u for u in st.where if u not in phase_nodes)
                assert candidates, "marking invariant: an unmarked served node exists"
                u = candidates[rng.randrange(len(candidates))]
                st.move(i, v, st.where[u])
        phase_nodes.add(v)
    return st


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
    """The label loop of ``run_greedydual``, also returning the offset at
    the start of each request followed by the final offset (N+1 ints).

    The offset is the cumulative uniform raise of the dual in
    ``dualcert``, which reads (a, b) off these values.
    """
    if relabel not in (MAX_LOWER, MIN_LOWER):
        raise ValueError(f"unknown relabel policy {relabel!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    st = _State(k, trace)
    offset = 0
    lo = [0] * k  # stored L; actual L = lo[s] - offset
    hi = [0] * k  # stored H; actual H = hi[s] - offset
    last_touch = [0] * k
    last_move = [0] * k
    offsets: list[int] = []
    for i, v in enumerate(trace.requests):
        offsets.append(offset)
        w = trace.weights[v]
        if v in st.where:
            s = st.hit(i, v)
            hi[s] = w + offset
            last_touch[s] = i
            continue
        s = st.unplaced_server()
        if s is not None:
            st.place(i, v, s)
            lo[s] = hi[s] = w + offset
            last_touch[s] = last_move[s] = i
            continue
        # lowering every label by delta = min(H) (or min(L)) lands the
        # offset exactly on the smallest stored label
        offset = min(hi) if relabel == MAX_LOWER else min(lo)
        eligible = [s2 for s2 in range(k) if lo[s2] - offset <= 0]
        if relabel == MAX_LOWER:
            s = min(eligible, key=lambda s2: (hi[s2], last_touch[s2], s2))
        else:
            s = min(eligible, key=lambda s2: (lo[s2], last_move[s2], s2))
        st.move(i, v, s)
        lo[s] = hi[s] = w + offset
        last_touch[s] = last_move[s] = i
    offsets.append(offset)
    return st.result(f"greedydual:{relabel}"), offsets


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
    if name == "lru":
        return _run_recency(trace, k, by_move=False).result("lru")
    if name == "fifo":
        return _run_recency(trace, k, by_move=True).result("fifo")
    if name == "fwf":
        return _run_fwf(trace, k).result("fwf")
    if name == "balance":
        return _run_balance(trace, k).result("balance")
    if name == "mark":
        return _run_mark(trace, k, seed).result("mark")
    if name == "greedydual":
        return run_greedydual(trace, k, strategy.relabel)
    raise ValueError(f"unknown strategy {strategy!r}")
