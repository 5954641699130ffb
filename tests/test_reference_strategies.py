"""Every strategy against a step-by-step reference implementation.

The references make each decision the slow, obvious way: the lowest
unplaced server is found by a scan, victims by ``min(range(k))`` over
per-server stamps and labels (GreedyDual subtracts every label eagerly),
and marking sorts its candidates afresh at each miss before
``randrange``.  They build the event log as they go, so the comparison
covers the engines' decisions and the on-demand expansion of their logs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecomp.strategies import (
    FLUSH,
    FREE,
    HIT,
    MAX_LOWER,
    MOVE,
    Event,
    _label_loop,
    run,
)
from cachecomp.trace import RequestTrace, generate_cyclic

SPECS = ["lru", "fifo", "fwf", "balance", "mark", "greedydual:max", "greedydual:min"]


class RefState:
    def __init__(self, trace, k):
        self.trace, self.k = trace, k
        self.node_of = [None] * k
        self.where = {}
        self.events = []
        self.cost = 0

    def unplaced_server(self):
        return next((s for s in range(self.k) if self.node_of[s] is None), None)

    def hit(self, i, v):
        self.events.append(Event(i, v, HIT))
        return self.where[v]

    def place(self, i, v, s):
        self.node_of[s] = v
        self.where[v] = s
        self.events.append(Event(i, v, FREE))

    def move(self, i, v, s):
        old = self.node_of[s]
        cost = self.trace.weights[old]
        del self.where[old]
        self.node_of[s] = v
        self.where[v] = s
        self.events.append(Event(i, v, MOVE, evicted=old, cost=cost))
        self.cost += cost
        return cost


def ref_recency(trace, k, by_move):
    state = RefState(trace, k)
    last_touch, last_move = [0] * k, [0] * k
    for i, v in enumerate(trace.requests):
        if v in state.where:
            last_touch[state.hit(i, v)] = i
            continue
        s = state.unplaced_server()
        if s is not None:
            state.place(i, v, s)
        else:
            stamp = last_move if by_move else last_touch
            s = min(range(k), key=lambda s2: (stamp[s2], s2))
            state.move(i, v, s)
        last_touch[s] = last_move[s] = i
    return state


def ref_fwf(trace, k):
    state = RefState(trace, k)
    for i, v in enumerate(trace.requests):
        if v in state.where:
            state.hit(i, v)
            continue
        if len(state.where) == k:
            cost = sum(trace.weights[u] for u in state.node_of)
            state.where.clear()
            state.node_of = [None] * k
            state.events.append(Event(i, v, FLUSH, cost=cost))
            state.cost += cost
        state.place(i, v, state.unplaced_server())
    return state


def ref_balance(trace, k):
    state = RefState(trace, k)
    traveled = [0] * k
    for i, v in enumerate(trace.requests):
        if v in state.where:
            state.hit(i, v)
            continue
        s = state.unplaced_server()
        if s is not None:
            state.place(i, v, s)
            continue
        s = min(
            range(k), key=lambda s2: (trace.weights[state.node_of[s2]] + traveled[s2], s2)
        )
        traveled[s] += state.move(i, v, s)
    return state


def ref_mark(trace, k, seed):
    state = RefState(trace, k)
    rng = random.Random(seed)
    phase_nodes = set()
    for i, v in enumerate(trace.requests):
        if v not in phase_nodes and len(phase_nodes) == k:
            phase_nodes = set()
        if v in state.where:
            state.hit(i, v)
        elif (s := state.unplaced_server()) is not None:
            state.place(i, v, s)
        else:
            candidates = sorted(u for u in state.where if u not in phase_nodes)
            u = candidates[rng.randrange(len(candidates))]
            state.move(i, v, state.where[u])
        phase_nodes.add(v)
    return state


def ref_greedydual(trace, k, relabel):
    """Labels kept as actual values and lowered eagerly; also returns the
    cumulative lowering at the start of each request, then the total."""
    state = RefState(trace, k)
    lo, hi = [0] * k, [0] * k
    last_touch, last_move = [0] * k, [0] * k
    lowered, offsets = 0, []
    for i, v in enumerate(trace.requests):
        offsets.append(lowered)
        w = trace.weights[v]
        if v in state.where:
            s = state.hit(i, v)
            hi[s], last_touch[s] = w, i
            continue
        s = state.unplaced_server()
        if s is None:
            delta = min(hi) if relabel == MAX_LOWER else min(lo)
            lowered += delta
            lo = [x - delta for x in lo]
            hi = [x - delta for x in hi]
            eligible = [s2 for s2 in range(k) if lo[s2] <= 0]
            if relabel == MAX_LOWER:
                s = min(eligible, key=lambda s2: (hi[s2], last_touch[s2], s2))
            else:
                s = min(eligible, key=lambda s2: (lo[s2], last_move[s2], s2))
            state.move(i, v, s)
        else:
            state.place(i, v, s)
        lo[s] = hi[s] = w
        last_touch[s] = last_move[s] = i
    offsets.append(lowered)
    return state, offsets


def reference(spec, k, trace, seed):
    if spec.startswith("greedydual"):
        return ref_greedydual(trace, k, spec.partition(":")[2])[0]
    if spec in ("lru", "fifo"):
        return ref_recency(trace, k, by_move=spec == "fifo")
    if spec == "fwf":
        return ref_fwf(trace, k)
    if spec == "balance":
        return ref_balance(trace, k)
    return ref_mark(trace, k, seed)


def assert_matches_reference(spec, k, trace, seed):
    got = run(spec, k, trace, seed=seed)
    ref = reference(spec, k, trace, seed)
    assert got.events == tuple(ref.events)
    assert got.total_cost == ref.cost
    assert got.paid == tuple(
        (e.index, e.evicted) for e in ref.events if e.kind in (MOVE, FLUSH)
    )


@st.composite
def traces(draw):
    nodes = draw(st.integers(1, 12))
    wmax = draw(st.sampled_from([1, 1, 9, 50]))
    weights = draw(st.lists(st.integers(1, wmax), min_size=nodes, max_size=nodes))
    n = draw(st.integers(0, 80))  # a list strategy would stay near empty
    requests = draw(st.lists(st.integers(0, nodes - 1), min_size=n, max_size=n))
    return RequestTrace(tuple(requests), tuple(weights), tuple(f"n{i}" for i in range(nodes)))


class TestAgainstReference:
    @pytest.mark.parametrize("spec", SPECS)
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(trace=traces(), k=st.integers(1, 10), seed=st.integers(0, 2**64))
    def test_logs_match(self, spec, trace, k, seed):
        assert_matches_reference(spec, k, trace, seed)

    @pytest.mark.parametrize("relabel", ["max", "min"])
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(trace=traces(), k=st.integers(1, 10))
    def test_greedydual_offsets_match(self, relabel, trace, k):
        # dualcert reads (a, b) off the offset after each paid move
        levels = []
        _label_loop(trace, k, f"greedydual:{relabel}", levels=levels)
        state, offsets = ref_greedydual(trace, k, relabel)
        assert levels == [offsets[e.index + 1] for e in state.events if e.kind == MOVE]

    @pytest.mark.parametrize("spec", SPECS)
    def test_long_cyclic_and_skewed_traces(self, spec):
        # long runs exercise heap compaction and many mark phases
        rng = random.Random(17)
        skewed = RequestTrace(
            tuple(min(int(rng.expovariate(0.15)), 39) for _ in range(3000)),
            tuple(rng.randint(1, 30) for _ in range(40)),
            tuple(f"n{i}" for i in range(40)),
        )
        for k in (1, 3, 8, 17):
            assert_matches_reference(spec, k, generate_cyclic(k + 1, 400), seed=k)
            assert_matches_reference(spec, k, skewed, seed=k)
