import hashlib
import random
import sys
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecomp import offline
from cachecomp.offline import (
    FLOW_CAP,
    InstanceSizeError,
    OptSchedule,
    opt_belady,
    opt_bruteforce,
    opt_flow,
    opt_flow_profile,
    opt_paging_profile,
    opt_single_server,
)
from cachecomp.sweep import sweep
from cachecomp.trace import RequestTrace, generate_cyclic, generate_random, parse_trace

ABCA = parse_trace("a\nb\nc\na\n")
PINNED_SCHEDULES = "8ff5649f7547ad8d0b098e9b20f1a02bd2c9f0fe0d17b34d46411d6eb79938a0"


class TestOptFlow:
    def test_abca_k2(self):
        assert opt_flow(ABCA, 2).cost == 1

    def test_fits_in_cache_costs_zero(self):
        t = parse_trace("a\nb\na\nb\n")
        for k in (2, 3, 5):
            assert opt_flow(t, k).cost == 0

    def test_weighted_keeps_heavy_node(self):
        t = parse_trace("a 5\nb\nc\n")
        assert opt_flow(t, 2).cost == 1

    def test_empty_trace(self):
        t = parse_trace("")
        assert opt_flow(t, 3).cost == 0

    def test_size_cap(self):
        t = generate_cyclic(2, FLOW_CAP + 1)
        with pytest.raises(InstanceSizeError, match=f"capped at {FLOW_CAP} requests"):
            opt_flow(t, 2)
        with pytest.raises(InstanceSizeError):
            opt_flow_profile(t, 2)

    def test_size_cap_is_inclusive(self, monkeypatch):
        """A trace of exactly ``FLOW_CAP`` requests solves, under the flow,
        its profile and a weighted sweep; one request more is refused."""
        monkeypatch.setattr(offline, "FLOW_CAP", 40)
        at_cap = generate_random(6, 40, 5, seed=3)
        profile = opt_flow_profile(at_cap, 3)
        assert [opt_flow(at_cap, k).cost for k in (1, 2, 3)] == profile
        assert [row.opt_cost for row in sweep(at_cap, ["lru"], 3).rows] == profile
        over = generate_random(6, 41, 5, seed=3)
        for solve in (
            lambda: opt_flow(over, 2),
            lambda: opt_flow_profile(over, 2),
            lambda: sweep(over, ["lru"], 2),
        ):
            with pytest.raises(InstanceSizeError, match="^flow solver capped at 40 requests"):
                solve()

    def test_k_validation(self):
        with pytest.raises(ValueError):
            opt_flow(ABCA, 0)

    def test_schedule_is_well_formed(self):
        rng = random.Random(1)
        for trial in range(60):
            nodes = rng.choice([2, 3, 5, 12, 40])
            t = generate_random(nodes, rng.randint(1, 200), rng.choice([1, 6, 20]), seed=trial)
            assert_schedule_is_optimal(t, rng.randint(1, 8))

    @pytest.mark.parametrize(
        "text,k",
        [
            ("a 3\nb\nc\na 3\nb\nc\n", 3),  # k = distinct nodes
            ("a 3\nb\nc\na 3\nb\nc\n", 6),  # k > distinct nodes
            ("a 3\nb\n", 5),  # k > N
            ("", 3),  # empty trace
            ("a 4\n", 1),  # one request
            ("a 4\n", 2),
            ("a 2\nb 3\nc 4\nd\n", 2),  # every interval runs to node N
            ("a 2\nb 3\nc 4\nd\n", 3),
            ("a 5\nb\na 5\nb\n", 2),  # interval parallel to a request arc
        ],
    )
    def test_schedule_edge_cases(self, text, k):
        t = parse_trace(text)
        sched = assert_schedule_is_optimal(t, k)
        assert len(sched.predecessor) == len(t) + 1
        if k >= t.distinct_requested():
            assert sched.cost == 0

    def test_schedules_are_pinned(self):
        """sha256 of the profiles and schedules on a seeded weighted corpus,
        recorded with the paired-arc residual network.  ``optimal --out``
        writes the predecessor array, and a solver that breaks Dijkstra's
        ties another way returns another schedule of the same cost."""
        h = hashlib.sha256()
        rng = random.Random(24)
        for trial in range(200):
            t = generate_random(
                rng.randint(1, 15), rng.randint(1, 120), rng.choice([1, 9, 50]), seed=trial
            )
            for k in (rng.randint(1, 4), rng.randint(5, 12)):
                h.update(repr((opt_flow_profile(t, k), opt_flow(t, k).predecessor)).encode())
        assert h.hexdigest() == PINNED_SCHEDULES

    def test_heavy_node_stays_parked(self):
        # h is never requested again; keeping its server parked saves 9,
        # more than the three unit evictions the other server then pays
        t = parse_trace("h 9\na\nb\na\nb\n")
        sched = assert_schedule_is_optimal(t, 2)
        assert sched.cost == 3
        assert 1 not in sched.predecessor[1:]


def assert_schedule_is_optimal(t: RequestTrace, k: int) -> OptSchedule:
    """The schedule is well formed, its recomputed cost is its reported
    cost, and that cost is the profile's OPT(k)."""
    sched = opt_flow(t, k)
    used = set()
    zero_uses = 0
    cost = 0
    for j in range(1, len(t) + 1):
        i = sched.predecessor[j]
        assert 0 <= i < j
        if i == 0:
            zero_uses += 1
        else:
            assert i not in used
            used.add(i)
            vi, vj = t.requests[i - 1], t.requests[j - 1]
            cost += 0 if vi == vj else t.weights[vi]
    assert zero_uses <= k
    assert cost == sched.cost == opt_flow_profile(t, k)[-1]
    return sched


class TestOracleTriangle:
    def test_flow_equals_bruteforce_small(self):
        rng = random.Random(2024)
        for trial in range(120):
            nodes = rng.randint(1, 4)
            length = rng.randint(1, 10)
            weights = tuple(rng.choice([1, 5]) for _ in range(nodes))
            reqs = tuple(rng.randrange(nodes) for _ in range(length))
            t = RequestTrace(reqs, weights, tuple(f"n{i}" for i in range(nodes)))
            k = rng.randint(1, 3)
            assert opt_flow(t, k).cost == opt_bruteforce(t, k)

    def test_belady_equals_flow_unit_weights(self):
        rng = random.Random(7)
        for trial in range(40):
            t = generate_random(rng.choice([3, 5, 10]), rng.randint(5, 120), 1, seed=trial)
            k = rng.randint(1, 12)
            assert opt_belady(t, k) == opt_flow(t, k).cost

    def test_belady_on_cyclic(self):
        t = generate_cyclic(5, 60)
        for k in range(1, 7):
            assert opt_belady(t, k) == opt_flow(t, k).cost

    def test_flow_equals_networkx_assignment(self):
        rng = random.Random(99)
        for trial in range(40):
            t = generate_random(rng.choice([2, 4, 8, 16]), rng.randint(1, 40), 9, seed=trial)
            k = rng.randint(1, 6)
            assert opt_flow(t, k).cost == networkx_assignment_opt(t, k), (trial, k)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        weights=st.lists(st.sampled_from([1, 5, 7]), min_size=1, max_size=4),
        picks=st.lists(st.integers(0, 3), max_size=10),
        k=st.integers(1, 4),
    )
    def test_bruteforce_flow_belady_agree(self, weights, picks, k):
        reqs = tuple(p % len(weights) for p in picks)
        t = RequestTrace(reqs, tuple(weights), tuple(f"n{i}" for i in range(len(weights))))
        opt = opt_flow(t, k).cost
        assert opt == opt_bruteforce(t, k)
        unit = RequestTrace(reqs, (1,) * len(weights), t.labels)
        assert opt_belady(unit, k) == opt_flow(unit, k).cost == opt_bruteforce(unit, k)


def networkx_assignment_opt(t: RequestTrace, k: int) -> int:
    """OPT(k) on the direct predecessor-assignment network: request j is
    served by the server of any earlier request i (cost w(r_i) unless
    r_i = r_j) or by one of k initial placements, every request exactly
    once.  O(N^2) arcs, solved by networkx."""
    g = nx.DiGraph()
    n = len(t)
    g.add_edge("s", ("free", 0), capacity=k, weight=0)
    for i in range(1, n + 1):
        g.add_edge("s", ("free", i), capacity=1, weight=0)
        g.add_edge(("serve", i), "t", capacity=1, weight=0)
    for j in range(1, n + 1):
        vj = t.requests[j - 1]
        g.add_edge(("free", 0), ("serve", j), capacity=1, weight=0)
        for i in range(1, j):
            vi = t.requests[i - 1]
            g.add_edge(("free", i), ("serve", j), capacity=1,
                       weight=0 if vi == vj else t.weights[vi])
    flow = nx.max_flow_min_cost(g, "s", "t")
    assert sum(flow[("serve", j)]["t"] for j in range(1, n + 1)) == n
    return nx.cost_of_flow(g, flow)


class TestBelady:
    def test_abca(self):
        assert opt_belady(ABCA, 2) == 1

    def test_rejects_weighted(self):
        with pytest.raises(ValueError):
            opt_belady(parse_trace("a 2\n"), 1)

    def test_all_nodes_fit(self):
        t = generate_random(4, 50, 1, seed=5)
        assert opt_belady(t, 4) == 0

    def test_single_server_closed_form(self):
        for seed in range(6):
            t = generate_random(5, 60, 8, seed=seed)
            assert opt_single_server(t) == opt_flow(t, 1).cost


@st.composite
def paging_traces(draw):
    """Unit-weight traces: random ones (empty and one-node included) and
    cycles, whose OPT changes at every k below the cycle length."""
    if draw(st.booleans()):
        return generate_cyclic(draw(st.integers(2, 9)), draw(st.integers(1, 60)))
    nodes = draw(st.integers(1, 8))
    reqs = draw(st.lists(st.integers(0, nodes - 1), max_size=50))
    return RequestTrace(tuple(reqs), (1,) * nodes, tuple(f"n{i}" for i in range(nodes)))


class TestOptPagingProfile:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(trace=paging_traces(), n=st.integers(1, 12))
    def test_matches_belady_and_flow_for_every_k(self, trace, n):
        got = opt_paging_profile(trace, n)
        assert got == [opt_belady(trace, k) for k in range(1, n + 1)]
        assert got == opt_flow_profile(trace, n)

    def test_edges(self):
        assert opt_paging_profile(parse_trace(""), 3) == [0, 0, 0]
        assert opt_paging_profile(parse_trace("a\na\na\n"), 2) == [0, 0]
        # n above the distinct count: the tail is OPT(distinct) = 0
        t = generate_cyclic(4, 40)
        assert opt_paging_profile(t, 9) == [opt_belady(t, k) for k in range(1, 10)]
        assert opt_paging_profile(t, 9)[3:] == [0] * 6
        long_cycle = generate_cyclic(65, 1300)
        assert opt_paging_profile(long_cycle, 64) == [
            opt_belady(long_cycle, k) for k in range(1, 65)
        ]

    def test_rejects_weighted_and_n_below_one(self):
        with pytest.raises(ValueError):
            opt_paging_profile(parse_trace("a 2\nb\n"), 2)
        with pytest.raises(ValueError):
            opt_paging_profile(ABCA, 0)

    def test_no_o_n_state_beyond_the_result(self):
        """The stack and hit counters hold min(n, distinct) entries, so a
        huge n costs only the returned list."""
        t = parse_trace("a\nb\nc\na\nd\nb\n")

        def peak_beyond_result(n):
            tracemalloc.start()
            try:
                result = opt_paging_profile(t, n)
                return tracemalloc.get_traced_memory()[1] - sys.getsizeof(result)
            finally:
                tracemalloc.stop()

        small = peak_beyond_result(10)
        assert peak_beyond_result(10**6) < 2 * small


class TestBruteForce:
    def test_abca(self):
        assert opt_bruteforce(ABCA, 2) == 1

    def test_single_node(self):
        assert opt_bruteforce(parse_trace("a\na\n"), 1) == 0

    def test_alternation_single_server(self):
        t = parse_trace("a\nb\na\nb\na\nb\n")
        assert opt_bruteforce(t, 1) == 5

    def test_caps(self):
        t = generate_random(3, 20, 1, seed=0)
        with pytest.raises(InstanceSizeError):
            opt_bruteforce(t, 2)
        with pytest.raises(InstanceSizeError):
            opt_bruteforce(parse_trace("a\n"), 5)


class TestProfiles:
    def test_profile_matches_independent_solves(self):
        rng = random.Random(3)
        for trial in range(15):
            t = generate_random(rng.choice([3, 5, 8]), rng.randint(5, 60), 9, seed=trial)
            kmax = 6
            profile = opt_flow_profile(t, kmax)
            assert profile == [opt_flow(t, h).cost for h in range(1, kmax + 1)]

    def test_profile_non_increasing(self):
        t = generate_random(10, 150, 4, seed=11)
        profile = opt_flow_profile(t, 12)
        assert profile == sorted(profile, reverse=True)

    def test_profile_stops_early_and_pads(self):
        rng = random.Random(8)
        for trial in range(20):
            t = generate_random(rng.choice([3, 6, 10]), rng.randint(1, 120), 9, seed=trial)
            k = rng.randint(1, 30)
            profile = opt_flow_profile(t, k)
            assert len(profile) == k
            stop = next((h for h in range(1, k) if profile[h] == profile[h - 1]), k)
            assert profile[stop:] == [profile[stop - 1]] * (k - stop)
            assert profile[-1] == opt_flow(t, k).cost
        # more servers than distinct nodes: OPT is 0 from there on, and the
        # long tail is padding, not one augmentation per server
        t = generate_random(4, 200, 9, seed=1)
        profile = opt_flow_profile(t, 10_000)
        assert len(profile) == 10_000
        assert profile[3:] == [0] * (10_000 - 3)

    def test_profile_head_is_single_server(self):
        t = generate_random(6, 80, 5, seed=13)
        assert opt_flow_profile(t, 3)[0] == opt_single_server(t)
