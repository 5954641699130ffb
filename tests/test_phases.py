import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecomp.offline import opt_flow
from cachecomp.phases import (
    PhasePartition,
    harmonic,
    mark_upper_bound,
    opt_phase_lower_bound,
    partition,
    verify_phase_shrink,
)
from cachecomp.strategies import run
from cachecomp.trace import generate_random, parse_trace
from test_reference_strategies import traces

ABCABD = parse_trace("a\nb\nc\na\nb\nd\n")


def reference_partition(trace, k):
    """The list-of-sets walk: every phase's node set is kept, and m is read
    off consecutive sets afterwards."""
    boundaries, phase_sets = [], []
    current = set()
    for i, v in enumerate(trace.requests):
        if not boundaries:
            boundaries.append(0)
            phase_sets.append(current)
        if v not in current and len(current) == k:
            current = {v}
            boundaries.append(i)
            phase_sets.append(current)
        else:
            current.add(v)
    m = tuple(len(b - a) for a, b in zip(phase_sets, phase_sets[1:]))
    return tuple(boundaries), m


def _partition_peak(trace, k):
    tracemalloc.start()
    try:
        partition(trace, k)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPartition:
    def test_hand_example(self):
        p = partition(ABCABD, 2)
        assert p.boundaries == (0, 2, 4)
        assert p.num_phases == 2
        assert p.m == (1, 2)
        assert p.avenew == Fraction(3, 2)
        assert p.avenew_defined

    def test_single_phase(self):
        p = partition(parse_trace("a\nb\na\n"), 2)
        assert p.num_phases == 0
        assert p.avenew == 0 and not p.avenew_defined

    def test_k1_runs(self):
        p = partition(parse_trace("a\nb\na\n"), 1)
        assert p.boundaries == (0, 1, 2)
        assert p.m == (1, 1)

    def test_empty_trace(self):
        p = partition(parse_trace(""), 3)
        assert p.boundaries == () and p.num_phases == 0

    def test_phases_are_maximal_with_k_distinct(self):
        rng = random.Random(0)
        for trial in range(40):
            t = generate_random(rng.choice([3, 5, 10]), rng.randint(1, 120), 1, seed=trial)
            k = rng.randint(1, 6)
            p = partition(t, k)
            slices = p.phase_slices()
            assert slices[0][0] == 0 and slices[-1][1] == len(t)
            for idx, (s, e) in enumerate(slices):
                distinct = len(set(t.requests[s:e]))
                assert distinct <= k
                if idx < len(slices) - 1:
                    assert distinct == k  # maximality: boundary opens a new node

    def test_consecutive_phase_distinct_identity(self):
        rng = random.Random(1)
        for trial in range(40):
            t = generate_random(rng.choice([3, 5, 10]), rng.randint(2, 120), 1, seed=trial)
            k = rng.randint(1, 6)
            p = partition(t, k)
            slices = p.phase_slices()
            for i in range(1, len(slices)):
                prev = set(t.requests[slices[i - 1][0] : slices[i - 1][1]])
                cur = set(t.requests[slices[i][0] : slices[i][1]])
                if len(prev) == k:
                    assert len(prev | cur) == k + p.m[i - 1]
                else:
                    assert len(prev | cur) >= len(prev) + p.m[i - 1]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(trace=traces(), k=st.integers(1, 12))
    def test_matches_list_of_sets_reference(self, trace, k):
        p = partition(trace, k)
        assert (p.boundaries, p.m) == reference_partition(trace, k)
        slice_weights = tuple(
            sum(trace.weights[v] for v in set(trace.requests[s:e]))
            for s, e in p.phase_slices()
        )
        assert p.weights == slice_weights

    def test_new_request_opens_every_phase(self):
        rng = random.Random(2)
        for trial in range(30):
            t = generate_random(5, 100, 1, seed=trial)
            p = partition(t, rng.randint(1, 5))
            assert all(m_i >= 1 for m_i in p.m)


class TestMemory:
    def test_partition_state_is_o_k(self):
        """Ten times the requests, and ten times the phases, leave the
        traced peak of the walk nearly unchanged: it keeps two phases'
        node sets, not one per phase."""
        short = generate_random(5000, 4000, 1, seed=43)
        long = generate_random(5000, 40000, 1, seed=43)
        assert partition(long, 512).num_phases > 8 * partition(short, 512).num_phases
        small_peak, large_peak = _partition_peak(short, 512), _partition_peak(long, 512)
        assert large_peak < 2 * small_peak, (small_peak, large_peak)


class TestPhaseShrink:
    def test_hand_example(self):
        # avenew = 3/2 so k' = 2 + 3 = 5 >= distinct count: P(5) = 0 <= 3/4 * 2
        assert verify_phase_shrink(ABCABD, 2)

    def test_requires_multiple_phases(self):
        with pytest.raises(ValueError):
            verify_phase_shrink(parse_trace("a\nb\n"), 2)

    def test_holds_on_random_traces(self):
        rng = random.Random(3)
        for trial in range(80):
            t = generate_random(rng.choice([3, 5, 10, 25]), rng.randint(2, 200),
                                rng.choice([1, 10]), seed=trial)
            k = rng.randint(1, 8)
            if partition(t, k).num_phases > 0:
                assert verify_phase_shrink(t, k)


class TestHarmonic:
    def test_exact_values(self):
        assert harmonic(0) == 0
        assert harmonic(1) == 1
        assert harmonic(2) == Fraction(3, 2)
        assert harmonic(4) == Fraction(25, 12)

    def test_float_tail_is_close(self):
        exact = float(harmonic(10_000))
        approx = harmonic(10_001)
        assert isinstance(approx, float)
        assert abs(approx - (exact + 1 / 10_001)) < 1e-9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic(-1)


class TestMarkUpperBound:
    def test_full_phase(self):
        # one phase of k new requests costs at most k
        p = PhasePartition(3, 6, (0, 3), (3,), (3, 3))
        assert mark_upper_bound(p) == 3

    def test_single_new_request(self):
        p = PhasePartition(2, 4, (0, 2), (1,), (2, 2))
        assert mark_upper_bound(p) == Fraction(3, 2)

    def test_no_phases_no_bound(self):
        p = PhasePartition(2, 2, (0,), (), (2,))
        assert mark_upper_bound(p) == 0

    def test_monte_carlo_mean_respects_bound(self):
        trials = 400
        rng_traces = [(generate_random(6, 150, 1, seed=s), 3) for s in range(3)]
        for t, k in rng_traces:
            p = partition(t, k)
            bound = mark_upper_bound(p)
            costs = [run("mark", k, t, seed=s).total_cost for s in range(trials)]
            mean = sum(costs) / trials
            var = sum((c - mean) ** 2 for c in costs) / (trials - 1)
            se = (var / trials) ** 0.5
            assert mean <= float(bound) + 3 * se


class TestOptPhaseLowerBound:
    def test_hand_example(self):
        p = partition(ABCABD, 2)
        assert opt_phase_lower_bound(p, 2) == Fraction(3, 2)
        # integral optimum must clear the ceiling of the bound
        assert opt_flow(ABCABD, 2).cost >= 2

    def test_degenerate_cases(self):
        p = partition(parse_trace("a\nb\n"), 2)
        assert opt_phase_lower_bound(p, 2) == 0
        big_h = opt_phase_lower_bound(partition(ABCABD, 2), 10)
        assert big_h == 0  # clamped, never negative

    def test_holds_against_flow(self):
        rng = random.Random(4)
        for trial in range(30):
            t = generate_random(rng.choice([3, 5, 10]), rng.randint(2, 80),
                                rng.choice([1, 10]), seed=trial)
            k = rng.randint(1, 6)
            p = partition(t, k)
            for h in range(1, k + 1):
                assert opt_flow(t, h).cost >= opt_phase_lower_bound(p, h)

    def test_h_validation(self):
        with pytest.raises(ValueError):
            opt_phase_lower_bound(partition(ABCABD, 2), 0)


class TestStrategyPhaseBounds:
    """Phase-count and new-request bounds for paging strategies."""

    def test_flush_count_equals_num_phases(self):
        rng = random.Random(5)
        for trial in range(30):
            t = generate_random(rng.choice([3, 5, 10]), rng.randint(1, 150), 1, seed=trial)
            k = rng.randint(1, 6)
            flushes = sum(1 for e in run("fwf", k, t).events if e.kind == "flush")
            assert flushes == partition(t, k).num_phases

    @pytest.mark.parametrize("name", ["lru", "fifo", "fwf", "mark"])
    def test_cost_at_most_k_per_paid_phase(self, name):
        rng = random.Random(6)
        for trial in range(20):
            t = generate_random(rng.choice([3, 5, 10]), rng.randint(1, 150), 1, seed=trial)
            k = rng.randint(1, 6)
            cost = run(name, k, t, seed=trial).total_cost
            assert cost <= k * partition(t, k).num_phases

    @pytest.mark.parametrize("name", ["lru", "fifo", "fwf"])
    def test_avenew_bounded_by_cost_ratio(self, name):
        rng = random.Random(7)
        for trial in range(20):
            t = generate_random(rng.choice([3, 5, 10]), rng.randint(2, 120), 1, seed=trial)
            k = rng.randint(1, 6)
            cost = run(name, k, t).total_cost
            if cost == 0:
                continue
            p = partition(t, k)
            opt_k = opt_flow(t, k).cost
            assert p.avenew <= Fraction(2 * k * opt_k, cost)
