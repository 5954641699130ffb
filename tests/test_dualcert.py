import hashlib
import io
import random
import tracemalloc
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecomp.dualcert import (
    CertificateError,
    DualSolution,
    ServedEntry,
    Violation,
    _replay,
    check_feasibility,
    check_feasibility_fast,
    check_primal_dual_bound,
    dual_at_step,
    dual_cost,
    export_certificate,
    run_greedydual_certified,
    served_b_sum,
    served_steps,
    write_certificate,
)
from cachecomp.offline import opt_flow
from cachecomp.strategies import (
    FREE,
    HIT,
    MAX_LOWER,
    MIN_LOWER,
    MOVE,
    SimulationResult,
    _greedydual,
    run_greedydual,
)
from cachecomp.trace import RequestTrace, generate_random, parse_trace
from test_reference_strategies import traces

ABCA = parse_trace("a\nb\nc\na\n")
POLICIES = (MAX_LOWER, MIN_LOWER)


def random_case(trial: int, rng: random.Random):
    nodes = rng.choice([2, 3, 5, 10])
    length = rng.randint(1, 60)
    wmax = rng.choice([1, 1, 10])
    k = rng.randint(1, 6)
    policy = rng.choice(POLICIES)
    return generate_random(nodes, length, wmax, seed=trial), k, policy


class TestDualCost:
    def test_zero_dual_is_zero(self):
        d = DualSolution((0, 0, 0), (0, 0, 0))
        for h in (1, 2, 5):
            assert dual_cost(d, h) == 0

    def test_direct_formula(self):
        # N=1: value = -h*a[0] + b[1]
        d = DualSolution((0, 0), (0, 3))
        assert dual_cost(d, 1) == 3
        d2 = DualSolution((2, 0), (0, 3))
        assert dual_cost(d2, 2) == -1

    def test_h_validation(self):
        with pytest.raises(ValueError):
            dual_cost(DualSolution((0,), (0,)), 0)


def exhaustive_check_feasibility(dual: DualSolution, trace: RequestTrace) -> list[Violation]:
    """Exhaustive O(N^2) constraint check; an empty list means feasible."""
    if dual.n != len(trace):
        raise ValueError("dual solution and trace lengths differ")
    out: list[Violation] = []
    a, b = dual.a, dual.b
    n = dual.n
    for i in range(n + 1):
        if a[i] < 0:
            out.append(Violation(None, i, -a[i]))
    reqs = trace.requests
    weights = trace.weights
    for i in range(n):
        ai = a[i]
        if i == 0:
            for j in range(1, n + 1):
                if b[j] - ai > 0:
                    out.append(Violation(i, j, b[j] - ai))
            continue
        vi = reqs[i - 1]
        wi = weights[vi]
        for j in range(i + 1, n + 1):
            d = 0 if reqs[j - 1] == vi else wi
            if b[j] - ai > d:
                out.append(Violation(i, j, b[j] - ai - d))
    return out


@st.composite
def duals(draw):
    """A trace and an arbitrary dual for it: random entries in [-3, 9] (so b
    is seldom monotone), or a certified dual with at most one entry nudged."""
    nodes = draw(st.integers(1, 4))  # few nodes, so that b values often tie
    weights = draw(st.lists(st.integers(1, 9), min_size=nodes, max_size=nodes))
    n = draw(st.integers(0, 40))  # a list strategy would stay near empty
    requests = draw(st.lists(st.integers(0, nodes - 1), min_size=n, max_size=n))
    trace = RequestTrace(tuple(requests), tuple(weights), tuple(f"n{v}" for v in range(nodes)))
    if n and draw(st.booleans()):
        dual = run_greedydual_certified(
            trace, draw(st.integers(1, 8)), draw(st.sampled_from(POLICIES))
        ).dual
        a, b = list(dual.a), list(dual.b)
        vec = draw(st.sampled_from([a, b]))
        vec[draw(st.integers(0, n))] += draw(st.integers(-3, 3))
    else:
        entries = st.lists(st.integers(-3, 9), min_size=n + 1, max_size=n + 1)
        a, b = draw(entries), draw(entries)
    return trace, DualSolution(tuple(a), tuple(b))


class TestFeasibility:
    def test_zero_dual_feasible(self):
        t = generate_random(3, 10, 4, seed=0)
        d = DualSolution((0,) * 11, (0,) * 11)
        assert check_feasibility(d, t) == []

    def test_single_constraint_violation(self):
        # request 0 is the artificial node: d(r_0, r_1) = 0, so b[1] <= a[0]
        t = parse_trace("a\n")
        d = DualSolution((0, 0), (0, 1))
        assert check_feasibility(d, t) == [Violation(0, 1, 1)]

    def test_negative_a_reported(self):
        t = parse_trace("a\n")
        d = DualSolution((0, -2), (0, 0))
        assert check_feasibility(d, t) == [Violation(None, 1, 2)]

    def test_non_monotone_b_decided_exactly(self):
        t = parse_trace("a\nb\n")
        d = DualSolution((0, 0, 0), (0, 0, 1))
        assert check_feasibility(d, t) == [Violation(0, 2, 1)]

    def test_old_name_is_the_same_check(self):
        assert check_feasibility_fast is check_feasibility

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(case=duals())
    def test_matches_exhaustive_oracle(self, case):
        """Against every constraint: the same verdict, only real violations,
        and per i and constraint kind the largest excess (earliest j on
        ties), in (i, j) order after the negative a entries."""
        trace, dual = case
        got = check_feasibility(dual, trace)
        oracle = exhaustive_check_feasibility(dual, trace)
        assert bool(got) == bool(oracle)
        assert set(got) <= set(oracle)
        worst: dict[tuple[int, bool], Violation] = {}
        for v in oracle:
            if v.i is not None:
                # request 0 shares no node with a user request
                same_node = v.i > 0 and trace.requests[v.j - 1] == trace.requests[v.i - 1]
                key = (v.i, same_node)
                if key not in worst or v.excess > worst[key].excess:
                    worst[key] = v  # the oracle lists j ascending: ties keep the first
        negative_a = [v for v in oracle if v.i is None]
        assert got == negative_a + sorted(worst.values())

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            check_feasibility(DualSolution((0,), (0,)), ABCA)


class TestCertifiedRun:
    def test_abca_hand_values(self):
        run = run_greedydual_certified(ABCA, 2)
        assert run.result.total_cost == 2
        assert run.dual.a == (1, 0, 0, 0, 0)
        assert run.dual.b == (0, 1, 1, 1, 0)
        assert check_feasibility(run.dual, ABCA) == []
        assert dual_cost(run.dual, 2) == 1
        assert opt_flow(ABCA, 2).cost == 1  # the certificate is tight here
        assert check_primal_dual_bound(run, 2)
        assert check_primal_dual_bound(run, 1)

    def test_single_server_pair(self):
        t = parse_trace("a\nb\n")
        run = run_greedydual_certified(t, 1)
        assert run.result.total_cost == 1
        assert dual_cost(run.dual, 1) == 1 == opt_flow(t, 1).cost

    def test_all_fits_means_zero_dual(self):
        t = parse_trace("a\nb\na\nb\n")
        run = run_greedydual_certified(t, 3)
        assert run.result.total_cost == 0
        assert set(run.dual.a) == {0} and set(run.dual.b) == {0}

    def test_views_agree(self):
        rng = random.Random(11)
        for trial in range(80):
            t, k, policy = random_case(trial, rng)
            cert = run_greedydual_certified(t, k, policy)
            label = run_greedydual(t, k, policy)
            assert cert.result.events == label.events
            assert cert.result.final_nodes == label.final_nodes
            assert cert.result.total_cost == label.total_cost

    def test_b_monotone_nonnegative(self):
        rng = random.Random(13)
        for trial in range(40):
            t, k, policy = random_case(trial, rng)
            b = run_greedydual_certified(t, k, policy).dual.b
            assert all(b[j] >= b[j + 1] for j in range(1, len(b) - 1))
            assert all(x >= 0 for x in b)

    def test_dual_cost_tracks_total_raise(self):
        rng = random.Random(17)
        for trial in range(40):
            t, k, policy = random_case(trial, rng)
            run = run_greedydual_certified(t, k, policy)
            total_raise = run.history[-1].raised if run.history else 0
            for h in range(1, k + 1):
                assert dual_cost(run.dual, h) == (k - h + 1) * total_raise

    def test_degenerate_raises_before_warmup(self):
        rng = random.Random(19)
        for trial in range(20):
            t, k, policy = random_case(trial, rng)
            run = run_greedydual_certified(t, k, policy)
            for rec, event in zip(run.history, run.result.events):
                if event.kind == FREE:
                    assert rec.raised == 0

    def test_stepwise_feasibility_and_bound(self):
        rng = random.Random(23)
        for trial in range(25):
            t, k, policy = random_case(trial, rng)
            if len(t) > 30:
                continue
            run = run_greedydual_certified(t, k, policy)
            for s, served in enumerate(served_steps(run)):
                snapshot = dual_at_step(run, s, served)
                assert check_feasibility(snapshot, t) == []
                rec = run.history[s]
                assert rec.served_b_sum == served_b_sum(run, s, served)
                assert rec.distance <= k * rec.raised - rec.served_b_sum

    def test_weak_duality_and_ratio(self):
        rng = random.Random(29)
        for trial in range(30):
            t, k, policy = random_case(trial, rng)
            run = run_greedydual_certified(t, k, policy)
            for h in range(1, k + 1):
                opt_h = opt_flow(t, h).cost
                assert dual_cost(run.dual, h) <= opt_h
                assert (k - h + 1) * run.result.total_cost <= k * opt_h
                assert check_primal_dual_bound(run, h)

    def test_bound_threshold_is_exact(self):
        """The final served term is recomputed, not read off the replay, and
        equals the replay's: the largest cost the bound accepts is exactly
        the one that term allows."""
        rng = random.Random(31)
        for trial in range(20):
            t, k, policy = random_case(trial, rng)
            run = run_greedydual_certified(t, k, policy)
            for h in range(1, k + 1):
                c = k - h + 1
                top = (k * dual_cost(run.dual, h) - c * run.history[-1].served_b_sum) // c
                r = run.result
                for cost, holds in ((top, True), (top + 1, False)):
                    result = SimulationResult(r.strategy, r.k, cost, r.paid, r.trace)
                    tampered = run._replace(result=result)
                    assert check_primal_dual_bound(tampered, h) is holds

    def test_bound_h_range_validated(self):
        run = run_greedydual_certified(ABCA, 2)
        with pytest.raises(ValueError):
            check_primal_dual_bound(run, 0)
        with pytest.raises(ValueError):
            check_primal_dual_bound(run, 3)

    def test_empty_trace(self):
        run = run_greedydual_certified(parse_trace(""), 2)
        assert run.result.total_cost == 0
        assert check_primal_dual_bound(run, 1)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            run_greedydual_certified(ABCA, 0)
        for policy in ("sideways", "balance"):
            with pytest.raises(ValueError):
                run_greedydual_certified(ABCA, 2, policy)


def _negative_last_raise(events, offsets):
    return events, offsets[:-1] + [offsets[-2] - 1]


def _raise_from(j):
    def corrupt(events, offsets):
        return events, offsets[:j] + [x + 1 for x in offsets[j:]]

    return corrupt


def _evict_heavy(events, offsets):
    # "a 5, b, c" with k=2 evicts b (L = 0); a still has L = 4
    move = events[2]._replace(evicted=0, cost=5)
    return events[:2] + [move], offsets


def _free_as_hit(events, offsets):
    return [events[0]._replace(kind=HIT)] + events[1:], offsets


class TestReplayChecks:
    """The replay rejects offsets or event logs that break an invariant."""

    @pytest.mark.parametrize(
        "text, k, corrupt, message",
        [
            ("a\nb\nc\na\n", 2, _negative_last_raise, "negative raise"),
            ("a\nb\nc\na\n", 3, _raise_from(2), "non-zero raise"),
            ("a\nb\nc\na\n", 3, _raise_from(4), "non-zero raise"),
            ("a 5\nb\nc\n", 2, _evict_heavy, "L > 0"),
            ("a 5\nb\nc\n", 2, _raise_from(3), "exceeds served weight"),
            # only b, the middle of the three served requests, is exceeded
            ("a 5\nb\nc 5\nd\n", 3, _raise_from(4), r"b\[3\] exceeds served weight"),
            ("a\nb\n", 2, _free_as_hit, "does not fit"),
        ],
    )
    def test_corrupted_input_rejected(self, text, k, corrupt, message):
        t = parse_trace(text)
        result, offsets = _greedydual(t, k, MAX_LOWER)
        _replay(MAX_LOWER, result, offsets)  # the uncorrupted run passes
        events, bad = corrupt(list(result.events), offsets)
        # the log is expanded from the run's decisions, so a corrupted log
        # comes in a stand-in result; _replay reads only its events, trace and k
        bad_result = types.SimpleNamespace(events=tuple(events), trace=t, k=k)
        with pytest.raises(CertificateError, match=message):
            _replay(MAX_LOWER, bad_result, bad)


class ThirdPartyChecker:
    """Standalone re-verification from the exported text only."""

    def __init__(self, text: str):
        self.fields: dict[str, str] = {}
        self.steps: list[dict] = []
        for line in text.splitlines():
            key, _, rest = line.partition(" ")
            if key == "step":
                parts = rest.split()
                entry = {"t": int(parts[0])}
                for token in parts[1:]:
                    name, _, value = token.partition("=")
                    entry[name] = value
                self.steps.append(entry)
            else:
                self.fields[key] = rest

    def verify(self) -> None:
        k = int(self.fields["k"])
        n = int(self.fields["requests"])
        cost = int(self.fields["cost"])
        weights = [int(x) for x in self.fields["weights"].split()]
        reqs = [int(x) for x in self.fields["trace"].split()]
        a = [int(x) for x in self.fields["a"].split()]
        b = [0] + [int(x) for x in self.fields["b"].split()] if n else [0]

        def dist(i, j):
            if i == 0:
                return 0
            return 0 if reqs[i - 1] == reqs[j - 1] else weights[reqs[i - 1]]

        for i in range(n):
            for j in range(i + 1, n + 1):
                assert b[j] - a[i] <= dist(i, j), (i, j)
        assert all(x >= 0 for x in a)
        # bound from the final step's served multiset
        final = self.steps[-1]["S"] if self.steps else ""
        served_term = 0
        for token in final.split(","):
            if not token:
                continue
            if token.startswith("0*"):
                served_term += int(token[2:]) * b[1]
            else:
                i, moved = (int(x) for x in token.split(":"))
                served_term += b[moved + 1] if moved + 1 <= n else 0
        value_k = -k * a[0] - sum(a[1:n]) + sum(b[1:])
        # with h = k the certified ratio k/(k-h+1) is k
        assert cost <= k * value_k - served_term


class TestExport:
    def test_third_party_reverification(self):
        rng = random.Random(31)
        for trial in range(15):
            t, k, policy = random_case(trial, rng)
            run = run_greedydual_certified(t, k, policy)
            ThirdPartyChecker(export_certificate(run)).verify()

    def test_export_contains_steps(self):
        run = run_greedydual_certified(ABCA, 2)
        text = export_certificate(run)
        assert text.startswith("cachecomp-certificate 1\n")
        assert sum(1 for line in text.splitlines() if line.startswith("step ")) == 4

    # sha256 of export_certificate, recorded with the standalone certified
    # simulation that preceded the replay of run_greedydual's event log
    @pytest.mark.parametrize(
        "nodes, length, wmax, seed, k, policy, digest",
        [
            (12, 400, 9, 7, 4, MAX_LOWER,
             "02c9eb6a748bce68b6301c9849c5b5d4f2b1d1210b68befd9ba5a842b91fb9b8"),
            (12, 400, 9, 7, 4, MIN_LOWER,
             "d5df076c3683c52b0f21fa87a63d06cc4e00cae0357f3bb95ff05d12cef2635e"),
            (5, 150, 10, 101, 3, MAX_LOWER,
             "62e12489d440ed3a8c60a85c2d7b136fc576c998d587ad1778223e152ce3bdfd"),
            (5, 150, 10, 101, 3, MIN_LOWER,
             "518c2035794311859f88f2cece68f3dc883b3e0209c0dc852bbb886aad6ba433"),
            (40, 300, 50, 202, 8, MAX_LOWER,
             "38e568114c492a9fcfde7e9e5c8e7e8d8f05750a8341d07026f7316e084185e6"),
            (40, 300, 50, 202, 8, MIN_LOWER,
             "949e255d6a0833a5db5a7c0e1d36fdf4f52d84c1a162aa1501d0881172aa2951"),
            (3, 80, 4, 303, 2, MAX_LOWER,
             "c063e7dd6086aa1910c8a1e5eb2e318991901cc63256775e4fdb4e7cfc79baba"),
            (3, 80, 4, 303, 2, MIN_LOWER,
             "d092d5e75fddd6781524c5ea8f37180a29e79cdaed3ae90b7b9c85386b536577"),
        ],
    )
    def test_golden_certificate_bytes(self, nodes, length, wmax, seed, k, policy, digest):
        t = generate_random(nodes, length, wmax, seed=seed)
        run = run_greedydual_certified(t, k, policy)
        text = export_certificate(run)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        streamed = io.StringIO()
        write_certificate(run, streamed)
        assert streamed.getvalue() == text


def reference_snapshots(run):
    """The served multiset after each request, by its definition and kept
    whole at every step: each placed node with its latest request i and
    the latest request at which its server moved in (a miss), by i."""
    placed: set[int] = set()
    last: dict[int, int] = {}
    moved: dict[int, int] = {}
    snapshots = []
    for idx, ev in enumerate(run.result.events, start=1):
        v = run.result.trace.requests[idx - 1]
        if ev.kind == MOVE:
            placed.remove(ev.evicted)
        if ev.kind != HIT:
            moved[v] = idx
        placed.add(v)
        last[v] = idx
        entries = (ServedEntry(last[u], moved[u]) for u in placed)
        snapshots.append(tuple(sorted(entries, key=lambda e: e.i)))
    return snapshots


class TestServedWalk:
    """The served multiset rebuilt from the event log in request order
    equals per-step snapshots, in ``served_steps`` and in the export."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(trace=traces(), k=st.integers(1, 8), policy=st.sampled_from(POLICIES))
    def test_matches_reference_snapshots(self, trace, k, policy):
        run = run_greedydual_certified(trace, k, policy)
        ref = reference_snapshots(run)
        walked = list(served_steps(run))  # every item kept: each is its own snapshot
        assert walked == ref
        for s, served in enumerate(walked):
            rec = run.history[s]
            assert served_b_sum(run, s, served) == rec.served_b_sum
            shift = rec.raised - run.history[-1].raised
            left = set(range(s + 2)) - {e.i for e in ref[s]} - ({0} if rec.zero_mult else set())
            want_a = [run.dual.a[i] + shift if i in left else 0 for i in range(len(trace) + 1)]
            want_b = [run.dual.b[j] + shift if 1 <= j <= s + 1 else 0 for j in range(len(trace) + 1)]
            snapshot = dual_at_step(run, s, served)
            assert (list(snapshot.a), list(snapshot.b)) == (want_a, want_b)
        s_fields = [line.rpartition(" S=")[2] for line in
                    export_certificate(run).splitlines() if line.startswith("step ")]
        for rec, entries, field in zip(run.history, ref, s_fields, strict=True):
            zero = [f"0*{rec.zero_mult}"] if rec.zero_mult else []
            assert field == ",".join(zero + [f"{e.i}:{e.moved}" for e in entries])

    def test_step_out_of_range(self):
        run = run_greedydual_certified(ABCA, 2)
        last = list(served_steps(run))[-1]
        for step in (-1, 4):
            with pytest.raises(ValueError):
                served_b_sum(run, step, last)
            with pytest.raises(ValueError):
                dual_at_step(run, step, last)

    def test_run_holds_only_its_fields(self):
        """Walking, querying, bounding and exporting leave no state on the
        run: it stays plain data."""
        run = run_greedydual_certified(generate_random(10, 300, 9, seed=43), 3)
        for s, served in enumerate(served_steps(run)):
            served_b_sum(run, s, served)
            dual_at_step(run, s, served)
        assert check_primal_dual_bound(run, 2)
        write_certificate(run, io.StringIO())
        assert run._fields == ("result", "dual", "relabel", "history", "relabels")
        assert not hasattr(run, "__dict__")


class _CountingSink:
    """A text stream that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def _certify_and_write_peak(trace, k):
    tracemalloc.start()
    try:
        run = run_greedydual_certified(trace, k)
        sink = _CountingSink()
        write_certificate(run, sink)
        return tracemalloc.get_traced_memory()[1], sink.chars
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_certified_run_and_export_are_o_n_plus_k(self):
        """At fixed N, 32x more servers leave the traced peak of the
        certified run plus its streamed export nearly unchanged, although
        the certificate grows with k: no per-step copy of the served set."""
        trace = generate_random(1024, 2000, 10, seed=41)
        small_peak, small_chars = _certify_and_write_peak(trace, 8)
        large_peak, large_chars = _certify_and_write_peak(trace, 256)
        assert large_chars > 10 * small_chars
        assert large_peak < 1.5 * small_peak, (small_peak, large_peak)
