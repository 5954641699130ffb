import hashlib
import io
import random
import re
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cachecomp.dualcert import (
    CertificateError,
    DualSolution,
    Violation,
    _replay,
    check_feasibility,
    check_feasibility_fast,
    check_primal_dual_bound,
    dual_cost,
    export_certificate,
    run_greedydual_certified,
    write_certificate,
)
from cachecomp.offline import opt_flow
from cachecomp.strategies import (
    FREE,
    MAX_LOWER,
    MIN_LOWER,
    SimulationResult,
    _label_loop,
    run,
)
from cachecomp.trace import RequestTrace, generate_random, parse_trace
from stepwise import dual_at_step, served_b_sum, snapshots
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
            label = run(f"greedydual:{policy}", k, t)
            assert cert.result.events == label.events
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
            total_raise = run.history[-1] if run.history else 0
            for h in range(1, k + 1):
                assert dual_cost(run.dual, h) == (k - h + 1) * total_raise

    def test_degenerate_raises_before_warmup(self):
        rng = random.Random(19)
        for trial in range(20):
            t, k, policy = random_case(trial, rng)
            run = run_greedydual_certified(t, k, policy)
            for raised, event in zip(run.history, run.result.events):
                if event.kind == FREE:
                    assert raised == 0

    def test_stepwise_feasibility_and_bound(self):
        rng = random.Random(23)
        for trial in range(25):
            t, k, policy = random_case(trial, rng)
            if len(t) > 30:
                continue
            run = run_greedydual_certified(t, k, policy)
            distance = 0
            for s, served in enumerate(snapshots(run)):
                snapshot = dual_at_step(run, s, served)
                assert check_feasibility(snapshot, t) == []
                distance += run.result.events[s].cost
                assert distance <= k * run.history[s] - served_b_sum(run, s, served)

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
        """The largest cost the bound accepts is exactly the one the final
        served term allows."""
        rng = random.Random(31)
        for trial in range(20):
            t, k, policy = random_case(trial, rng)
            run = run_greedydual_certified(t, k, policy)
            *_, final = snapshots(run)
            served_term = served_b_sum(run, len(t) - 1, final)
            for h in range(1, k + 1):
                c = k - h + 1
                top = (k * dual_cost(run.dual, h) - c * served_term) // c
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


def _rebuilt(result, paid, cost=None):
    """``result`` with other paid decisions, costed as the engine costs
    them unless ``cost`` is given."""
    if cost is None:
        cost = sum(result.trace.weights[u] for _, u in paid)
    return SimulationResult(result.strategy, result.k, cost, tuple(paid), result.trace)


def _negative_last_raise(result, levels):
    return result, levels[:-1] + [levels[-2] - 1]


def _raise_from(j):
    def corrupt(result, levels):
        return result, levels[:j] + [x + 1 for x in levels[j:]]

    return corrupt


def _evict_heavy(result, levels):
    # "a 5, b, c" with k=2 evicts b (L = 0); a still has L = 4
    return _rebuilt(result, [(i, 0) for i, _ in result.paid]), levels


def _evict_requested(result, levels):
    # "a 5, b, c" with k=2: c, the requested node, is not served
    return _rebuilt(result, [(i, 2) for i, _ in result.paid]), levels


def _move_while_unplaced(result, levels):
    # "a, b" with k=2: a paid move at request 2, while a server is unplaced
    return _rebuilt(result, ((1, 0),)), [0]


def _move_past_end(result, levels):
    # "a, b, c" with k=2: a second paid move, at request 4 of 3
    return _rebuilt(result, result.paid + ((3, 0),)), levels * 2


def _drop_first_move(result, levels):
    return _rebuilt(result, result.paid[1:]), levels[1:]


def _drop_last_level(result, levels):
    return result, levels[:-1]


def _cost_plus_one(result, levels):
    return _rebuilt(result, result.paid, result.total_cost + 1), levels


def _evict_a_at_five(result, levels):
    # "a 5, b, c[, b]" with k=2: request 3 evicts a, not b, and lowers the
    # labels by 5, which a's caps allow and b's (w = 1) do not
    return _rebuilt(result, ((2, 0),)), [5]


class TestReplayChecks:
    """The replay rejects paid decisions, levels or a cost that break an
    invariant."""

    @pytest.mark.parametrize(
        "text, k, corrupt, message",
        [
            ("a\nb\nc\na\n", 2, _negative_last_raise, "negative raise"),
            ("a 5\nb\nc\n", 2, _raise_from(0), "exceeds served weight"),
            # only b, the middle of the three served requests, is exceeded
            ("a 5\nb\nc 5\nd\n", 3, _raise_from(0), r"b\[3\] exceeds served weight"),
            # a cap is checked as its request leaves S: evicted, superseded, at the end
            ("a 5\nb\nc\n", 2, _raise_from(0), r"^b\[3\] exceeds served weight at request 3$"),
            ("a 5\nb\nc\nb\n", 2, _evict_a_at_five, r"^b\[3\] .* at request 4$"),
            ("a 5\nb\nc\n", 2, _evict_a_at_five, r"^b\[3\] .* at request 3$"),
            ("a 5\nb\nc\n", 2, _evict_heavy, "L > 0"),
            ("a 5\nb\nc\n", 2, _evict_requested, "evicts an unserved node"),
            ("a\nb\n", 2, _move_while_unplaced, "do not fit request 2"),
            ("a\nb\nc\na\n", 2, _drop_first_move, "do not fit request 3"),
            ("a\nb\nc\n", 2, _move_past_end, "request 4 is left over"),
            ("a\nb\nc\na\n", 2, _drop_last_level, "1 levels for 2 paid moves"),
            ("a\nb\nc\na\n", 2, _cost_plus_one, "paid distance 2 != total cost 3"),
        ],
    )
    def test_corrupted_input_rejected(self, text, k, corrupt, message):
        t = parse_trace(text)
        levels = []
        result = _label_loop(t, k, "greedydual:max", levels=levels)
        _replay(result, levels)  # the uncorrupted run passes
        bad_result, bad_levels = corrupt(result, levels)
        with pytest.raises(CertificateError, match=message):
            _replay(bad_result, bad_levels)

    @pytest.mark.parametrize("policy", POLICIES)
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(trace=traces(), data=st.data())
    def test_raised_levels_rejected_iff_a_cap_is_exceeded(self, policy, trace, data):
        """Raise levels[j:] by delta, decisions unchanged, so only a cap can
        break: the replay rejects iff at some paid request s a request i
        served before s has level_s - offsets[i] > w(r_i)."""
        distinct = len(set(trace.requests))
        assume(distinct >= 2)
        k = data.draw(st.integers(1, min(6, distinct - 1)), label="k")
        levels = []
        result = _label_loop(trace, k, f"greedydual:{policy}", levels=levels)
        steps = snapshots(_replay(result, levels))
        j = data.draw(st.integers(0, len(levels) - 1), label="j")
        delta = data.draw(st.integers(1, 9), label="delta")
        raised = levels[:j] + [x + delta for x in levels[j:]]
        offsets = [0] * (len(trace) + 1)  # offsets[i]: the offset after request i
        for (due, _), level in zip(result.paid, raised):
            offsets[due + 1] = level
        for i in range(1, len(offsets)):
            offsets[i] = max(offsets[i], offsets[i - 1])
        weights, reqs = trace.weights, trace.requests
        breach = any(
            level - offsets[e.i] > weights[reqs[e.i - 1]]
            for (due, _), level in zip(result.paid, raised)
            for e in steps[due - 1]  # S before the paid request due + 1
        )
        if policy == MAX_LOWER:
            assert breach  # max-lowering leaves its victim's H at exactly 0
        if breach:
            with pytest.raises(CertificateError, match="exceeds served weight"):
                _replay(result, raised)
        else:
            _replay(result, raised)


def assert_slack_identity(run):
    """slack_s = k * raised_s - served_b_sum(run, s, S_s) - distance_s is 0
    until the first paid move and changes only at paid moves, each time by
    exactly b_s[moved+1] - w(evicted) >= 0 for the victim's entry, b_s
    being the dual after step s.  So distance_s never exceeds
    k * raised_s - served_b_sum: the bound holds at every step."""
    result = run.result
    k, reqs, weights = result.k, result.trace.requests, result.trace.weights
    evicts = dict(result.paid)  # 0-based step -> evicted node
    slack, before, distance = 0, (), 0
    for s, served in enumerate(snapshots(run)):
        distance += result.events[s].cost
        now = k * run.history[s] - served_b_sum(run, s, served) - distance
        lift = 0
        if s in evicts:
            (victim,) = [e for e in before if reqs[e.i - 1] == evicts[s]]
            lift = dual_at_step(run, s, served).b[victim.moved + 1] - weights[evicts[s]]
            assert lift >= 0
        assert now == slack + lift
        slack, before = now, served


def _redirected(result, m, node):
    """``result`` with its m-th paid decision evicting ``node`` instead."""
    paid = list(result.paid)
    paid[m] = (paid[m][0], node)
    return _rebuilt(result, paid)


def _alternatives(result, steps, m):
    """The served nodes the m-th paid decision could evict instead."""
    due, evicted = result.paid[m]
    reqs = result.trace.requests
    return [reqs[e.i - 1] for e in steps[due - 1] if reqs[e.i - 1] != evicted]


class TestBoundSlack:
    """The bound's slack moves only at paid moves, by the victim's -L, so
    the L <= 0 check keeps the bound at every step; on honest runs and on
    corrupted ones that the replay accepts."""

    @pytest.mark.parametrize("policy", POLICIES)
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(trace=traces(), data=st.data())
    def test_identity(self, policy, trace, data):
        distinct = len(set(trace.requests))
        assume(distinct >= 2)
        k = data.draw(st.integers(1, min(6, distinct - 1)), label="k")
        levels = []
        result = _label_loop(trace, k, f"greedydual:{policy}", levels=levels)
        run = _replay(result, levels)
        assert_slack_identity(run)
        if not levels:
            return
        m = data.draw(st.integers(0, len(levels) - 1), label="m")
        others = _alternatives(result, snapshots(run), m)
        if others and data.draw(st.booleans(), label="redirect"):
            bad = (_redirected(result, m, data.draw(st.sampled_from(others))), levels)
        else:
            delta = data.draw(st.integers(1, 9), label="delta")
            bad = (result, levels[:m] + [x + delta for x in levels[m:]])
        try:
            corrupted = _replay(*bad)
        except CertificateError:
            return
        assert_slack_identity(corrupted)

    def test_corrupted_runs_are_accepted(self):
        """Every redirected decision and every suffix raised by 1, on seeded
        runs: the replay accepts some of each kind, and each one it accepts
        keeps the identity."""
        rng = random.Random(37)
        accepted = {"redirect": 0, "raise": 0}
        for trial in range(200):
            t, k, policy = random_case(trial, rng)
            levels = []
            result = _label_loop(t, k, f"greedydual:{policy}", levels=levels)
            steps = snapshots(_replay(result, levels))
            for m in range(len(levels)):
                cases = [("raise", result, levels[:m] + [x + 1 for x in levels[m:]])]
                cases += [("redirect", _redirected(result, m, u), levels)
                          for u in _alternatives(result, steps, m)]
                for kind, bad_result, bad_levels in cases:
                    try:
                        corrupted = _replay(bad_result, bad_levels)
                    except CertificateError:
                        continue
                    assert_slack_identity(corrupted)
                    accepted[kind] += 1
        assert min(accepted.values()) > 0, accepted


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
    # simulation that preceded the replay of the label engine's event log
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


class TestServedWalk:
    """The served multiset rebuilt from the paid decisions in request order
    equals the event log's per-step snapshots in the export."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(trace=traces(), k=st.integers(1, 8), policy=st.sampled_from(POLICIES))
    def test_matches_reference_snapshots(self, trace, k, policy):
        run = run_greedydual_certified(trace, k, policy)
        ref = snapshots(run)
        steps = [line.split(" ") for line in
                 export_certificate(run).splitlines() if line.startswith("step ")]
        distance = 0
        for raised, entries, e, step in zip(run.history, ref, run.result.events, steps, strict=True):
            zero = [f"0*{k - len(entries)}"] if len(entries) < k else []
            assert step[-1] == "S=" + ",".join(zero + [f"{x.i}:{x.moved}" for x in entries])
            # kind and cost come from the walk's outcome; they match the event log
            assert step[2:4] == [f"kind={e.kind}", f"cost={e.cost}"]
            # the raise is the run's history, the distance the event log's prefix sum
            distance += e.cost
            assert step[4:6] == [f"raised={raised}", f"dist={distance}"]

    def test_run_holds_only_its_fields(self):
        """Bounding and exporting leave no state on the run: it stays plain
        data."""
        run = run_greedydual_certified(generate_random(10, 300, 9, seed=43), 3)
        assert check_primal_dual_bound(run, 2)
        write_certificate(run, io.StringIO())
        assert run._fields == ("result", "dual", "history", "relabels")
        assert not hasattr(run, "__dict__")

    def test_certifying_never_expands_the_event_log(self):
        """Certifying, exporting and bounding read the run's paid decisions;
        none of them builds its per-request event log."""
        run = run_greedydual_certified(generate_random(10, 300, 9, seed=43), 3)
        text = io.StringIO()
        write_certificate(run, text)
        assert text.getvalue().count("\nstep ") == 300
        assert check_primal_dual_bound(run, 2)
        assert "events" not in vars(run.result)


class TestMismatchedLengths:
    """Both certificate readers refuse a run whose dual or history was not
    built on its trace, naming the mismatch, and write nothing."""

    ABACD = parse_trace("a\nb\na\nc\nd\n")

    def _refused(self, run, message):
        exact = f"^{re.escape(message)}$"
        out = io.StringIO()
        with pytest.raises(CertificateError, match=exact):
            write_certificate(run, out)
        assert out.getvalue() == ""
        for h in range(1, run.result.k + 1):
            with pytest.raises(CertificateError, match=exact):
                check_primal_dual_bound(run, h)

    def test_short_history(self):
        run = run_greedydual_certified(self.ABACD, 2)
        cut = run._replace(history=run.history[:4])
        self._refused(cut, "len(history) is 4 but the trace has 5 requests")

    def test_result_of_a_longer_trace(self):
        run = run_greedydual_certified(self.ABACD, 2)
        longer = run_greedydual_certified(parse_trace("a\nb\na\nc\nd\na\nb\nc\nd\n"), 2)
        swapped = run._replace(result=longer.result)
        self._refused(swapped, "dual.n is 5 but the trace has 9 requests")


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
