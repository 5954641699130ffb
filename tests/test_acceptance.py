"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The shared corpus and
the offline-optimum profiles come from conftest fixtures and are reused
across criteria.  Several classical bounds checked here hold for paging
only (uniform weights); those criteria run on the corpus's unit-weight
stratum, while the certified GreedyDual bounds run on the full corpus
including weighted traces.  See each test's docstring.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from cachecomp import cli
from cachecomp.dualcert import check_feasibility, dual_cost
from cachecomp.offline import (
    opt_belady,
    opt_bruteforce,
    opt_flow,
    opt_flow_profile,
)
from cachecomp.phases import mark_upper_bound, partition, verify_phase_shrink
from cachecomp.strategies import mark_stream, replay_mark, run
from cachecomp.sweep import (
    count_violators,
    parse_family,
    sweep,
    violator_bound_limit,
)
from cachecomp.trace import RequestTrace, generate_cyclic, generate_random
from stepwise import dual_at_step, served_b_sum, snapshots
from test_dualcert import exhaustive_check_feasibility

CONSERVATIVE = ("lru", "fifo", "fwf")


def report(criterion: int, name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:02d} {name}: PASS ({detail})")


def test_c01_dual_feasibility(corpus, certified_runs):
    """Every certified run's final dual passes the package's O(N)
    feasibility check and the test suite's exhaustive O(N^2) oracle, which
    tries every constraint, across 200 runs (both policies, weights 1 and
    10, k = 1..10).  Runtime target: under 60 seconds total."""
    start = time.time()
    violations = 0
    for member, cert in zip(corpus, certified_runs):
        violations += len(check_feasibility(cert.dual, member.trace))
        violations += len(exhaustive_check_feasibility(cert.dual, member.trace))
    elapsed = time.time() - start
    assert violations == 0
    assert elapsed < 60
    report(1, "dual-feasibility", f"200 runs, 0 violations, {elapsed:.1f}s")


def test_c02_primal_dual_bound(corpus, certified_runs, opt_profiles):
    """The certified bound holds at every step for every h <= k, exactly:
    (k-h+1)*cost_step <= k*dual_cost_step(h) - (k-h+1)*served_term, and at
    termination cost <= k/(k-h+1) * OPT(h), on the full corpus including
    weighted traces."""
    checked_steps = 0
    for member, cert in zip(corpus, certified_runs):
        k = member.k
        sampler = random.Random(member.idx)
        sampled = {sampler.randrange(len(cert.history)) for _ in range(5)} if cert.history else set()
        walk = zip(cert.history, snapshots(cert), cert.result.events, strict=True)
        distance = 0
        for s, (raised, served, event) in enumerate(walk):
            distance += event.cost
            served_term = served_b_sum(cert, s, served)
            for h in range(1, k + 1):
                step_dual_cost = (k - h + 1) * raised
                lhs = (k - h + 1) * distance
                assert lhs <= k * step_dual_cost - (k - h + 1) * served_term
                checked_steps += 1
            if s in sampled:
                snapshot = dual_at_step(cert, s, served)
                for h in range(1, k + 1):
                    assert dual_cost(snapshot, h) == (k - h + 1) * raised
        for h in range(1, k + 1):
            assert dual_cost(cert.dual, h) == (k - h + 1) * (cert.history[-1] if cert.history else 0)
            opt_h = opt_profiles[member.idx][h - 1]
            assert (k - h + 1) * cert.result.total_cost <= k * opt_h
    report(2, "primal-dual-bound", f"{checked_steps} step/h checks, all exact")


def test_c03_oracle_triangle():
    """opt_bruteforce == opt_flow on 500 exhaustive instances (N <= 10,
    k <= 3, <= 4 nodes, weights in {1, 5}); opt_belady == opt_flow on 100
    unit-weight instances (N <= 300, k <= 20).  Exact equality."""
    rng = random.Random(20_24)
    for trial in range(500):
        nodes = rng.randint(1, 4)
        length = rng.randint(1, 10)
        weights = tuple(rng.choice([1, 5]) for _ in range(nodes))
        reqs = tuple(rng.randrange(nodes) for _ in range(length))
        trace = RequestTrace(reqs, weights, tuple(f"n{i}" for i in range(nodes)))
        k = rng.randint(1, 3)
        assert opt_bruteforce(trace, k) == opt_flow(trace, k).cost
    for trial in range(100):
        nodes = rng.choice([3, 5, 10, 30])
        length = rng.randint(20, 300)
        trace = generate_random(nodes, length, 1, seed=50_000 + trial)
        k = rng.randint(1, 20)
        assert opt_belady(trace, k) == opt_flow(trace, k).cost
    report(3, "oracle-triangle", "500 brute==flow, 100 belady==flow")


def test_c04_competitive_ratio(corpus, opt_profiles):
    """LRU, FIFO, and FWF stay within k/(k-h+1) of OPT(h) for all h <= k on
    the unit-weight corpus plus adversarial cyclic traces, exactly.

    The ratio guarantee is specific to uniform weights; weighted traces
    genuinely violate it (e.g. corpus member 12 under LRU at k=h=2), so the
    weighted stratum is excluded by design here."""
    checks = 0
    for member in corpus:
        if not member.is_paging:
            continue
        k = member.k
        for name in CONSERVATIVE:
            cost = run(name, k, member.trace).total_cost
            for h in range(1, k + 1):
                assert (k - h + 1) * cost <= k * opt_profiles[member.idx][h - 1], (
                    member.idx, name, h,
                )
                checks += 1
    for k in range(1, 7):
        cyc = generate_cyclic(k + 1, 300)
        profile = opt_flow_profile(cyc, k)
        for name in CONSERVATIVE:
            cost = run(name, k, cyc).total_cost
            for h in range(1, k + 1):
                assert (k - h + 1) * cost <= k * profile[h - 1]
                checks += 1
    report(4, "competitive-ratio", f"{checks} (strategy, k, h) checks")


def test_c05_phase_shrink(corpus):
    """Raising k to ceil(k + 2*avenew) shrinks the phase count to at most
    3/4 on every corpus member with phase structure: zero counterexamples."""
    checked = 0
    for member in corpus:
        if partition(member.trace, member.k).num_phases == 0:
            continue
        assert verify_phase_shrink(member.trace, member.k), member.idx
        checked += 1
    assert checked > 100  # the corpus is phase-rich
    report(5, "phase-shrink", f"{checked} (trace, k) pairs, 0 counterexamples")


def test_c06_opt_phase_lower_bound(corpus, opt_profiles):
    """OPT(h) >= (k - h + avenew) * P / 2 for every corpus (k, h <= k) pair,
    compared in exact rational arithmetic (weighted traces included: cost
    dominates movement count)."""
    checks = 0
    for member in corpus:
        p = partition(member.trace, member.k)
        for h in range(1, member.k + 1):
            bound = Fraction(p.k - h + p.avenew) * p.num_phases / 2
            assert opt_profiles[member.idx][h - 1] >= bound, (member.idx, h)
            checks += 1
    report(6, "opt-phase-lower-bound", f"{checks} (k, h) pairs, exact")


def test_c07_conservative_bounds(corpus, opt_profiles):
    """cost(X, k) <= k * P(k), and avenew <= 2k * OPT(k) / cost(X, k) when
    the cost is nonzero, for LRU/FIFO/FWF and a single seeded marking run.

    Both bounds count paid movements against phase structure and are
    uniform-weight statements (a factor-10 weight makes k*P(k) false), so
    they run on the unit-weight stratum."""
    checks = 0
    for member in corpus:
        if not member.is_paging:
            continue
        k = member.k
        p = partition(member.trace, k)
        opt_k = opt_profiles[member.idx][k - 1]
        for name in CONSERVATIVE + ("mark",):
            cost = run(name, k, member.trace, seed=member.idx).total_cost
            assert cost <= k * p.num_phases, (member.idx, name)
            if cost > 0:
                assert p.avenew <= Fraction(2 * k * opt_k, cost), (member.idx, name)
            checks += 1
    report(7, "conservative-bounds", f"{checks} strategy runs, exact")


def test_c08_mark_upper_bound(corpus):
    """On 30 unit-weight corpus traces with phase structure, the mean of
    1000 seeded marking runs stays within the harmonic-sum ceiling plus
    three standard errors.  Each trace's phase stream is built once and
    replayed per seed, as ``run("mark", ...)`` does for one seed.  Runtime
    target: under 5 minutes."""
    start = time.time()
    members = [
        m
        for m in corpus
        if m.is_paging and partition(m.trace, m.k).num_phases > 0
    ][:30]
    assert len(members) == 30
    trials = 1000
    for member in members:
        p = partition(member.trace, member.k)
        bound = mark_upper_bound(p)
        stream = mark_stream(member.trace, member.k)
        weights = member.trace.weights
        costs = [
            sum(weights[u] for _, u in replay_mark(stream, s)) for s in range(trials)
        ]
        mean = sum(costs) / trials
        var = sum((c - mean) ** 2 for c in costs) / (trials - 1)
        se = (var / trials) ** 0.5
        assert mean <= float(bound) + 3 * se, (member.idx, mean, float(bound), se)
    elapsed = time.time() - start
    assert elapsed < 300
    report(8, "mark-upper-bound", f"30 traces x {trials} runs, {elapsed:.1f}s")


def test_c09_greedydual_reductions():
    """On 100 unit-weight traces the max-lowering run's event log equals
    LRU's and the min-lowering run's equals FIFO's, event for event."""
    for trial in range(100):
        nodes = (3, 5, 10, 50)[trial % 4]
        k = trial % 8 + 1
        trace = generate_random(nodes, 150, 1, seed=77_000 + trial)
        assert run("greedydual:max", k, trace).events == run("lru", k, trace).events
        assert run("greedydual:min", k, trace).events == run("fifo", k, trace).events
    report(9, "greedydual-reductions", "100 traces, both policies, event-for-event")


# Regression pins for criterion 10 (counts from the seeded sweeps below).
PINNED_VIOLATORS = {
    0: {"lru": 0, "fifo": 0, "fwf": 4, "mark": 0},
    1: {"lru": 0, "fifo": 0, "fwf": 0, "mark": 0},
    2: {"lru": 0, "fifo": 0, "fwf": 0, "mark": 0},
    3: {"lru": 0, "fifo": 0, "fwf": 0, "mark": 0},
    4: {"lru": 0, "fifo": 0, "fwf": 3, "mark": 0},
    5: {"lru": 0, "fifo": 0, "fwf": 0, "mark": 0},
    6: {"lru": 0, "fifo": 0, "fwf": 0, "mark": 0},
    7: {"lru": 0, "fifo": 0, "fwf": 0, "mark": 0},
    8: {"lru": 0, "fifo": 0, "fwf": 2, "mark": 0},
    9: {"lru": 0, "fifo": 0, "fwf": 0, "mark": 0},
    10: {"lru": 0, "fifo": 0, "fwf": 0, "mark": 0},
    11: {"lru": 0, "fifo": 0, "fwf": 0, "mark": 0},
    12: {"lru": 0, "fifo": 0, "fwf": 3, "mark": 0},
    13: {"lru": 0, "fifo": 0, "fwf": 0, "mark": 0},
    14: {"lru": 0, "fifo": 0, "fwf": 0, "mark": 0},
    15: {"lru": 0, "fifo": 0, "fwf": 0, "mark": 0},
    16: {"lru": 0, "fifo": 0, "fwf": 3, "mark": 0},
    17: {"lru": 0, "fifo": 0, "fwf": 0, "mark": 0},
    18: {"lru": 0, "fifo": 0, "fwf": 0, "mark": 0},
    19: {"lru": 0, "fifo": 0, "fwf": 0, "mark": 0},
}


def test_c10_violator_scarcity():
    """On 20 random paging traces swept over k = 1..64, conservative
    strategies' violator counts against c(k) = 4 ln(k+1) (d = 1) stay under
    the C = 8 scarcity ceiling, and the marking strategy's counts against
    c(k) = 2 ln ln(k+2) + 3 stay under the exponential-form ceiling.
    Counts are regression-pinned."""
    cons_family = parse_family("log:4")
    mark_family = parse_family("loglog:3")
    n = 64
    cons_limit = violator_bound_limit(cons_family, n, 1, for_mark=False)
    mark_limit = violator_bound_limit(mark_family, n, 1, for_mark=True)
    assert cons_family.premise_holds(n)
    assert mark_family.premise_holds(n, for_mark=True)
    for i in range(20):
        nodes = (40, 80, 120, 200)[i % 4]
        trace = generate_random(nodes, 320, 1, seed=9_100 + i)
        table = sweep(
            trace, ["lru", "fifo", "fwf", "mark"], n, mark_trials=25, seed=777
        )
        for name in CONSERVATIVE:
            count = count_violators(table, name, cons_family, 1).count
            assert count <= cons_limit
            assert count == PINNED_VIOLATORS[i][name], (i, name, count)
        mark_count = count_violators(table, "mark", mark_family, 1).count
        assert mark_count <= mark_limit
        assert mark_count == PINNED_VIOLATORS[i]["mark"], (i, mark_count)
    report(10, "violator-scarcity", f"20 traces, limits {cons_limit:.0f}/{mark_limit:.0f}")


def test_c11_cli_determinism(tmp_path, capsys):
    """Byte-identical stdout and output files across two runs of every
    subcommand with the same argv."""
    trace_path = tmp_path / "trace.txt"
    trace_path.write_text("a 3\nb\nc\nb\na 3\nd\nb\n", encoding="utf-8")
    cases = [
        ["simulate", "--strategy", "mark", "--k", "2", "--trace", str(trace_path), "-v"],
        ["simulate", "--strategy", "greedydual:min", "--k", "2",
         "--trace", str(trace_path), "-v"],
        ["optimal", "--k", "2", "--trace", str(trace_path), "-v"],
        ["certify", "--k", "3", "--h", "2", "--trace", str(trace_path)],
        ["phases", "--k", "2", "--trace", str(trace_path), "-v"],
        ["sweep", "--trace", str(trace_path), "--n", "4",
         "--strategies", "lru,fifo,fwf,mark,greedydual:max",
         "--trials", "12", "--c-family", "loglog:3", "--d", "2"],
    ]
    for argv in cases:
        outputs = []
        for round_idx in range(2):
            out_file = tmp_path / f"out-{round_idx}.csv"
            code = cli.main(argv + ["--out", str(out_file)])
            captured = capsys.readouterr()
            assert code == 0, (argv, captured.err)
            outputs.append((captured.out, out_file.read_bytes()))
        assert outputs[0] == outputs[1], argv
    report(11, "cli-determinism", f"{len(cases)} subcommand invocations x 2")
