import contextlib
import hashlib
import io
import random
import re
import tracemalloc
from pathlib import Path

import pytest

from cachecomp import cli, strategies
from cachecomp.dualcert import (
    CertificateError,
    _replay,
    check_primal_dual_bound,
    run_greedydual_certified,
    write_certificate,
)
from cachecomp.offline import opt_bruteforce, opt_flow, opt_single_server
from cachecomp.strategies import (
    FLUSH,
    FREE,
    HIT,
    MAX_LOWER,
    MIN_LOWER,
    MOVE,
    SimulationResult,
    mark_stream,
    parse_strategy,
    replay_mark,
    run,
)
from cachecomp.trace import generate_cyclic, generate_random, parse_trace, serialize_trace
from stepwise import placement

ABCA = parse_trace("a\nb\nc\na\n")


class TestParseStrategy:
    @pytest.mark.parametrize("name", ["lru", "fifo", "fwf", "balance", "mark"])
    def test_plain_names(self, name):
        assert parse_strategy(name) == name
        assert parse_strategy(f" {name.upper()}\n") == name

    def test_greedydual_variants(self):
        assert parse_strategy("greedydual") == "greedydual:max"
        assert parse_strategy("greedydual:max") == "greedydual:max"
        assert parse_strategy("GreedyDual:Min") == "greedydual:min"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_strategy("lfu")
        with pytest.raises(ValueError):
            parse_strategy("greedydual:med")


class TestLru:
    def test_abca_costs_two(self):
        r = run("lru", 2, ABCA)
        assert r.total_cost == 2
        assert [(e.kind, e.evicted) for e in r.events] == [
            (FREE, None),
            (FREE, None),
            (MOVE, 0),  # c evicts a
            (MOVE, 1),  # a evicts b
        ]
        # the offline optimum only pays once here
        assert opt_bruteforce(ABCA, 2) == 1

    def test_repeat_requests_are_free(self):
        t = parse_trace("a\na\na\na\n")
        for name in ("lru", "fifo", "fwf", "balance", "mark", "greedydual"):
            r = run(name, 2, t)
            assert r.total_cost == 0
            assert [e.kind for e in r.events] == [FREE, HIT, HIT, HIT]

    def test_cyclic_single_server_always_moves(self):
        t = generate_cyclic(2, 4)
        r = run("lru", 1, t)
        assert [e.kind for e in r.events] == [FREE, MOVE, MOVE, MOVE]

    def test_cyclic_k_plus_one_faults_after_warmup(self):
        k = 3
        t = generate_cyclic(k + 1, 40)
        r = run("lru", k, t)
        assert all(e.kind == FREE for e in r.events[:k])
        assert all(e.kind == MOVE for e in r.events[k:])


class TestFwf:
    def test_flush_charges_k(self):
        r = run("fwf", 2, parse_trace("a\nb\nc\n"))
        assert r.total_cost == 2
        kinds = [e.kind for e in r.events]
        assert kinds == [FREE, FREE, FLUSH, FREE]
        assert r.events[2].cost == 2

    def test_flush_charges_unplaced_weights(self):
        r = run("fwf", 2, parse_trace("a 5\nb 2\nc\na\n"))
        assert [e.cost for e in r.events] == [0, 0, 7, 0, 0]
        assert r.total_cost == 7

    def test_never_below_offline_optimum_on_weighted_traces(self):
        for seed in range(12):
            t = generate_random(4 + seed, 120, 9, seed=seed)
            for k in range(1, 7):
                r = run("fwf", k, t)
                assert r.total_cost == sum(e.cost for e in r.events)
                assert r.total_cost >= opt_flow(t, k).cost, (seed, k)
        t = generate_random(12, 200, 9, seed=6)
        assert run("fwf", 1, t).total_cost == opt_flow(t, 1).cost == 836

    def test_flush_then_refill(self):
        r = run("fwf", 2, parse_trace("a\nb\nc\nd\nc\n"))
        # c flushes, then c and d place freely, then a hit
        assert [e.kind for e in r.events] == [FREE, FREE, FLUSH, FREE, FREE, HIT]
        assert r.total_cost == 2

    def test_flush_after_a_move_pays_the_held_weights(self):
        # no engine both moves and flushes, so the decisions are built by hand:
        # c's move evicts a (5), then d's flush unplaces b and c (2 + 3)
        t = parse_trace("a 5\nb 2\nc 3\nd\n")
        r = SimulationResult("fwf", 2, 10, ((2, 0), (3, None)), t)
        assert [(e.kind, e.cost) for e in r.events] == [
            (FREE, 0), (FREE, 0), (MOVE, 5), (FLUSH, 5), (FREE, 0)
        ]


class TestBalance:
    def test_prefers_cheap_plus_idle_servers(self):
        t = parse_trace("a\nb 5\nc\na\n")
        r = run("balance", 2, t)
        # at c: a (1+0) beats b (5+0); at a: c's server has traveled 1, so
        # c (1+1) still beats b (5+0)
        assert [(e.kind, e.evicted) for e in r.events] == [
            (FREE, None),
            (FREE, None),
            (MOVE, 0),
            (MOVE, 2),
        ]
        assert r.total_cost == 2

    def test_traveled_sum_matches_events(self):
        t = generate_random(5, 80, 6, seed=4)
        r = run("balance", 3, t)
        assert r.total_cost == sum(e.cost for e in r.events)


class TestMark:
    def test_deterministic_given_seed(self):
        t = generate_random(8, 120, 1, seed=2)
        assert run("mark", 3, t, seed=5) == run("mark", 3, t, seed=5)

    def test_seed_changes_choices(self):
        t = generate_cyclic(5, 60)
        costs = {run("mark", 3, t, seed=s).total_cost for s in range(12)}
        results = {run("mark", 3, t, seed=s).events for s in range(12)}
        assert len(results) > 1  # randomization is live
        assert costs  # and every run completed

    def test_evicts_only_nodes_unseen_this_phase(self):
        from cachecomp.phases import partition

        t = generate_random(6, 150, 1, seed=8)
        k = 3
        r = run("mark", k, t, seed=1)
        p = partition(t, k)
        starts = list(p.boundaries)
        for e in r.events:
            if e.kind != MOVE:
                continue
            phase_start = max(s for s in starts if s <= e.index)
            assert e.evicted not in t.requests[phase_start:e.index]


def replay_mark_with_randrange(stream, seed):
    """``replay_mark`` drawing each eviction with ``randrange``; also
    returns every candidate count it drew over."""
    rng = random.Random(seed)
    paid, counts = [], set()
    for nodes, firsts in stream:
        candidates = list(nodes)
        for i, v, stale in firsts:
            if stale and v in candidates:
                candidates.remove(v)
                continue
            counts.add(len(candidates))
            paid.append((i, candidates.pop(rng.randrange(len(candidates)))))
    return paid, counts


class TestMarkDraws:
    """``replay_mark`` inlines ``randrange``'s rejection loop over
    ``getrandbits``; a later CPython that draws ``randrange`` otherwise
    fails here (and, if ``getrandbits`` moved, in the output pins)."""

    EDGES = {1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33}  # 1, 2^j and 2^j + 1

    def test_same_evictions_as_randrange(self):
        # phases of 33 fresh nodes: every miss draws, over 33, 32, ..., 1
        fresh = parse_trace("".join(f"v{i}\n" for i in range(33 * 4)))
        mixed = generate_random(40, 2000, 1, seed=3)
        seen = set()
        for trace, k in ((fresh, 33), (mixed, 17), (mixed, 9), (mixed, 1)):
            stream = mark_stream(trace, k)
            for seed in range(20):
                want, counts = replay_mark_with_randrange(stream, seed)
                assert replay_mark(stream, seed) == want
                seen |= counts
        assert self.EDGES <= seen

    def test_miss_without_candidates_is_rejected(self):
        # a phase whose opening cache is empty cannot come from mark_stream
        with pytest.raises(ValueError):
            replay_mark([([], [(0, 7, False)])], 0)


class TestConservativeness:
    """LRU, FIFO, and FWF pay at most k movements inside any window of at
    most k distinct nodes (a flush moves all k at once).  The marking
    strategy does not satisfy the window form (a phase boundary inside the
    window lets it re-evict a just-served node), but it does pay at most k
    moves within each phase, which is what its cost bounds rest on."""

    @pytest.mark.parametrize("name", ["lru", "fifo", "fwf"])
    def test_window_move_bound(self, name):
        rng = random.Random(99)
        for trial in range(15):
            k = rng.randint(1, 4)
            t = generate_random(rng.randint(2, 6), 50, 1, seed=trial)
            r = run(name, k, t, seed=trial)
            paid = [0] * len(t)
            for e in r.events:
                if e.kind == MOVE:
                    paid[e.index] += 1
                elif e.kind == FLUSH:
                    paid[e.index] += k
            reqs = t.requests
            for lo in range(len(t)):
                seen = set()
                moves = 0
                for hi in range(lo, len(t)):
                    seen.add(reqs[hi])
                    if len(seen) > k:
                        break
                    moves += paid[hi]
                    assert moves <= k, (name, k, lo, hi)

    @pytest.mark.parametrize("name", ["lru", "fifo", "fwf", "mark"])
    def test_per_phase_move_bound(self, name):
        from cachecomp.phases import partition

        rng = random.Random(41)
        for trial in range(15):
            k = rng.randint(1, 4)
            t = generate_random(rng.randint(2, 8), 80, 1, seed=100 + trial)
            r = run(name, k, t, seed=trial)
            paid = [0] * len(t)
            for e in r.events:
                if e.kind == MOVE:
                    paid[e.index] += 1
                elif e.kind == FLUSH:
                    paid[e.index] += k
            for start, end in partition(t, k).phase_slices():
                assert sum(paid[start:end]) <= k, (name, k, start, end)


class TestGreedyDual:
    def test_weighted_relabel_forces_cheap_eviction(self):
        t = parse_trace("a 5\nb\nc\n")
        for policy in (MAX_LOWER, MIN_LOWER):
            r = run(f"greedydual:{policy}", 2, t)
            assert r.total_cost == 1
            assert r.events[-1].kind == MOVE and r.events[-1].evicted == 1

    def test_single_server_matches_offline_single(self):
        for seed in range(8):
            t = generate_random(4, 60, 6, seed=seed)
            r = run("greedydual", 1, t)
            assert r.total_cost == opt_single_server(t)
            for e in r.events[1:]:
                assert e.kind in (MOVE, HIT)

    def test_lru_reduction_on_unit_weights(self):
        for seed in range(20):
            t = generate_random(6, 120, 1, seed=seed)
            k = seed % 4 + 1
            assert run("greedydual:max", k, t).events == run("lru", k, t).events

    def test_fifo_reduction_on_unit_weights(self):
        for seed in range(20):
            t = generate_random(6, 120, 1, seed=seed)
            k = seed % 4 + 1
            assert run("greedydual:min", k, t).events == run("fifo", k, t).events

    def test_bad_policy_rejected(self):
        # Balance runs on this engine, but its tie rule is no public policy
        for policy in ("most", "balance"):
            with pytest.raises(ValueError, match="unknown relabel policy"):
                run_greedydual_certified(ABCA, 2, policy)
        with pytest.raises(ValueError, match="k must be >= 1"):
            run_greedydual_certified(ABCA, 0)


class TestResultInvariants:
    @pytest.mark.parametrize(
        "name", ["lru", "fifo", "balance", "mark", "greedydual:min"]
    )
    def test_cost_is_sum_of_paid_events_and_placements_bounded(self, name):
        t = generate_random(7, 150, 4 if name != "mark" else 1, seed=13)
        k = 3
        r = run(name, k, t, seed=7)
        assert r.total_cost == sum(e.cost for e in r.events)
        assert all(e.cost == 0 for e in r.events if e.kind in (HIT, FREE))
        assert sum(1 for e in r.events if e.kind == FREE) <= k

    def test_fwf_placements_bounded_per_phase(self):
        from cachecomp.phases import partition

        t = generate_random(6, 100, 1, seed=21)
        k = 3
        r = run("fwf", k, t)
        frees = [e.index for e in r.events if e.kind == FREE]
        for start, end in partition(t, k).phase_slices():
            assert sum(1 for i in frees if start <= i < end) <= k

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            run("lru", 0, ABCA)


ABACD = parse_trace("a\nb\na\nc\nd\n")  # nodes a=0, b=1, c=2, d=3


class TestMisfitDecisions:
    """Paid decisions that do not fit the trace are rejected, naming the
    first 1-based request they do not fit, by every walk of them: the
    event log with ``ValueError``, and the certified replay, the certificate
    export and the bound check with ``CertificateError``.  Each test is one
    row of the table, run through all four."""

    @staticmethod
    def _result(trace, paid, k=2):
        return SimulationResult("greedydual:max", k, len(paid), tuple(paid), trace)  # builds lazily

    def _rejected(self, trace, paid, message):
        misfit = self._result(trace, paid)
        exact = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=exact):
            misfit.events
        with pytest.raises(CertificateError, match=exact):
            _replay(misfit, [1] * len(paid))  # unit raises pass every fitting move's checks
        certified = run_greedydual_certified(trace, 2)._replace(result=misfit)
        with pytest.raises(CertificateError, match=exact):
            write_certificate(certified, io.StringIO())
        with pytest.raises(CertificateError, match=exact):
            check_primal_dual_bound(certified, 2)

    def test_decision_at_a_hit(self):
        self._rejected(ABACD, [(2, 0)], "paid decisions do not fit request 3")

    def test_decision_while_a_server_is_unplaced(self):
        self._rejected(ABACD, [(1, 0)], "paid decisions do not fit request 2")

    def test_full_cache_miss_without_a_decision(self):
        self._rejected(ABACD, [], "paid decisions do not fit request 4")
        # the served-set walk used to place a third server here
        self._rejected(ABCA, [(3, 0)], "paid decisions do not fit request 3")

    def test_victim_not_served(self):
        self._rejected(ABACD, [(3, 2), (4, 1)], "request 4 evicts an unserved node")
        # the served-set walk used to raise KeyError here
        self._rejected(ABCA, [(2, 2)], "request 3 evicts an unserved node")

    def test_decision_left_over(self):
        self._rejected(
            ABACD, [(3, 0), (4, 1), (9, 0)], "paid decisions do not fit: request 10 is left over"
        )
        fitting = self._result(ABACD, [(3, 0), (4, 1)])
        assert len(fitting.events) == 5
        _replay(fitting, [1, 1])

    def test_a_flush_fits_the_event_log_but_not_a_certificate(self):
        flushed = self._result(ABACD, [(3, None)])
        assert [e.kind for e in flushed.events] == [FREE, FREE, HIT, FLUSH, FREE, FREE]
        assert flushed.events[3].cost == 2
        with pytest.raises(CertificateError, match=r"^request 4 evicts an unserved node$"):
            _replay(flushed, [1])
        certified = run_greedydual_certified(ABACD, 2)._replace(result=flushed)
        with pytest.raises(CertificateError, match=r"^request 4 evicts an unserved node$"):
            write_certificate(certified, io.StringIO())

    @pytest.mark.parametrize(
        "message",
        ["paid decisions do not fit request", "evicts an unserved node", "is left over"],
    )
    def test_fit_messages_live_in_one_module(self, message):
        """The fit rule is coded once: its messages appear in one module."""
        package = Path(strategies.__file__).parent
        holders = [
            path.name
            for path in sorted(package.glob("*.py"))
            if message in path.read_text(encoding="utf-8")
        ]
        assert holders == ["strategies.py"]


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda t, k: run("lru", k, t).events,
            run_greedydual_certified,
            opt_flow,
        ],
        ids=["events", "certified", "opt_flow"],
    )
    def test_no_o_k_state_beyond_distinct_nodes(self, fn):
        """On a 6-request trace, 10^6 servers cost no more memory than 10:
        nothing k-long is built that the trace cannot fill."""
        t = parse_trace("a\nb\nc\na\nd\nb\n")
        small = _traced_peak(fn, t, 10)
        large = _traced_peak(fn, t, 10**6)
        assert large < 2 * small, (small, large)


class TestCompetitiveSpotCheck:
    """k/(k-h+1) ratio against the exhaustive optimum on tiny paging traces."""

    @pytest.mark.parametrize("name", ["lru", "fifo", "fwf"])
    def test_ratio_bound(self, name):
        rng = random.Random(5)
        for trial in range(25):
            k = rng.randint(1, 3)
            t = generate_random(rng.randint(2, 4), rng.randint(1, 10), 1, seed=trial)
            cost = run(name, k, t).total_cost
            for h in range(1, k + 1):
                opt_h = opt_bruteforce(t, h)
                assert (k - h + 1) * cost <= k * opt_h


ALL_SPECS = ["lru", "fifo", "fwf", "balance", "mark", "greedydual:max", "greedydual:min"]


class TestGoldenPins:
    """sha256 pins recorded with the engines that built every event inline
    and chose victims by scanning all k servers.  The fwf log and the
    weighted sweep were re-recorded when a flush came to pay the weights
    of the nodes it unplaces instead of a flat k."""

    @pytest.mark.parametrize(
        "spec, digest",
        [
            ("lru", "28ee8f17dbb8e98e94bf5d33c93146492461dff52065b7b51fa8ea66efc5e71c"),
            ("fifo", "bf029003d1ff4bf9e76eb3398075a9f0ff26acf810316a9304fb2aea153e7e07"),
            ("fwf", "1d4f7e0f65d4fc853e911c70e91225a7b7cf43e99b6e855645e66f499793b738"),
            ("balance", "b7768373f51dc788b9327588f5541c683e4370d65b7e8107f2a0d5f8e99428de"),
            ("mark", "fbb649028fc7919bb9dc935ae5c5e50cfa8624d2a9a5c0b0a4d21832bc4a2744"),
            ("greedydual:max",
             "75ae08d652ca838e842d4a2bd92a9708c43db252d10aaf847ada9b1799b2495a"),
            ("greedydual:min",
             "e22efcc16ec6ae0fa8b89df8f2e4fb37ea5d4b491ebf17d86addd943c3392c33"),
        ],
    )
    def test_event_logs(self, spec, digest):
        h = hashlib.sha256()
        for nodes, wmax in ((3, 1), (7, 1), (20, 1), (4, 9), (9, 12), (30, 5)):
            for k in range(1, 11):
                t = generate_random(nodes, 250, wmax, seed=1000 * nodes + 10 * wmax + k)
                r = run(spec, k, t, seed=k)
                rows = [(e.index, e.node, e.kind, e.evicted, e.cost) for e in r.events]
                h.update(repr((rows, placement(r), r.total_cost)).encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize(
        "trace, argv, stdout_digest, csv_digest",
        [
            (
                generate_random(15, 400, 1, seed=5),
                ["--n", "14", "--trials", "5", "--seed", "3", "--c-family", "log:2"],
                "842a647c0e2f5c70096dc98e90fa74f4801f14a50a2e1e33c1d93f0e6b5c5bf5",
                "bd6ac332a401e0691e50801f648e79479be1324ae8762c113383e4f31e47f4d7",
            ),
            (
                generate_random(12, 200, 9, seed=6),
                ["--n", "9", "--trials", "4", "--seed", "8", "--c-family", "const:2",
                 "--d", "2"],
                "07b19707e512713e4ccc5a2567dda6928ac4ade242fc92478447d37c23d49b4c",
                "3db23e17c9b62077083bd48b5d6a6d539fee2cf388193db8914614dad2c91a6c",
            ),
        ],
        ids=["unit", "weighted"],
    )
    def test_sweep_bytes(self, tmp_path, trace, argv, stdout_digest, csv_digest):
        path, out = tmp_path / "t.txt", tmp_path / "o.csv"
        path.write_text(serialize_trace(trace), encoding="utf-8")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(
                ["sweep", "--trace", str(path), "--out", str(out),
                 "--strategies", ",".join(ALL_SPECS), *argv]
            )
        assert code == 0
        assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == stdout_digest
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest
