import contextlib
import hashlib
import io
import random

import pytest

from cachecomp import cli
from cachecomp.offline import opt_bruteforce, opt_single_server
from cachecomp.strategies import (
    FLUSH,
    FREE,
    HIT,
    MAX_LOWER,
    MIN_LOWER,
    MOVE,
    parse_strategy,
    run,
    run_greedydual,
)
from cachecomp.trace import generate_cyclic, generate_random, parse_trace, serialize_trace

ABCA = parse_trace("a\nb\nc\na\n")


class TestParseStrategy:
    @pytest.mark.parametrize("name", ["lru", "fifo", "fwf", "balance", "mark"])
    def test_plain_names(self, name):
        assert str(parse_strategy(name)) == name

    def test_greedydual_variants(self):
        assert parse_strategy("greedydual").relabel == MAX_LOWER
        assert parse_strategy("greedydual:max").relabel == MAX_LOWER
        assert parse_strategy("greedydual:min").relabel == MIN_LOWER

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

    def test_flush_then_refill(self):
        r = run("fwf", 2, parse_trace("a\nb\nc\nd\nc\n"))
        # c flushes, then c and d place freely, then a hit
        assert [e.kind for e in r.events] == [FREE, FREE, FLUSH, FREE, FREE, HIT]
        assert r.total_cost == 2


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
            r = run_greedydual(t, 2, policy)
            assert r.total_cost == 1
            assert r.events[-1].kind == MOVE and r.events[-1].evicted == 1

    def test_single_server_matches_offline_single(self):
        for seed in range(8):
            t = generate_random(4, 60, 6, seed=seed)
            r = run_greedydual(t, 1)
            assert r.total_cost == opt_single_server(t)
            for e in r.events[1:]:
                assert e.kind in (MOVE, HIT)

    def test_lru_reduction_on_unit_weights(self):
        for seed in range(20):
            t = generate_random(6, 120, 1, seed=seed)
            k = seed % 4 + 1
            assert run_greedydual(t, k, MAX_LOWER).events == run("lru", k, t).events

    def test_fifo_reduction_on_unit_weights(self):
        for seed in range(20):
            t = generate_random(6, 120, 1, seed=seed)
            k = seed % 4 + 1
            assert run_greedydual(t, k, MIN_LOWER).events == run("fifo", k, t).events

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            run_greedydual(ABCA, 2, "most")


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
    and chose victims by scanning all k servers."""

    @pytest.mark.parametrize(
        "spec, digest",
        [
            ("lru", "28ee8f17dbb8e98e94bf5d33c93146492461dff52065b7b51fa8ea66efc5e71c"),
            ("fifo", "bf029003d1ff4bf9e76eb3398075a9f0ff26acf810316a9304fb2aea153e7e07"),
            ("fwf", "9a886eb0f7b2c91aa0b8b3183851970153ed8da941a2de27ed6afc77408bed2c"),
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
                h.update(repr((rows, r.final_nodes, r.total_cost)).encode())
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
                "c785c54a1c656ef7c02a10d9cbde715967a67955de38b6b80b30fed0cfeb5bb0",
                "9db80d2a22dc508c105b67326dc4feeecf4399f1d7e0970f6bfa91824cb66f65",
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
