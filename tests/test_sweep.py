import importlib
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cachecomp import offline
from cachecomp.offline import InstanceSizeError, opt_bruteforce, opt_flow
from cachecomp.phases import partition
from cachecomp.strategies import UNIT_WEIGHT_TWINS, lru_cost_profile, parse_strategy, run
from cachecomp.sweep import (
    SWEEP_MARK_WORK_CAP,
    SWEEP_N_CAP,
    SWEEP_TRIALS_CAP,
    RatioFamily,
    SweepRow,
    SweepTable,
    _mark_trial_seed,
    count_violators,
    gnuplot_script,
    parse_family,
    sweep,
    table_to_csv,
    violator_bound_limit,
)
from cachecomp.trace import RequestTrace, generate_cyclic, generate_random, parse_trace

sweep_module = importlib.import_module("cachecomp.sweep")


def _must_not_run(*args, **kwargs):
    raise AssertionError("called a step that must not run")


def _counted(calls, name, fn, key):
    """``fn``, appending ``key(*args)`` to ``calls[name]`` on every call."""

    def wrapper(*args, **kwargs):
        calls[name].append(key(*args))
        return fn(*args, **kwargs)

    return wrapper


ABCABD = parse_trace("a\nb\nc\na\nb\nd\n")


class TestRatioFamily:
    def test_parse_and_values(self):
        log4 = parse_family("log:4")
        assert log4.kind == "log" and log4.param == 4
        assert math.isclose(log4.value(1), 4 * math.log(2))
        loglog = parse_family("loglog:3")
        assert math.isclose(loglog.value(2), 2 * math.log(math.log(4)) + 3)
        const = parse_family("const:5/2")
        assert const.value(7) == Fraction(5, 2)

    def test_positive_at_small_k(self):
        for text in ("log:4", "loglog:3", "const:2"):
            fam = parse_family(text)
            assert all(float(fam.value(k)) > 0 for k in range(1, 66))

    def test_premises(self):
        assert parse_family("log:4").premise_holds(64)
        assert parse_family("loglog:3").premise_holds(64, for_mark=True)
        assert parse_family("const:2").premise_holds(64)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_family("log")
        with pytest.raises(ValueError):
            parse_family("nope:1")
        for text in ("const:0", "log:-1", "loglog:-5", "log:1/0", "const:1e400", "log:-1e400"):
            with pytest.raises(ValueError):
                parse_family(text)


class TestSweep:
    def test_row_shape_and_monotone_opt(self):
        t = generate_random(12, 200, 1, seed=0)
        table = sweep(t, ["lru", "fifo"], 10)
        assert [row.k for row in table.rows] == list(range(1, 11))
        opts = [row.opt_cost for row in table.rows]
        assert opts == sorted(opts, reverse=True)
        assert table.opt_method == "belady"
        assert table.opt1 == opts[0]

    def test_hand_example_row(self):
        table = sweep(ABCABD, ["lru"], 3)
        row = table.rows[1]
        assert row.k == 2
        assert row.costs["lru"] == 4
        assert row.opt_cost == opt_bruteforce(ABCABD, 2) == 3
        assert row.num_phases == 2 and row.avenew == Fraction(3, 2)

    def test_deterministic(self):
        t = generate_random(9, 150, 1, seed=3)
        kwargs = dict(mark_trials=15, seed=42)
        t1 = sweep(t, ["lru", "mark"], 8, **kwargs)
        t2 = sweep(t, ["lru", "mark"], 8, **kwargs)
        assert table_to_csv(t1, parse_family("log:4"), 1) == table_to_csv(
            t2, parse_family("log:4"), 1
        )

    def test_single_node_trace_all_zero(self):
        t = generate_random(1, 40, 1, seed=1)
        table = sweep(t, ["lru", "fwf"], 5)
        for row in table.rows:
            assert row.opt_cost == 0 and all(c == 0 for c in row.costs.values())
        rep = count_violators(table, "lru", parse_family("log:4"), 1)
        assert rep.count == 0

    def test_flow_method_on_weighted(self):
        t = generate_random(5, 60, 10, seed=2)
        table = sweep(t, ["greedydual:max"], 4)
        assert table.opt_method == "flow"
        assert table.rows[0].opt_cost == opt_flow(t, 1).cost

    def test_belady_rejects_weighted(self):
        # one distinct node leaves no row to solve, and is rejected anyway
        for t in (generate_random(3, 20, 5, seed=0), parse_trace("a 3\na 3\n")):
            with pytest.raises(ValueError):
                sweep(t, ["lru"], 2, opt_method="belady")

    def test_weights_beyond_float_range_rejected_before_running(self, monkeypatch):
        table = sweep(parse_trace(f"a {2**1022}\nb\n"), ["lru", "mark"], 2)
        assert table.opt1 == 2**1022
        assert "inf" not in table_to_csv(table, parse_family("log:1"), 1)
        # len * max weight = 2 * 2^1023 is beyond float range
        t = parse_trace(f"a {2**1023}\nb\n")
        monkeypatch.setattr(offline, "opt_flow_profile", _must_not_run)
        with pytest.raises(ValueError, match="float"):
            sweep(t, ["lru"], 2, opt_method="flow")

    def test_n_cap_checked_before_running(self, monkeypatch):
        monkeypatch.setattr(offline, "opt_paging_profile", _must_not_run)
        monkeypatch.setattr(sweep_module, "run", _must_not_run)
        for n in (SWEEP_N_CAP + 1, 10**9):
            with pytest.raises(ValueError, match=f"n must be between 1 and {SWEEP_N_CAP}"):
                sweep(generate_cyclic(3, 12), ["lru", "fifo"], n)

    def test_n_at_cap_runs(self):
        table = sweep(generate_cyclic(3, 6), ["lru"], SWEEP_N_CAP)
        assert len(table.rows) == SWEEP_N_CAP and table.rows[-1].costs == {"lru": 0}

    def test_trials_cap_checked_before_running(self, monkeypatch):
        monkeypatch.setattr(offline, "opt_paging_profile", _must_not_run)
        monkeypatch.setattr(sweep_module, "mark_stream", _must_not_run)
        for trials in (SWEEP_TRIALS_CAP + 1, 10**9):
            with pytest.raises(ValueError, match=f"between 1 and {SWEEP_TRIALS_CAP}"):
                sweep(generate_cyclic(3, 4), ["mark"], 3, mark_trials=trials)

    def test_trials_at_cap_accepted(self):
        # one distinct node: no row evicts, so no trial runs
        table = sweep(parse_trace("a\na\n"), ["mark"], 2, mark_trials=SWEEP_TRIALS_CAP)
        assert [row.costs for row in table.rows] == [{"mark": 0}] * 2

    def test_mark_work_cap_checked_before_running(self, monkeypatch):
        monkeypatch.setattr(offline, "opt_paging_profile", _must_not_run)
        monkeypatch.setattr(sweep_module, "mark_stream", _must_not_run)
        # 64 rows x 100000 trials on 2000 requests: about 1.5 h of replays
        t = generate_random(200, 2000, 1, seed=1)
        work = 64 * SWEEP_TRIALS_CAP * (2000 + sweep_module.MARK_REPLAY_OVERHEAD)
        message = f"^marking work {work} is above SWEEP_MARK_WORK_CAP = {SWEEP_MARK_WORK_CAP}$"
        with pytest.raises(ValueError, match=message):
            sweep(t, ["lru", "mark"], 64, mark_trials=SWEEP_TRIALS_CAP)

    def test_mark_work_cap_binds_only_marking(self, monkeypatch):
        t = generate_cyclic(3, 6)  # rows k = 1, 2 evict
        work = 2 * 3 * (6 + sweep_module.MARK_REPLAY_OVERHEAD)
        monkeypatch.setattr(sweep_module, "SWEEP_MARK_WORK_CAP", work - 1)
        with pytest.raises(ValueError, match=f"^marking work {work} is above"):
            sweep(t, ["mark"], 5, mark_trials=3)
        assert sweep(t, ["lru", "fwf"], 5, mark_trials=3).rows[0].costs == {"lru": 5, "fwf": 5}
        monkeypatch.setattr(sweep_module, "SWEEP_MARK_WORK_CAP", work)
        assert sweep(t, ["mark"], 5, mark_trials=3).rows[0].costs == {"mark": 5}

    def test_flow_cap_checked_before_running(self, monkeypatch):
        t = generate_cyclic(2, offline.FLOW_CAP + 1)
        monkeypatch.setattr(sweep_module, "run", _must_not_run)
        with pytest.raises(InstanceSizeError):
            sweep(t, ["fifo"], 2, opt_method="flow")

    @pytest.mark.parametrize(
        "strategies, repeated",
        [
            (["lru", "LRU"], "lru"),
            (["fifo", "greedydual", "greedydual:max"], "greedydual:max"),
            (["mark", "mark"], "mark"),
        ],
    )
    def test_repeated_strategy_rejected(self, strategies, repeated):
        with pytest.raises(ValueError, match=f"strategy '{repeated}' given twice"):
            sweep(generate_cyclic(3, 12), strategies, 2)

    def test_mark_mean_is_exact(self):
        t = generate_cyclic(6, 80)
        table = sweep(t, ["mark"], 4, mark_trials=25, seed=9)
        for row in table.rows:
            mean = row.costs["mark"]
            assert isinstance(mean, Fraction) and (mean * 25).denominator == 1

    def test_mark_memory_does_not_grow_with_trials(self):
        """The trials' costs add into one integer: no list of samples."""
        t = generate_cyclic(5, 40)
        sweep(t, ["mark"], 2, mark_trials=1)  # leave first-call allocations out
        peaks = []
        for trials in (100, 2000):
            tracemalloc.start()
            try:
                sweep(t, ["mark"], 2, mark_trials=trials)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    def test_validation(self):
        t = generate_cyclic(3, 10)
        with pytest.raises(ValueError):
            sweep(t, ["lru"], 0)
        with pytest.raises(ValueError):
            sweep(t, ["lru"], 2, mark_trials=0)
        with pytest.raises(ValueError):
            sweep(t, ["lru"], 2, opt_method="magic")


class TestViolators:
    def test_never_expensive_never_violates(self):
        t = generate_random(4, 100, 1, seed=5)
        table = sweep(t, ["lru"], 6)
        fam = RatioFamily("const", Fraction(1000))
        assert count_violators(table, "lru", fam, 1).count == 0

    def test_cyclic_const_family_cross_check(self):
        t = generate_cyclic(7, 140)
        table = sweep(t, ["lru", "fwf"], 10)
        fam = parse_family("const:2")
        for name in table.strategies:
            report = count_violators(table, name, fam, 1)
            expected = []
            for row in table.rows:
                cost = row.costs[name]
                if cost <= 0:
                    continue
                threshold = max(
                    Fraction(2) * row.opt_cost, Fraction(table.opt1, table.n)
                )
                if cost >= threshold:
                    expected.append(row.k)
            assert report.ks == tuple(expected)

    def test_log_family_cross_check(self):
        rng = random.Random(8)
        for trial in range(5):
            t = generate_random(30, 220, 1, seed=trial)
            table = sweep(t, ["lru", "fifo", "fwf"], 16)
            fam = parse_family("log:4")
            for name in table.strategies:
                got = count_violators(table, name, fam, 1).ks
                expected = tuple(
                    row.k
                    for row in table.rows
                    if row.costs[name] > 0
                    and float(row.costs[name])
                    >= max(float(fam.value(row.k)) * row.opt_cost,
                           table.opt1 / float(table.n))
                )
                assert got == expected

    def test_non_violator_rows_are_truly_competitive(self):
        t = generate_random(25, 260, 1, seed=11)
        table = sweep(t, ["lru"], 12)
        fam = parse_family("log:4")
        flagged = set(count_violators(table, "lru", fam, 1).ks)
        for row in table.rows:
            cost = row.costs["lru"]
            significant = float(cost) >= table.opt1 / table.n
            if row.k not in flagged and significant and row.opt_cost > 0:
                assert float(cost) / row.opt_cost < float(fam.value(row.k))

    def test_mark_rows_do_not_affect_other_flags(self):
        t = generate_random(10, 160, 1, seed=13)
        fam = parse_family("log:4")
        with_mark = sweep(t, ["lru", "mark"], 6, mark_trials=10)
        without = sweep(t, ["lru"], 6)
        assert (
            count_violators(with_mark, "lru", fam, 1).ks
            == count_violators(without, "lru", fam, 1).ks
        )

    def test_one_server_floor_when_n_to_the_d_overflows(self):
        # a hand-built row below opt1: only the opt1 / n^d floor, which is
        # opt1 for n = 1 even when n^d overflows a float, keeps it out
        row = SweepRow(1, 2, 0, Fraction(0), {"x": 4})
        table = SweepTable(1, ("x",), "flow", (row,), opt1=20)
        fam = parse_family("log:1/100")
        for d in (1, Fraction(10**400)):
            assert count_violators(table, "x", fam, d).count == 0

    def test_floor_when_n_to_the_d_just_overflows(self):
        # n^d = 2^1030 overflows a float, yet with opt1 = 1e308 the floor is
        # about 0.0087 and keeps a marking mean of 1/1000 out
        row = SweepRow(1, 1, 0, Fraction(0), {"mark": Fraction(1, 1000)})
        table = SweepTable(2, ("mark",), "flow", (row,), opt1=10**308)
        fam = parse_family("log:1/10000")
        assert count_violators(table, "mark", fam, 1030).count == 0
        for d in (1100, Fraction(10**400)):  # floors of 7e-24 and 0
            assert count_violators(table, "mark", fam, d).count == 1

    def test_unknown_strategy_rejected(self):
        table = sweep(generate_cyclic(3, 12), ["lru"], 2)
        with pytest.raises(ValueError):
            count_violators(table, "fifo", parse_family("log:4"), 1)
        with pytest.raises(ValueError):
            count_violators(table, "lru", parse_family("log:4"), 0)


class TestViolatorBound:
    def test_zero_violators_trivially_pass(self):
        t = generate_random(4, 80, 1, seed=5)
        fam = RatioFamily("const", Fraction(999))
        limit = violator_bound_limit(fam, 5, 1)
        assert count_violators(sweep(t, ["lru"], 5), "lru", fam, 1).count <= limit

    def test_random_traces_lru(self):
        fam = parse_family("log:4")
        limit = violator_bound_limit(fam, 16, 1)
        for seed in range(3):
            t = generate_random(40, 240, 1, seed=seed)
            assert count_violators(sweep(t, ["lru"], 16), "lru", fam, 1).count <= limit

    def test_adversarial_cyclic_fwf(self):
        fam = parse_family("log:4")
        t = generate_cyclic(9, 200)
        limit = violator_bound_limit(fam, 16, 1)
        assert count_violators(sweep(t, ["fwf"], 16), "fwf", fam, 1).count <= limit

    def test_limit_formulas(self):
        fam = parse_family("log:4")
        n = 64
        conservative = violator_bound_limit(fam, n, 1, for_mark=False)
        assert math.isclose(
            conservative, 8 * 2 * math.log(n) * n / (4 * math.log(n + 1))
        )
        mfam = parse_family("loglog:3")
        mark_limit = violator_bound_limit(mfam, n, 1, for_mark=True)
        assert math.isclose(
            mark_limit,
            8 * 2 * math.log(n) * n * math.exp(1 - float(mfam.value(n)) / 2),
        )


class TestCsvAndPlots:
    def test_csv_header_and_rows(self):
        t = generate_cyclic(4, 30)
        table = sweep(t, ["lru", "fwf"], 3)
        text = table_to_csv(table, parse_family("log:4"), 1)
        lines = text.strip().splitlines()
        assert lines[0] == "k,strategy,cost,opt,ratio,phases,avenew,violator"
        assert len(lines) == 1 + 3 * 2
        assert all(line.count(",") == 7 for line in lines)

    @pytest.mark.parametrize("family, d", [("log:1", 1), ("const:1", 2), ("const:1", 1)])
    def test_violator_column_matches_count_violators(self, family, d):
        table = sweep(generate_random(6, 80, 1, seed=3), ["lru", "mark"], 5, mark_trials=4)
        fam = parse_family(family)
        reports = {name: count_violators(table, name, fam, d) for name in table.strategies}
        assert any(rep.count for rep in reports.values())
        text = table_to_csv(table, fam, d)
        flagged = {
            (int(row[0]), row[1])
            for row in (line.split(",") for line in text.splitlines()[1:])
            if row[7] == "1"
        }
        assert flagged == {(k, name) for name, rep in reports.items() for k in rep.ks}

    def test_csv_without_family_leaves_flag_empty(self):
        table = sweep(generate_cyclic(3, 12), ["lru"], 2)
        for line in table_to_csv(table).strip().splitlines()[1:]:
            assert line.endswith(",")

    def test_gnuplot_script_mentions_each_strategy(self):
        table = sweep(generate_cyclic(3, 12), ["lru", "fwf"], 2)
        script = gnuplot_script("data.csv", 12, table.strategies)
        assert "title 'lru'" in script and "title 'fwf'" in script
        assert "competitiveness.png" in script and "faultrate.png" in script

    def test_gnuplot_script_doubles_quotes_in_the_path(self):
        script = gnuplot_script("/data/it's.csv", 12, ("lru", "fwf"))
        assert script.count("'/data/it''s.csv' using 1:") == 4
        assert "it's" not in script
        # every single-quoted string is closed on its own line
        assert all(line.count("'") % 2 == 0 for line in script.splitlines())


def reference_sweep(trace, strategies, n, opt_method="auto", mark_trials=100, seed=0):
    """The sweep as a plain loop over k: every strategy and every marking
    trial run on its own, every k, with no shared work."""
    names = [parse_strategy(s) for s in strategies]
    method = offline.resolve_opt_method(trace, opt_method)
    if method == "flow":
        opt_costs = offline.opt_flow_profile(trace, n)
    else:
        opt_costs = [offline.opt_belady(trace, k) for k in range(1, n + 1)]
    rows = []
    for k in range(1, n + 1):
        p = partition(trace, k)
        costs = {}
        for name in names:
            if name == "mark":
                samples = [
                    run(name, k, trace, seed=_mark_trial_seed(seed, k, t)).total_cost
                    for t in range(mark_trials)
                ]
                costs[name] = Fraction(sum(samples), len(samples))
            else:
                costs[name] = run(name, k, trace, seed=seed).total_cost
        rows.append(SweepRow(k, opt_costs[k - 1], p.num_phases, p.avenew, costs))
    return SweepTable(
        n, tuple(names), method, tuple(rows), offline.opt_single_server(trace)
    )


@st.composite
def traces(draw, wmax=None):
    nodes = draw(st.integers(1, 7))
    wmax = wmax or draw(st.sampled_from([1, 1, 6]))
    weights = draw(st.lists(st.integers(1, wmax), min_size=nodes, max_size=nodes))
    n = draw(st.integers(0, 40))  # a list strategy would stay near empty
    requests = draw(st.lists(st.integers(0, nodes - 1), min_size=n, max_size=n))
    return RequestTrace(tuple(requests), tuple(weights), tuple(f"n{i}" for i in range(nodes)))


ALL_SPECS = ["lru", "fifo", "fwf", "balance", "mark", "greedydual:max", "greedydual:min"]


class TestSharedWork:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(trace=st.one_of(traces(wmax=1), traces(wmax=5), traces(wmax=50)),
           n=st.integers(1, 12))
    @example(trace=parse_trace(""), n=3)
    def test_lru_profile_matches_runs(self, trace, n):
        """LRU evicts by recency alone, so its profile holds on any weights,
        for k past the distinct count too; OPT(1) is the OPT profile's head."""
        assert lru_cost_profile(trace, n) == [
            run("lru", k, trace).total_cost for k in range(1, n + 1)
        ]
        assert sweep(trace, ["lru"], n).opt1 == offline.opt_single_server(trace)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(trace=traces(wmax=1), k=st.integers(1, 8))
    def test_unit_weight_twins_decide_alike(self, trace, k):
        for name, twin in UNIT_WEIGHT_TWINS.items():
            got, want = run(name, k, trace), run(twin, k, trace)
            assert got.events == want.events
            assert got.total_cost == want.total_cost

    def test_lru_profile_edges(self):
        one = generate_random(1, 30, 1, seed=0)
        assert lru_cost_profile(one, 4) == [0] * 4
        assert lru_cost_profile(parse_trace(""), 3) == [0] * 3
        cyclic = generate_cyclic(5, 50)
        assert lru_cost_profile(cyclic, 7) == [
            run("lru", k, cyclic).total_cost for k in range(1, 8)
        ]
        with pytest.raises(ValueError):
            lru_cost_profile(one, 0)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        trace=traces(),
        n=st.integers(1, 9),
        opt_method=st.sampled_from(["auto", "flow"]),
        mark_trials=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**64),
    )
    def test_table_matches_per_k_loop(self, trace, n, opt_method, mark_trials, seed):
        kwargs = dict(opt_method=opt_method, mark_trials=mark_trials, seed=seed)
        got = sweep(trace, ALL_SPECS, n, **kwargs)
        want = reference_sweep(trace, ALL_SPECS, n, **kwargs)
        assert got == want
        for row, ref in zip(got.rows, want.rows):
            assert [type(c) for c in row.costs.values()] == [
                type(c) for c in ref.costs.values()
            ]
        assert table_to_csv(got, parse_family("log:2"), 1) == table_to_csv(
            want, parse_family("log:2"), 1
        )

    def test_swept_work_is_skipped(self, monkeypatch):
        """Rows with k >= the distinct node count run nothing; OPT and LRU
        each come from one profile, FWF from the row's partition, and
        marking from one phase stream per k for all its trials."""
        t = generate_cyclic(5, 60)
        names = ("run", "belady", "opt_profile", "partition", "stream", "profile")
        calls = {name: [] for name in names}

        def counted(name, fn, key):
            return _counted(calls, name, fn, key)

        monkeypatch.setattr(
            sweep_module, "run", counted("run", run, lambda spec, k, trace: (str(spec), k))
        )
        monkeypatch.setattr(
            offline, "opt_belady", counted("belady", offline.opt_belady, lambda trace, k: k)
        )
        monkeypatch.setattr(
            offline, "opt_paging_profile",
            counted("opt_profile", offline.opt_paging_profile, lambda trace, n: n),
        )
        for attr, name in (("partition", "partition"), ("mark_stream", "stream")):
            fn = getattr(sweep_module, attr)
            monkeypatch.setattr(sweep_module, attr, counted(name, fn, lambda trace, k: k))
        monkeypatch.setattr(
            sweep_module, "lru_cost_profile",
            counted("profile", lru_cost_profile, lambda trace, n: n),
        )
        table = sweep(t, ["lru", "fifo", "fwf", "mark"], 12, mark_trials=3)
        busy = [1, 2, 3, 4]
        assert calls["run"] == [("fifo", k) for k in busy]
        assert calls["belady"] == []
        assert calls["opt_profile"] == [4]
        assert calls["partition"] == busy
        assert calls["stream"] == busy
        assert calls["profile"] == [4]
        for row in table.rows[4:]:
            assert row.opt_cost == 0 and row.num_phases == 0 and row.avenew == 0
            assert row.costs == {"lru": 0, "fifo": 0, "fwf": 0, "mark": 0}
            assert type(row.costs["mark"]) is Fraction

    def test_weighted_lru_from_one_profile(self, monkeypatch):
        """On weights LRU still comes from one profile, every other
        strategy runs per k, and OPT(1) is read off the flow profile."""
        t = generate_random(5, 60, 9, seed=3)
        calls = {"run": [], "profile": []}
        monkeypatch.setattr(
            sweep_module, "run",
            _counted(calls, "run", run, lambda spec, k, trace: (str(spec), k)),
        )
        monkeypatch.setattr(
            sweep_module, "lru_cost_profile",
            _counted(calls, "profile", lru_cost_profile, lambda trace, n: n),
        )
        monkeypatch.setattr(offline, "opt_single_server", _must_not_run)
        names = ["lru", "fifo", "greedydual:max"]
        table = sweep(t, names, 12)
        assert not t.is_paging and table.opt_method == "flow"
        busy = t.distinct_requested() - 1
        assert calls["profile"] == [busy]
        assert calls["run"] == [
            (name, k) for k in range(1, busy + 1) for name in names[1:]
        ]
