import math
import random
from fractions import Fraction

import pytest

from cachecomp.offline import InstanceSizeError, opt_bruteforce, opt_flow
from cachecomp.sweep import (
    RatioFamily,
    count_violators,
    gnuplot_script,
    parse_family,
    sweep,
    table_to_csv,
    violator_bound_check,
    violator_bound_limit,
)
from cachecomp.trace import generate_cyclic, generate_random, parse_trace

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
        t = generate_random(3, 20, 5, seed=0)
        with pytest.raises(ValueError):
            sweep(t, ["lru"], 2, opt_method="belady")

    def test_weights_beyond_float_range_rejected_before_running(self):
        # len * max weight = 2 * 2^511: its square is beyond float range
        t = parse_trace(f"a {2**511}\nb\n")
        with pytest.raises(ValueError, match="float"):
            sweep(t, ["lru"], 2, opt_method="flow", size_cap=1)
        assert sweep(parse_trace(f"a {2**510}\nb\n"), ["lru", "mark"], 2).opt1 == 2**510

    def test_flow_cap_checked_before_running(self):
        t = generate_random(3, 40, 5, seed=0)
        with pytest.raises(InstanceSizeError):
            sweep(t, ["lru"], 2, opt_method="flow", size_cap=10)

    def test_mark_mean_and_stderr(self):
        t = generate_cyclic(6, 80)
        table = sweep(t, ["mark"], 4, mark_trials=25, seed=9)
        for row in table.rows:
            mean = row.costs["mark"]
            assert isinstance(mean, Fraction)
            assert row.stderr["mark"] >= 0.0

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

    def test_unknown_strategy_rejected(self):
        table = sweep(generate_cyclic(3, 12), ["lru"], 2)
        with pytest.raises(ValueError):
            count_violators(table, "fifo", parse_family("log:4"), 1)
        with pytest.raises(ValueError):
            count_violators(table, "lru", parse_family("log:4"), 0)


class TestViolatorBound:
    def test_zero_violators_trivially_pass(self):
        t = generate_random(4, 80, 1, seed=5)
        assert violator_bound_check(t, "lru", RatioFamily("const", Fraction(999)), 1, 5)

    def test_random_traces_lru(self):
        fam = parse_family("log:4")
        for seed in range(3):
            t = generate_random(40, 240, 1, seed=seed)
            assert violator_bound_check(t, "lru", fam, 1, 16)

    def test_adversarial_cyclic_fwf(self):
        fam = parse_family("log:4")
        t = generate_cyclic(9, 200)
        assert violator_bound_check(t, "fwf", fam, 1, 16)

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
