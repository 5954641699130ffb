"""Sweep k over 1..n: strategy costs, offline optima, phase statistics,
and violator counting under the loose-competitiveness criterion.

A value of k is a violator for strategy X against a ratio family c and
exponent d when X is simultaneously expensive and far from optimal:

    cost_X(k) >= max(c(k) * opt(k), opt(1) / n^d)      (and cost_X(k) > 0).

Zero-cost rows are never violators: zero is trivially optimal, and the
criterion targets significant cost.  Ties count as violations.

Rows share work instead of rerunning engines.  On unit weights OPT and
LRU are stack algorithms (Mattson, Gecsei, Slutz & Traiger 1970), so
each one's cost for every k comes from one pass: an OPT stack ordered by
next use (``offline.opt_paging_profile``, with
OPT(k) = N - hits(depth <= k) - min(k, distinct)) and LRU's stack
distances.  A strategy with a twin there (``UNIT_WEIGHT_TWINS``:
GreedyDual's relabel policies are LRU and FIFO, and Balance is FIFO)
takes its twin's cost, so each class runs once.  Flush-when-full is read
off the row's phase partition, and marking's cost, the exact mean of its
seeded replays, from one phase stream per k that every trial replays.
Rows with k at least the number of distinct requested nodes evict
nothing, so they are filled with zeros and run nothing, and the OPT
stack stops at the last row that evicts; the flow profile stops by
itself once an extra server saves nothing.  At most ``SWEEP_N_CAP``
rows are swept, checked before any solver runs.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple

from . import offline
from .phases import partition
from .strategies import (
    DEFAULT_SEED,
    UNIT_WEIGHT_TWINS,
    fwf_cost,
    lru_cost_profile,
    mark_stream,
    parse_strategy,
    replay_mark,
    run,
)
from .trace import RequestTrace, _Record

__all__ = [
    "RatioFamily",
    "parse_family",
    "SweepRow",
    "SweepTable",
    "ViolatorReport",
    "sweep",
    "count_violators",
    "violator_bound_limit",
    "violator_bound_check",
    "table_to_csv",
    "gnuplot_script",
    "VIOLATOR_BOUND_CONSTANT",
    "SWEEP_N_CAP",
]

VIOLATOR_BOUND_CONSTANT = 8
SWEEP_N_CAP = 100_000  # most values of k one sweep tabulates


class RatioFamily(_Record):
    """Target competitive-ratio curve c(k).

    kinds (arguments are exact rationals; c must be positive at k = 1, and
    then it is positive for every k):
      log     c(k) = alpha * ln(k + 1)
      loglog  c(k) = 2 * ln(ln(k + 2)) + beta
      const   c(k) = gamma

    The violator-scarcity guarantees additionally require k / c(k)
    nondecreasing (conservative strategies) or 2 ln k - c(k) nondecreasing
    (marking); ``premise_holds`` spot-checks the relevant one numerically.
    """

    __slots__ = _fields = ("kind", "param")

    def __init__(self, kind: str, param: Fraction) -> None:
        self._assign(kind, param)
        if self.kind not in ("log", "loglog", "const"):
            raise ValueError(f"unknown ratio family {self.kind!r}")
        if abs(self.param) > sys.float_info.max:  # thresholds are floats
            raise ValueError(f"{self.kind} ratio family argument is beyond float range")
        if self.value(1) <= 0:
            raise ValueError(f"ratio family {self} is not positive at k = 1")

    def value(self, k: int) -> float | Fraction:
        if k < 1:
            raise ValueError("k must be >= 1")
        if self.kind == "log":
            return float(self.param) * math.log(k + 1)
        if self.kind == "loglog":
            return 2.0 * math.log(math.log(k + 2)) + float(self.param)
        return self.param

    def premise_holds(self, n: int, for_mark: bool = False) -> bool:
        """Numerically verify the monotonicity side condition over 1..n."""
        ks = range(1, n + 1)
        if for_mark:
            vals = [2 * math.log(k) - float(self.value(k)) for k in ks]
        else:
            vals = [k / float(self.value(k)) for k in ks]
        return all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))

    def __str__(self) -> str:
        return f"{self.kind}:{self.param}"


def parse_family(text: str) -> RatioFamily:
    """Parse ``log:A | loglog:B | const:C`` with rational arguments."""
    kind, sep, arg = text.strip().partition(":")
    if not sep:
        raise ValueError(f"ratio family needs an argument: {text!r}")
    try:
        param = Fraction(arg.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in ratio family {text!r}") from None
    return RatioFamily(kind.strip().lower(), param)


class SweepRow(NamedTuple):
    k: int
    opt_cost: int
    num_phases: int
    avenew: Fraction
    costs: dict[str, int | Fraction]  # strategy name -> cost (mark: exact mean)


class SweepTable(NamedTuple):
    n: int
    strategies: tuple[str, ...]
    opt_method: str
    rows: tuple[SweepRow, ...]
    opt1: int  # offline optimum with one server, computed directly


class ViolatorReport(NamedTuple):
    count: int
    ks: tuple[int, ...]


def _mark_trial_seed(seed: int, k: int, trial: int) -> int:
    """Stable per-trial derivation (never wall clock, never salted hash):
    seed XOR mix(k, trial) with a fixed 64-bit mixing constant."""
    mix = (k * 0x9E3779B97F4A7C15 + trial * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    return seed ^ mix


def _mark_mean(trace: RequestTrace, k: int, seed: int, trials: int) -> Fraction:
    """Exact mean cost of ``trials`` marking runs, all replayed from one
    phase stream."""
    stream, weights = mark_stream(trace, k), trace.weights
    total = 0
    for t in range(trials):
        total += sum(weights[u] for _, u in replay_mark(stream, _mark_trial_seed(seed, k, t)))
    return Fraction(total, trials)


def sweep(
    trace: RequestTrace,
    strategies: list[str],
    n: int,
    opt_method: str = "auto",
    mark_trials: int = 100,
    seed: int = DEFAULT_SEED,
) -> SweepTable:
    """Tabulate every strategy and the offline optimum for k = 1..n.

    Deterministic for fixed arguments: the marking strategy's cost is the
    exact mean over ``mark_trials`` runs whose seeds derive from ``seed``,
    k, and the trial index only, so results are independent of evaluation
    order; the table equals running every strategy and trial on its own
    for each k.  A strategy named twice (after ``parse_strategy``), an n
    above ``SWEEP_N_CAP`` and weights beyond float range are rejected
    before any solver runs.  The offline optima come first, so an
    infeasible method or a trace over ``offline.FLOW_CAP`` fails before
    any strategy runs.
    """
    if not 1 <= n <= SWEEP_N_CAP:
        raise ValueError(f"n must be between 1 and {SWEEP_N_CAP}, got {n}")
    if mark_trials < 1:
        raise ValueError("mark_trials must be >= 1")
    # every cost is at most len(trace) * max weight, and costs, ratios and
    # thresholds are printed or compared as floats
    if len(trace) * max(trace.weights, default=1) > sys.float_info.max:
        raise ValueError("weights too large for a sweep's floating-point columns")
    names = [parse_strategy(s) for s in strategies]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"strategy {name!r} given twice")
    method = offline.resolve_opt_method(trace, opt_method)
    # with k >= the number of distinct requested nodes nothing is ever
    # evicted, so only the rows k <= busy run anything
    busy = max(min(n, trace.distinct_requested() - 1), 0)
    if method == "flow":
        opt_costs = offline.opt_flow_profile(trace, n)
    else:
        opt_costs = offline.opt_paging_profile(trace, busy) if busy else []
    twins = UNIT_WEIGHT_TWINS if trace.is_paging else {}
    keys = [twins.get(name, name) for name in names]
    lru_costs = None
    if trace.is_paging and busy and "lru" in keys:
        lru_costs = lru_cost_profile(trace, busy)

    rows = []
    for k in range(1, busy + 1):
        p = partition(trace, k)
        by_key: dict[str, int | Fraction] = {}
        for key in keys:
            if key not in by_key:
                if key == "mark":
                    by_key[key] = _mark_mean(trace, k, seed, mark_trials)
                elif key == "fwf":
                    by_key[key] = fwf_cost(p)
                elif key == "lru" and lru_costs is not None:
                    by_key[key] = lru_costs[k - 1]
                else:
                    by_key[key] = run(key, k, trace, seed=seed).total_cost
        costs = {name: by_key[key] for name, key in zip(names, keys)}
        rows.append(SweepRow(k, opt_costs[k - 1], p.num_phases, p.avenew, costs))
    for k in range(busy + 1, n + 1):
        costs = {name: Fraction(0) if name == "mark" else 0 for name in names}
        rows.append(SweepRow(k, 0, 0, Fraction(0), costs))

    return SweepTable(
        n=n,
        strategies=tuple(names),
        opt_method=method,
        rows=tuple(rows),
        opt1=offline.opt_single_server(trace),
    )


def count_violators(
    table: SweepTable, strategy: str, family: RatioFamily, d: Fraction | int
) -> ViolatorReport:
    """Violators of ``cost >= max(c(k)*opt(k), opt(1)/n^d)`` among k = 1..n.

    Costs and optima are exact; thresholds involving logarithms are
    compared in floating point, while constant families and integer d stay
    fully rational.
    """
    d = Fraction(d)
    if d <= 0:
        raise ValueError("d must be positive")
    name = strategy if strategy in table.strategies else parse_strategy(strategy)
    if name not in table.strategies:
        raise ValueError(f"strategy {strategy!r} not in table")
    n = table.n
    exact = family.kind == "const" and d.denominator == 1
    if not exact:
        try:
            floor = table.opt1 / float(n) ** float(d)
        except OverflowError:  # float(d) or n^d too large for a float
            # 1^d = 1; for n >= 2 the floor is below 1, as sweep keeps opt1 in
            # float range, yet it may exceed a marking mean: take it in logs
            try:
                floor = table.opt1 if n == 1 or not table.opt1 else math.exp(
                    math.log(table.opt1) - float(d) * math.log(n)
                )
            except OverflowError:  # float(d): the floor underflows to 0
                floor = 0.0
    ks = []
    for row in table.rows:
        cost = row.costs[name]
        if cost <= 0:
            continue
        c_k = family.value(row.k)
        if exact:
            # n^b > opt1 * denominator(cost) for b = its bit length and n >= 2,
            # so capping the exponent at b leaves the comparison unchanged
            b = (table.opt1 * cost.denominator).bit_length()
            hit = cost >= Fraction(c_k) * row.opt_cost and (
                cost * n ** min(d.numerator, b) >= table.opt1
            )
        else:
            hit = float(cost) >= max(float(c_k) * row.opt_cost, floor)
        if hit:
            ks.append(row.k)
    return ViolatorReport(len(ks), tuple(ks))


def violator_bound_limit(
    family: RatioFamily,
    n: int,
    d: Fraction | int,
    for_mark: bool = False,
) -> float:
    """Scarcity ceiling on the violator count, with C = VIOLATOR_BOUND_CONSTANT.

    Conservative strategies: C * (d+1) * ln(n) * n / c(n).
    Marking:                 C * (d+1) * ln(n) * n * exp(1 - c(n)/2).
    """
    d = float(Fraction(d))
    c_n = float(family.value(n))
    base = VIOLATOR_BOUND_CONSTANT * (d + 1) * math.log(n) * n
    if for_mark:
        return base * math.exp(1 - c_n / 2)
    return base / c_n


def violator_bound_check(
    trace: RequestTrace,
    strategy: str,
    family: RatioFamily,
    d: Fraction | int,
    n: int,
) -> bool:
    """Sweep the trace with ``sweep``'s defaults and test the violator
    count against its ceiling."""
    name = parse_strategy(strategy)
    table = sweep(trace, [name], n)
    report = count_violators(table, name, family, d)
    limit = violator_bound_limit(family, n, d, for_mark=name == "mark")
    return report.count <= limit


def _fmt_cost(cost: int | Fraction) -> str:
    if isinstance(cost, Fraction) and cost.denominator != 1:
        return repr(float(cost))
    return str(int(cost))


def table_to_csv(
    table: SweepTable, family: RatioFamily | None = None, d: Fraction | int = 1
) -> str:
    """Render ``k,strategy,cost,opt,ratio,phases,avenew,violator`` rows.

    The violator column is empty without a ratio family.  Output is
    byte-deterministic for identical inputs.
    """
    lines = ["k,strategy,cost,opt,ratio,phases,avenew,violator"]
    flags: dict[str, set[int]] = {}
    if family is not None:
        for name in table.strategies:
            flags[name] = set(count_violators(table, name, family, d).ks)
    for row in table.rows:
        for name in table.strategies:
            cost = row.costs[name]
            if row.opt_cost > 0:
                ratio = repr(round(float(cost) / row.opt_cost, 9))
            elif cost == 0:
                ratio = ""
            else:
                ratio = "inf"
            violator = "" if family is None else str(int(row.k in flags[name]))
            lines.append(
                f"{row.k},{name},{_fmt_cost(cost)},{row.opt_cost},{ratio},"
                f"{row.num_phases},{repr(round(float(row.avenew), 9))},{violator}"
            )
    return "\n".join(lines) + "\n"


def gnuplot_script(csv_path: str, trace_length: int, strategies: tuple[str, ...]) -> str:
    """A gnuplot script plotting competitiveness and fault rate against k
    from the CSV written next to it (one series per strategy)."""

    def series(expr: str) -> str:
        return ", \\\n     ".join(
            f"'{csv_path}' using 1:(strcol(2) eq '{name}' ? {expr} : NaN) "
            f"with linespoints title '{name}'"
            for name in strategies
        )

    lines = [
        "set datafile separator ','",
        "set key outside",
        "set xlabel 'k'",
        "set terminal pngcairo size 900,600",
        "set output 'competitiveness.png'",
        "set ylabel 'cost / opt'",
        "plot " + series("column(5)"),
        "set output 'faultrate.png'",
        f"set ylabel 'cost per request'",
        "plot " + series(f"column(3)/{trace_length}.0"),
    ]
    return "\n".join(lines) + "\n"
