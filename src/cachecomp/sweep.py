"""Sweep k over 1..n: strategy costs, offline optima, phase statistics,
and violator counting under the loose-competitiveness criterion.

A value of k is a violator for strategy X against a ratio family c and
exponent d when X is simultaneously expensive and far from optimal:

    cost_X(k) >= max(c(k) * opt(k), opt(1) / n^d)      (and cost_X(k) > 0).

Zero-cost rows are never violators: zero is trivially optimal, and the
criterion targets significant cost.  Ties count as violations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import offline
from .phases import partition
from .strategies import DEFAULT_SEED, StrategySpec, parse_strategy, run
from .trace import RequestTrace

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
]

VIOLATOR_BOUND_CONSTANT = 8


@dataclass(frozen=True)
class RatioFamily:
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

    kind: str
    param: Fraction

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class SweepRow:
    k: int
    opt_cost: int
    num_phases: int
    avenew: Fraction
    costs: dict[str, int | Fraction]  # strategy name -> cost (mark: mean)
    stderr: dict[str, float] = field(default_factory=dict)  # mark only


@dataclass(frozen=True)
class SweepTable:
    n: int
    strategies: tuple[str, ...]
    opt_method: str
    rows: tuple[SweepRow, ...]
    opt1: int  # offline optimum with one server, computed directly


@dataclass(frozen=True)
class ViolatorReport:
    count: int
    ks: tuple[int, ...]


def _mark_trial_seed(seed: int, k: int, trial: int) -> int:
    """Stable per-trial derivation (never wall clock, never salted hash):
    seed XOR mix(k, trial) with a fixed 64-bit mixing constant."""
    mix = (k * 0x9E3779B97F4A7C15 + trial * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    return seed ^ mix


def sweep(
    trace: RequestTrace,
    strategies: list[StrategySpec | str],
    n: int,
    opt_method: str = "auto",
    mark_trials: int = 100,
    seed: int = DEFAULT_SEED,
    size_cap: int = offline.DEFAULT_FLOW_CAP,
) -> SweepTable:
    """Tabulate every strategy and the offline optimum for k = 1..n.

    Deterministic for fixed arguments: the marking strategy's cost is the
    exact mean over ``mark_trials`` runs whose seeds derive from ``seed``,
    k, and the trial index only, so results are independent of evaluation
    order.  The offline optima come first, so an infeasible method or a
    trace over ``size_cap`` fails before any strategy runs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mark_trials < 1:
        raise ValueError("mark_trials must be >= 1")
    # Every cost is at most len(trace) * max weight; ratios, thresholds and
    # the spread of marking costs are floats, and the spread squares it.
    if (len(trace) * max(trace.weights, default=1)) ** 2 > sys.float_info.max:
        raise ValueError("weights too large for a sweep's floating-point columns")
    specs = [parse_strategy(s) if isinstance(s, str) else s for s in strategies]
    method = offline.resolve_opt_method(trace, opt_method)
    if method == "flow":
        opt_costs = offline.opt_flow_profile(trace, n, size_cap=size_cap)
    else:
        opt_costs = [offline.opt_belady(trace, k) for k in range(1, n + 1)]

    rows = []
    for k in range(1, n + 1):
        p = partition(trace, k)
        costs: dict[str, int | Fraction] = {}
        stderr: dict[str, float] = {}
        for spec in specs:
            name = str(spec)
            if spec.name == "mark":
                samples = [
                    run(spec, k, trace, seed=_mark_trial_seed(seed, k, t)).total_cost
                    for t in range(mark_trials)
                ]
                mean = Fraction(sum(samples), len(samples))
                costs[name] = mean
                if len(samples) > 1:
                    var = sum((s - mean) ** 2 for s in samples) / (len(samples) - 1)
                    stderr[name] = math.sqrt(float(var) / len(samples))
                else:
                    stderr[name] = 0.0
            else:
                costs[name] = run(spec, k, trace, seed=seed).total_cost
        rows.append(SweepRow(k, opt_costs[k - 1], p.num_phases, p.avenew, costs, stderr))

    return SweepTable(
        n=n,
        strategies=tuple(str(s) for s in specs),
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
    name = strategy if strategy in table.strategies else str(parse_strategy(strategy))
    if name not in table.strategies:
        raise ValueError(f"strategy {strategy!r} not in table")
    n = table.n
    exact = family.kind == "const" and d.denominator == 1
    if not exact:
        try:
            floor = table.opt1 / float(n) ** float(d)
        except OverflowError:  # float(d) or n^d too large for a float
            # for n >= 2 the floor is then below 1e-150, as sweep keeps opt1
            # below 1e155, so below any positive cost
            floor = 0.0 if n > 1 else table.opt1
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
    spec = parse_strategy(strategy)
    table = sweep(trace, [spec], n)
    report = count_violators(table, str(spec), family, d)
    limit = violator_bound_limit(family, n, d, for_mark=spec.name == "mark")
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
