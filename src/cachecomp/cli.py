"""Command-line front end.

Subcommands: simulate, optimal, certify, phases, sweep.  Human-readable
summaries go to stdout; machine-readable CSV (the only machine format)
goes to --out when given, otherwise below the summary.  All output is
byte-deterministic for a fixed argv: seeds default to a fixed constant
(0), never the clock.

Exit codes: 0 success, 1 domain error (bad or unreadable trace, any
other OSError, infeasible method), 2 usage error, 3 certificate check
failure, 141 stdout closed before all output was written (as for a
process killed by SIGPIPE, e.g. ``cachecomp sweep ... | head``).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import dualcert, offline, phases, strategies
from .strategies import DEFAULT_SEED
from .sweep import (
    count_violators,
    gnuplot_script,
    parse_family,
    sweep as run_sweep,
    table_to_csv,
)
from .trace import RequestTrace, parse_trace

__all__ = ["main", "build_parser"]

USAGE_ERROR = 2
DOMAIN_ERROR = 1
CERT_FAILURE = 3
BROKEN_PIPE = 141


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachecomp",
        description="Trace-driven competitive analysis of paging and weighted caching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, need_k: bool = True) -> None:
        p.add_argument("--trace", required=True, help="trace file path")
        if need_k:
            p.add_argument("--k", type=int, required=True, help="number of servers")
        p.add_argument("--out", help="write CSV/data to this file")
        p.add_argument("-v", "--verbose", action="store_true")

    p_sim = sub.add_parser("simulate", help="run one online strategy")
    add_common(p_sim)
    p_sim.add_argument(
        "--strategy",
        required=True,
        help="lru | fifo | fwf | balance | mark | greedydual[:max|:min]",
    )
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_opt = sub.add_parser("optimal", help="offline optimal cost and schedule")
    add_common(p_opt)
    p_opt.add_argument(
        "--opt", choices=offline.OPT_METHODS, default="auto",
        help="solver: belady needs unit weights; auto picks per trace",
    )

    p_cert = sub.add_parser(
        "certify", help="run greedydual and verify its dual certificate"
    )
    add_common(p_cert)
    p_cert.add_argument("--h", type=int, default=None, help="offline servers (default k)")
    p_cert.add_argument(
        "--policy", choices=(strategies.MAX_LOWER, strategies.MIN_LOWER),
        default=strategies.MAX_LOWER,
    )

    p_ph = sub.add_parser("phases", help="k-phase decomposition statistics")
    add_common(p_ph)

    p_sw = sub.add_parser("sweep", help="sweep k from 1..n over strategies")
    add_common(p_sw, need_k=False)
    p_sw.add_argument("--n", type=int, required=True, help="largest k")
    p_sw.add_argument(
        "--strategies", required=True, help="comma-separated strategy list"
    )
    p_sw.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sw.add_argument("--trials", type=int, default=100, help="mark sample count")
    p_sw.add_argument("--opt", choices=offline.OPT_METHODS, default="auto")
    p_sw.add_argument("--c-family", dest="c_family", default=None,
                      help="ratio family log:A | loglog:B | const:C")
    p_sw.add_argument("--d", default="1", help="significance exponent (rational)")
    p_sw.add_argument("--gnuplot", action="store_true",
                      help="also write <out>.gp plotting script (needs --out)")
    return parser


def _load_trace(path: str) -> RequestTrace:
    return parse_trace(Path(path).read_text(encoding="utf-8"))


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    spec = strategies.parse_strategy(args.strategy)
    result = strategies.run(spec, args.k, trace, seed=args.seed)
    print(f"strategy {result.strategy}")
    print(f"k {result.k}")
    print(f"cost {result.total_cost}")
    if args.out or args.verbose:
        lines = ["index,node,kind,evicted,cost"]
        for e in result.events:
            evicted = trace.labels[e.evicted] if e.evicted is not None else ""
            lines.append(f"{e.index},{trace.labels[e.node]},{e.kind},{evicted},{e.cost}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_optimal(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    method = offline.resolve_opt_method(trace, args.opt)
    if args.out and method == "belady":
        raise ValueError("the schedule CSV needs --opt flow (belady computes cost only)")
    if method == "belady":
        cost = offline.opt_belady(trace, args.k)
        schedule = None
    else:
        schedule = offline.opt_flow(trace, args.k)
        cost = schedule.cost
    print(f"method {method}")
    print(f"k {args.k}")
    print(f"cost {cost}")
    if (args.verbose or args.out) and schedule is not None:
        lines = ["request,predecessor"]
        for j in range(1, len(trace) + 1):
            lines.append(f"{j},{schedule.predecessor[j]}")
        _emit("\n".join(lines) + "\n", args.out)
    elif args.verbose and schedule is None:
        print("(schedule only available with --opt flow)")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    k = args.k
    h = args.h if args.h is not None else k
    if not 1 <= h <= k:
        raise ValueError(f"need 1 <= h <= k, got h={h} k={k}")
    run = dualcert.run_greedydual_certified(trace, k, args.policy)
    if args.out:  # before the summary, so a failed write prints no verdict
        with open(args.out, "w", encoding="utf-8") as fp:
            dualcert.write_certificate(run, fp)
    violations = dualcert.check_feasibility_fast(run.dual, trace)
    feasible = not violations
    bound_ok = dualcert.check_primal_dual_bound(run, h)
    dc = dualcert.dual_cost(run.dual, h)
    print(f"policy {args.policy}")
    print(f"k {k}")
    print(f"h {h}")
    print(f"cost {run.result.total_cost}")
    print(f"dual_cost {dc}")
    print(f"ratio {Fraction(k, k - h + 1)}")
    print(f"feasible {'PASS' if feasible else 'FAIL'}")
    print(f"bound {'PASS' if bound_ok else 'FAIL'}")
    verdict = feasible and bound_ok
    print(f"verdict {'PASS' if verdict else 'FAIL'}")
    return 0 if verdict else CERT_FAILURE


def _cmd_phases(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    p = phases.partition(trace, args.k)
    print(f"k {args.k}")
    print(f"phases {len(p.boundaries)}")
    print(f"num_phases {p.num_phases}")
    avenew = f"{p.avenew}" if p.avenew_defined else "undefined"
    print(f"avenew {avenew}")
    if args.out or args.verbose:
        lines = ["phase,start,end,distinct,new"]
        for i, (s, e) in enumerate(p.phase_slices()):
            distinct = len(set(trace.requests[s:e]))
            new = str(p.m[i - 1]) if i >= 1 else ""
            lines.append(f"{i + 1},{s},{e},{distinct},{new}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    specs = [s for s in args.strategies.split(",") if s.strip()]
    if not specs:
        raise ValueError("no strategies given")
    family = parse_family(args.c_family) if args.c_family else None
    try:
        d = Fraction(args.d)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in --d {args.d!r}") from None
    if d <= 0:
        raise ValueError("--d must be positive")
    if args.gnuplot and not args.out:
        raise ValueError("--gnuplot requires --out")
    table = run_sweep(
        trace,
        specs,
        args.n,
        opt_method=args.opt,
        mark_trials=args.trials,
        seed=args.seed,
    )
    print(f"n {table.n}")
    print(f"opt_method {table.opt_method}")
    print(f"opt1 {table.opt1}")
    if family is not None:
        for name in table.strategies:
            rep = count_violators(table, name, family, d)
            ks = " ".join(str(k) for k in rep.ks)
            print(f"violators {name} {rep.count}" + (f" [{ks}]" if ks else ""))
    csv_text = table_to_csv(table, family, d)
    _emit(csv_text, args.out)
    if args.gnuplot:
        script = gnuplot_script(args.out, len(trace), table.strategies)
        Path(args.out + ".gp").write_text(script, encoding="utf-8")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "optimal": _cmd_optimal,
    "certify": _cmd_certify,
    "phases": _cmd_phases,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the flush at exit
        # does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
