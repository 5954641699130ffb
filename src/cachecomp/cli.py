"""Command-line front end.

Subcommands: simulate, optimal, certify, phases, sweep.  Human-readable
summaries go to stdout; machine-readable CSV (the only machine format)
goes to --out when given, otherwise below the summary.  All output is
byte-deterministic for a fixed argv: seeds default to a fixed constant
(0), never the clock.

Exit codes: 0 success, 1 domain error, 2 usage error, 3 certificate
check failure, 141 stdout closed before all output was written (as for
a process killed by SIGPIPE, e.g. ``cachecomp sweep ... | head``).
README's exit-code list names every domain error, among them a
sweep above a cap on ``--n``, ``--trials`` or marking's work.

A process loads only the layers its subcommand runs: ``optimal`` loads
``trace`` and ``offline``, and ``sweep`` is the only subcommand that
loads ``sweep``.  Layers and the names taken from ``sweep`` are bound on
first use (``__getattr__``); a handler binds what it calls and then
looks it up here, so a name replaced on this module is the one called.
The values ``--opt`` and ``--policy`` accept are read from their owners
only when the flag is parsed or its help is printed, so building the
parser loads no layer.  ``--n``'s help does not print the cap; an
``--n`` above it is a domain error that states it.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from .trace import RequestTrace, parse_trace

if TYPE_CHECKING:  # bound on first use, see __getattr__
    from . import dualcert, offline, phases, strategies
    from .sweep import count_violators, gnuplot_script, parse_family, parse_rational, table_to_csv
    from .sweep import sweep as run_sweep

__all__ = ["main", "build_parser"]

USAGE_ERROR = 2
DOMAIN_ERROR = 1
CERT_FAILURE = 3
BROKEN_PIPE = 141

# name -> (submodule, attribute; None for the submodule itself)
_LAZY = {
    "dualcert": ("dualcert", None),
    "offline": ("offline", None),
    "phases": ("phases", None),
    "strategies": ("strategies", None),
    "run_sweep": ("sweep", "sweep"),
    "count_violators": ("sweep", "count_violators"),
    "gnuplot_script": ("sweep", "gnuplot_script"),
    "parse_family": ("sweep", "parse_family"),
    "parse_rational": ("sweep", "parse_rational"),
    "table_to_csv": ("sweep", "table_to_csv"),
}


def __getattr__(name: str):
    """Load a layer, or a name from ``sweep``, on first use (PEP 562)."""
    try:
        module, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = importlib.import_module(f".{module}", __package__)
    if attr is not None:
        value = getattr(value, attr)
    globals()[name] = value
    return value


def _bind(*names: str) -> None:
    """Bind ``names`` as globals here.  A name bound already, also one a
    test or a tracer replaced, is kept, so handlers call what it holds."""
    for name in names:
        if name not in globals():
            __getattr__(name)


class _Owned:
    """The values a flag accepts, read from the layer that owns them when
    the flag is parsed or its help printed, so that building the parser
    loads no layer.  They are set as ``choices`` after ``add_argument``,
    which would read them to check the flag's metavar."""

    def __init__(self, module: str, values: Callable[[object], tuple[str, ...]]):
        self._module = module
        self._values = values

    def _get(self) -> tuple[str, ...]:
        return self._values(importlib.import_module(f".{self._module}", __package__))

    def __contains__(self, value: object) -> bool:
        return value in self._get()

    def __iter__(self) -> Iterator[str]:
        return iter(self._get())


_OPT_CHOICES = _Owned("offline", lambda m: m.OPT_METHODS)
_POLICY_CHOICES = _Owned("strategies", lambda m: (m.MAX_LOWER, m.MIN_LOWER))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachecomp",
        description="Trace-driven competitive analysis of paging and weighted caching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(
        p: argparse.ArgumentParser, need_k: bool = True, verbose: bool = False
    ) -> None:
        p.add_argument("--trace", required=True, help="trace file path")
        if need_k:
            p.add_argument("--k", type=int, required=True, help="number of servers")
        p.add_argument("--out", help="write CSV/data to this file")
        if verbose:
            p.add_argument("-v", "--verbose", action="store_true")

    p_sim = sub.add_parser("simulate", help="run one online strategy")
    add_common(p_sim, verbose=True)
    p_sim.add_argument(
        "--strategy",
        required=True,
        help="lru | fifo | fwf | balance | mark | greedydual[:max|:min]",
    )
    p_sim.add_argument("--seed", type=int)

    p_opt = sub.add_parser("optimal", help="offline optimal cost and schedule")
    add_common(p_opt, verbose=True)
    p_opt.add_argument(
        "--opt", default="auto", help="solver: belady needs unit weights; auto picks per trace",
    ).choices = _OPT_CHOICES

    p_cert = sub.add_parser(
        "certify", help="run greedydual and verify its dual certificate"
    )
    add_common(p_cert)
    p_cert.add_argument("--h", type=int, default=None, help="offline servers (default k)")
    p_cert.add_argument("--policy").choices = _POLICY_CHOICES

    p_ph = sub.add_parser("phases", help="k-phase decomposition statistics")
    add_common(p_ph, verbose=True)

    p_sw = sub.add_parser("sweep", help="sweep k from 1..n over strategies")
    add_common(p_sw, need_k=False)
    p_sw.add_argument("--n", type=int, required=True, help="largest k")
    p_sw.add_argument(
        "--strategies", required=True, help="comma-separated strategy list"
    )
    p_sw.add_argument("--seed", type=int)
    p_sw.add_argument("--trials", type=int, default=100, help="mark sample count")
    p_sw.add_argument("--opt", default="auto").choices = _OPT_CHOICES
    p_sw.add_argument("--c-family", dest="c_family", default=None,
                      help="ratio family log:A | loglog:B | const:C")
    p_sw.add_argument("--d", default="1", help="significance exponent (rational)")
    p_sw.add_argument("--gnuplot", action="store_true",
                      help="also write <out>.gp plotting script (needs --out)")
    return parser


def _load_trace(path: str) -> RequestTrace:
    return parse_trace(Path(path).read_text(encoding="utf-8"))


def _emit(summary: list[str], text: str | None, out: str | None) -> None:
    """Write ``text`` to ``out`` before printing anything, so a failed
    write leaves stdout empty; without ``out`` it follows the summary."""
    if out and text is not None:
        Path(out).write_text(text, encoding="utf-8")
    sys.stdout.write("".join(line + "\n" for line in summary))
    if not out and text is not None:
        sys.stdout.write(text)


def _cmd_simulate(args: argparse.Namespace) -> int:
    _bind("strategies")
    trace = _load_trace(args.trace)
    seed = strategies.DEFAULT_SEED if args.seed is None else args.seed
    result = strategies.run(args.strategy, args.k, trace, seed=seed)
    text = None
    if args.out or args.verbose:
        # RFC 4180: a label holding a comma, a quote or a line break is quoted
        labels = ['"' + x.replace('"', '""') + '"' if any(c in x for c in ',"\r\n') else x
                  for x in trace.labels]
        lines = ["index,node,kind,evicted,cost"]
        for e in result.events:
            evicted = labels[e.evicted] if e.evicted is not None else ""
            lines.append(f"{e.index},{labels[e.node]},{e.kind},{evicted},{e.cost}")
        text = "\n".join(lines) + "\n"
    summary = [f"strategy {result.strategy}", f"k {result.k}", f"cost {result.total_cost}"]
    _emit(summary, text, args.out)
    return 0


def _cmd_optimal(args: argparse.Namespace) -> int:
    _bind("offline")
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
    summary = [f"method {method}", f"k {args.k}", f"cost {cost}"]
    text = None
    if (args.verbose or args.out) and schedule is not None:
        lines = ["request,predecessor"]
        for j in range(1, len(trace) + 1):
            lines.append(f"{j},{schedule.predecessor[j]}")
        text = "\n".join(lines) + "\n"
    elif args.verbose and schedule is None:
        summary.append("(schedule only available with --opt flow)")
    _emit(summary, text, args.out)
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    from math import gcd

    _bind("dualcert", "strategies")
    trace = _load_trace(args.trace)
    policy = strategies.MAX_LOWER if args.policy is None else args.policy
    k = args.k
    h = args.h if args.h is not None else k
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 1 <= h <= k:
        raise ValueError(f"need 1 <= h <= k, got h={h} k={k}")
    run = dualcert.run_greedydual_certified(trace, k, policy)
    if args.out:  # before the summary, so a failed write prints no verdict
        with open(args.out, "w", encoding="utf-8") as fp:
            dualcert.write_certificate(run, fp)
    violations = dualcert.check_feasibility_fast(run.dual, trace)
    feasible = not violations
    bound_ok = dualcert.check_primal_dual_bound(run, h)
    dc = dualcert.dual_cost(run.dual, h)
    print(f"policy {policy}")
    print(f"k {k}")
    print(f"h {h}")
    print(f"cost {run.result.total_cost}")
    print(f"dual_cost {dc}")
    g = gcd(k, k - h + 1)
    num, den = k // g, (k - h + 1) // g
    print(f"ratio {num}" if den == 1 else f"ratio {num}/{den}")
    print(f"feasible {'PASS' if feasible else 'FAIL'}")
    print(f"bound {'PASS' if bound_ok else 'FAIL'}")
    verdict = feasible and bound_ok
    print(f"verdict {'PASS' if verdict else 'FAIL'}")
    return 0 if verdict else CERT_FAILURE


def _cmd_phases(args: argparse.Namespace) -> int:
    _bind("phases")
    trace = _load_trace(args.trace)
    p = phases.partition(trace, args.k)
    avenew = f"{p.avenew}" if p.avenew_defined else "undefined"
    summary = [
        f"k {args.k}",
        f"phases {len(p.boundaries)}",
        f"num_phases {p.num_phases}",
        f"avenew {avenew}",
    ]
    text = None
    if args.out or args.verbose:
        lines = ["phase,start,end,distinct,new"]
        for i, (s, e) in enumerate(p.phase_slices()):
            distinct = len(set(trace.requests[s:e]))
            new = str(p.m[i - 1]) if i >= 1 else ""
            lines.append(f"{i + 1},{s},{e},{distinct},{new}")
        text = "\n".join(lines) + "\n"
    _emit(summary, text, args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    _bind("strategies", "run_sweep", "count_violators", "table_to_csv", "parse_family",
          "parse_rational", "gnuplot_script")
    trace = _load_trace(args.trace)
    specs = [s for s in args.strategies.split(",") if s.strip()]
    if not specs:
        raise ValueError("no strategies given")
    family = parse_family(args.c_family) if args.c_family else None
    d = parse_rational(args.d, f"--d {args.d!r}")
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
        seed=strategies.DEFAULT_SEED if args.seed is None else args.seed,
    )
    summary = [f"n {table.n}", f"opt_method {table.opt_method}", f"opt1 {table.opt1}"]
    if family is not None:
        for name in table.strategies:
            rep = count_violators(table, name, family, d)
            ks = " ".join(str(k) for k in rep.ks)
            summary.append(f"violators {name} {rep.count}" + (f" [{ks}]" if ks else ""))
    csv_text = table_to_csv(table, family, d)
    if args.gnuplot:  # --gnuplot requires --out: both files go before the summary
        Path(args.out).write_text(csv_text, encoding="utf-8")
        script = gnuplot_script(args.out, len(trace), table.strategies)
        Path(args.out + ".gp").write_text(script, encoding="utf-8")
        csv_text = None
    _emit(summary, csv_text, args.out)
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
