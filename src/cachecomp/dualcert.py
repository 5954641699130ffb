"""GreedyDual's dual certificate, read off the label simulation.

The offline optimum is the value of an assignment-style linear program
over the trace (see ``offline``).  Its dual has one variable a[i] per
request 0..N-1 and one variable b[j] per request 1..N (request 0 is an
artificial node of weight 0 injected here, never stored in user traces),
with constraints

    b[j] - a[i] <= d(r_i, r_j)   for all 0 <= i < j <= N
    a[i] >= 0

where d(r_i, r_j) is 0 when both requests are to the same node and the
weight of r_i otherwise.  Any feasible (a, b) prices the instance from
below: its value  -h*a[0] - sum(a[1..N-1]) + sum(b[1..N])  never exceeds
the offline cost with h servers.

GreedyDual is a primal-dual algorithm and its labels are this dual in
other coordinates.  Each uniform lowering of the labels on a miss at
request n is a uniform raise of {a[i] : i < n, i unserved} and
{b[1..n]}, so the lazy label offset of ``strategies.run_greedydual`` is
the cumulative raise.  With R the final offset,

    b[j] = R - (offset at the start of request j)
    a[i] = R - (offset when request i left the served set)

and per-server labels are L = w(r_i) - b[i'+1] and H = w(r_i) - b[i+1]
for the request i the server currently satisfies, where i' is the request
at which that server last moved.

``run_greedydual_certified`` runs that one engine and replays its event
log once.  The replay makes no decision; it rebuilds the served multiset
and (a, b) and checks in exact arithmetic, at every request, that

  * each raise is non-negative, and zero on a hit and while unplaced
    servers remain;
  * after a raise, b[i+1] <= w(r_i) for every served request i (H >= 0);
  * the evicted server has L <= 0;
  * paid distance <= k * (total raise) - sum over served requests i of
    b[i'+1].

With feasibility of (a, b) the last invariant certifies that the run
costs at most k/(k-h+1) times the offline optimum with h <= k servers,
with no additive slack.  ``check_feasibility`` decides feasibility of any
(a, b) exactly in one O(N) backward scan: for each request only the
largest later b at its own node and the largest at any other node bind.

The dual is stored once, as the final (a, b) in ``CertifiedRun.dual``;
each step records only O(1) integers: the unplaced servers, its
cumulative raise, the paid distance and the served-set term.  A raise
lifts every live variable by the same amount, so after step s every b[j]
with j <= s+1 and every a[i] of a request that has left S stands at its
final value plus raised_s - R (``dual_at_step``, ``served_b_sum``).

The served multiset is not kept per step.  Each event changes it by at
most one removal and one insertion, so one O(N) walk of the event log
rebuilds it in request order (``served_steps``; ``served_b_sum`` and
``dual_at_step`` take that step's multiset), and a run keeps no walk
state.  The certified run therefore holds O(N + k) memory, and
``write_certificate`` streams the text certificate one line at a time.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Iterator
from typing import NamedTuple, TextIO, TypeVar

from .strategies import (
    FREE,
    HIT,
    MAX_LOWER,
    MOVE,
    SimulationResult,
    _greedydual,
)
from .trace import RequestTrace, _Record

_Entry = TypeVar("_Entry")

__all__ = [
    "DualSolution",
    "ServedEntry",
    "StepRecord",
    "CertifiedRun",
    "CertificateError",
    "Violation",
    "run_greedydual_certified",
    "dual_cost",
    "check_feasibility",
    "check_feasibility_fast",
    "check_primal_dual_bound",
    "dual_at_step",
    "served_steps",
    "served_b_sum",
    "export_certificate",
    "write_certificate",
]


class CertificateError(AssertionError):
    """A certified-run invariant failed (never expected on valid inputs)."""


class DualSolution(_Record):
    """Dual vectors for a trace of N user requests.

    ``a`` has length N+1 (indices 0..N; a[N] is vacuous and always 0 in
    generated solutions), ``b`` has length N+1 with index 0 unused.  Only
    shapes are validated here: infeasible vectors are legal values, and
    ``check_feasibility`` reports their violations as data.
    """

    __slots__ = _fields = ("a", "b")

    def __init__(self, a: tuple[int, ...], b: tuple[int, ...]) -> None:
        self._assign(a, b)
        if len(a) != len(b):
            raise ValueError("a and b must both have length N+1")
        if not a:
            raise ValueError("vectors must have length >= 1")

    @property
    def n(self) -> int:
        return len(self.a) - 1


class ServedEntry(NamedTuple):
    """One served request ``i`` whose server last moved at request
    ``moved``.  Indices are 1-based; the artificial request 0 appears via
    StepRecord.zero_mult instead."""

    i: int
    moved: int


class StepRecord(NamedTuple):
    """State after one request: unplaced servers, cumulative raise, paid
    distance, and the served-set term of the certified bound.  The served
    multiset itself is rebuilt in request order (``served_steps``)."""

    zero_mult: int
    raised: int
    distance: int
    served_b_sum: int


class CertifiedRun(NamedTuple):
    """A certified GreedyDual run; ``result`` holds its trace and k."""

    result: SimulationResult
    dual: DualSolution
    relabel: str
    history: tuple[StepRecord, ...]
    relabels: tuple[tuple[int, int], ...]  # (1-based request, raise amount)


def _served_walk(
    result: SimulationResult, entry: Callable[[int, int], _Entry]
) -> Iterator[dict[int, _Entry]]:
    """Rebuild the served multiset from a GreedyDual event log.

    Yields after each request one dict, updated in place, mapping each
    served node to ``entry(i, moved)`` for its 1-based request ``i`` and
    the request ``moved`` at which its server last moved.  A request
    re-inserts its node, so the values stay ordered by ``i``; the
    unplaced servers are ``StepRecord.zero_mult``."""
    served: dict[int, _Entry] = {}
    moved_at: dict[int, int] = {}
    for idx, ev in enumerate(result.events, start=1):
        v = ev.node
        if ev.kind == HIT:
            del served[v]
        else:
            moved_at[v] = idx
            if ev.kind == MOVE:
                del served[ev.evicted], moved_at[ev.evicted]
        served[v] = entry(idx, moved_at[v])
        yield served


def run_greedydual_certified(
    trace: RequestTrace,
    k: int,
    relabel: str = MAX_LOWER,
) -> CertifiedRun:
    """Run GreedyDual and certify it; see the module docstring.

    ``strategies.run_greedydual``'s label loop makes every decision, so
    the event log is that function's.  The loop records the label offset
    only at paid moves, where it changes; ``_greedydual`` expands it to one
    offset per request for the replay.  One replay of the log rebuilds the
    served multiset and (a, b) and raises ``CertificateError`` if an
    invariant fails at any request.
    """
    result, offsets = _greedydual(trace, k, relabel)
    return _replay(relabel, result, offsets)


def _replay(
    relabel: str,
    result: SimulationResult,
    offsets: list[int],
) -> CertifiedRun:
    """Certify the event log of ``result`` (on its trace, with its k)
    given the label offset at the start of each request and the final
    offset.  The offset is the cumulative raise: once request n has
    relabelled, raised = offsets[n] and the current b[j] for j <= n is
    raised - offsets[j-1]."""
    trace, k = result.trace, result.k
    n = len(trace)
    reqs = trace.requests
    weights = trace.weights

    relabels: list[tuple[int, int]] = []
    leave_raise: dict[int, int] = {}
    zero_mult = k
    # node -> entry; re-inserted on every request, so values stay ordered by i
    served: dict[int, ServedEntry] = {}
    sum_served_b = 0  # sum over S of current b[moved+1] (zero entries: b[1])
    # (w(r_i) + offsets[i], entry of i, r_i) per served request i, so that
    # b[i+1] <= w(r_i) while raised <= that cap.  An entry that is no longer
    # its node's is stale: dropped from the top, and all of them at 2k.
    caps: list[tuple[int, ServedEntry, int]] = []
    distance = 0
    history: list[StepRecord] = []

    for idx, ev in enumerate(result.events, start=1):
        v = reqs[idx - 1]
        raised = offsets[idx]
        rho = raised - offsets[idx - 1]
        old = served.pop(v, None)
        expected = HIT if old is not None else FREE if zero_mult else MOVE
        if ev.node != v or ev.kind != expected:
            raise CertificateError(f"event {ev} does not fit request {idx}")
        if rho < 0:
            raise CertificateError(f"negative raise {rho} at request {idx}")
        if rho and (zero_mult > 0 or old is not None):
            raise CertificateError(
                f"non-zero raise at request {idx}, a hit or a free placement"
            )
        if rho:
            relabels.append((idx, rho))
            sum_served_b += k * rho
            while caps and served.get(caps[0][2]) is not caps[0][1]:
                heapq.heappop(caps)
            if caps and raised > caps[0][0]:
                raise CertificateError(
                    f"b[{caps[0][1].i + 1}] exceeds served weight after raise at {idx}"
                )

        if old is not None:
            moved = old.moved
            leave_raise[old.i] = raised  # the superseded request exits S here
        elif zero_mult > 0:
            moved = idx
            zero_mult -= 1
            sum_served_b -= raised - offsets[0]
            if zero_mult == 0:
                leave_raise[0] = raised
        else:
            victim = served.pop(ev.evicted, None)
            if victim is None:
                raise CertificateError(f"request {idx} evicts an unserved node")
            victim_b = raised - offsets[victim.moved]
            if weights[ev.evicted] > victim_b:
                raise CertificateError(f"evicted server has L > 0 at request {idx}")
            leave_raise[victim.i] = raised
            sum_served_b -= victim_b
            distance += ev.cost
            moved = idx
        served[v] = entry = ServedEntry(idx, moved)
        if len(caps) >= 2 * k:
            caps = [c for c in caps if served.get(c[2]) is c[1]]
            heapq.heapify(caps)
        heapq.heappush(caps, (weights[v] + offsets[idx], entry, v))

        if distance > k * raised - sum_served_b:
            raise CertificateError(
                f"certified bound violated after request {idx}: "
                f"{distance} > {k}*{raised} - {sum_served_b}"
            )
        history.append(StepRecord(zero_mult, raised, distance, sum_served_b))

    total = offsets[n]
    a = [0] * (n + 1)
    for i, left in leave_raise.items():
        a[i] = total - left
    b = [0] + [total - x for x in offsets[:n]]
    return CertifiedRun(
        result=result,
        dual=DualSolution(tuple(a), tuple(b)),
        relabel=relabel,
        history=tuple(history),
        relabels=tuple(relabels),
    )


def dual_cost(dual: DualSolution, h: int) -> int:
    """Value of (a, b) against h offline servers:
    -h*a[0] - sum(a[1..N-1]) + sum(b[1..N])."""
    if h < 1:
        raise ValueError("h must be >= 1")
    n = dual.n
    return -h * dual.a[0] - sum(dual.a[1:n]) + sum(dual.b[1:])


class Violation(NamedTuple):
    """One broken dual constraint; ``i`` is None for an a[j] >= 0 breach."""

    i: int | None
    j: int
    excess: int


def check_feasibility(dual: DualSolution, trace: RequestTrace) -> list[Violation]:
    """Exact feasibility check of any (a, b); an empty list means feasible.

    For request i >= 1 only two constraints bind: the largest b[j], j > i,
    at r_i's node (against a[i]) and at any other node (against a[i] +
    w(r_i)); request 0 meets the largest b[j] of all (against a[0]).  One
    backward scan finds both in O(N) time and O(distinct nodes) memory.
    Reported: every negative a[i], then per i at most one same-node and
    one other-node violation, each with its largest excess and the
    earliest j on ties, ordered by (i, j).
    """
    if dual.n != len(trace):
        raise ValueError("dual solution and trace lengths differ")
    a, b = dual.a, dual.b
    reqs = trace.requests
    weights = trace.weights
    same_out: list[Violation] = []  # both in descending i until merged
    other_out: list[Violation] = []
    best: dict[int, int] = {}  # node -> later j with the largest b[j]
    top = second = 0  # best j of all nodes, and of the others than top's; 0 = none
    for i in range(dual.n, 0, -1):
        u = reqs[i - 1]
        ai = a[i]
        same = best.get(u, 0)
        top_is_u = top and reqs[top - 1] == u
        other = second if top_is_u else top
        if same and b[same] > ai:
            same_out.append(Violation(i, same, b[same] - ai))
        if other and b[other] - ai > weights[u]:
            other_out.append(Violation(i, other, b[other] - ai - weights[u]))
        bi = b[i]  # request i joins the later requests of i - 1
        if not same or bi >= b[same]:
            best[u] = i
            if top_is_u:
                top = i
            elif not top or bi >= b[top]:
                top, second = i, top
            elif not second or bi >= b[second]:
                second = i
    if top and b[top] > a[0]:
        other_out.append(Violation(0, top, b[top] - a[0]))
    out = [Violation(None, i, -x) for i, x in enumerate(a) if x < 0]
    out.extend(heapq.merge(reversed(same_out), reversed(other_out)))
    return out


check_feasibility_fast = check_feasibility  # the name the benchmark's tracer wraps


def check_primal_dual_bound(run: CertifiedRun, h: int) -> bool:
    """True iff at termination the paid distance satisfies

        cost <= k/(k-h+1) * dual_cost(h) - sum over served i of b[i'+1]

    evaluated exactly as (k-h+1)*cost <= k*dual_cost - (k-h+1)*sum(...).
    The final served set comes from a fresh walk of the event log, not
    from the replay's running sum.
    """
    k = run.result.k
    if not 1 <= h <= k:
        raise ValueError("need 1 <= h <= k")
    dc = dual_cost(run.dual, h)
    cost = run.result.total_cost
    served: dict[int, ServedEntry] = {}
    for served in _served_walk(run.result, ServedEntry):
        pass  # one dict, updated in place: its last state is the final S
    final = list(served.values())
    served_sum = served_b_sum(run, len(run.history) - 1, final) if run.history else 0
    return (k - h + 1) * cost <= k * dc - (k - h + 1) * served_sum


def served_steps(run: CertifiedRun) -> Iterator[tuple[ServedEntry, ...]]:
    """The served multiset after each request, in request order, each
    ordered by request; the unplaced servers after step s are
    ``run.history[s].zero_mult``.  One walk of the event log, O(k) per step."""
    for served in _served_walk(run.result, ServedEntry):
        yield tuple(served.values())


def _record(run: CertifiedRun, step: int) -> StepRecord:
    if not 0 <= step < len(run.history):
        raise ValueError("step out of range")
    return run.history[step]


def served_b_sum(run: CertifiedRun, step: int, served: Iterable[ServedEntry]) -> int:
    """Recompute, from raw records, the served-set term sum over S of
    b[moved+1] as of ``step`` (0-based), given that step's item of
    ``served_steps``; cross-checks the running value."""
    rec = _record(run, step)
    b, shift = run.dual.b, rec.raised - run.history[-1].raised
    total = rec.zero_mult * (b[1] + shift)
    # a server that moved at this request points at b[step+2], not yet defined: 0
    return total + sum(b[e.moved + 1] + shift for e in served if e.moved <= step)


def dual_at_step(
    run: CertifiedRun, step: int, served: Iterable[ServedEntry]
) -> DualSolution:
    """The dual solution as it stood after processing request ``step``
    (0-based), given that step's item of ``served_steps``: b[j] for the
    requests seen so far and a[i] for those that have left S, each its
    final value shifted down by the raise still to come; zeros elsewhere."""
    rec = _record(run, step)
    n = run.dual.n
    in_s = {e.i for e in served}
    shift = rec.raised - run.history[-1].raised
    a, b = [0] * (n + 1), [0] * (n + 1)
    for j in range(1, step + 2):
        b[j] = run.dual.b[j] + shift
    if rec.zero_mult:
        in_s.add(0)  # request 0 holds the unplaced servers
    for i in range(step + 2):
        if i not in in_s:
            a[i] = run.dual.a[i] + shift
    return DualSolution(tuple(a), tuple(b))


def _certificate_lines(run: CertifiedRun) -> Iterator[str]:
    """The v1 text certificate, one newline-terminated line at a time.
    Each ``i:moved`` token is formatted once, when its entry is created."""
    result = run.result
    trace = result.trace
    yield "cachecomp-certificate 1\n"
    yield f"k {result.k}\n"
    yield f"policy {run.relabel}\n"
    yield f"requests {run.dual.n}\n"
    yield f"cost {result.total_cost}\n"
    yield "labels " + " ".join(trace.labels) + "\n"
    yield "weights " + " ".join(map(str, trace.weights)) + "\n"
    yield "trace " + " ".join(map(str, trace.requests)) + "\n"
    yield "a " + " ".join(map(str, run.dual.a)) + "\n"
    yield "b " + " ".join(map(str, run.dual.b[1:])) + "\n"
    walk = _served_walk(result, "{}:{}".format)
    for t, (rec, ev, served) in enumerate(
        zip(run.history, result.events, walk), start=1
    ):
        # the requested node is served after every step, so S is never empty
        zero = f"0*{rec.zero_mult}," if rec.zero_mult else ""
        yield (
            f"step {t} kind={ev.kind} cost={ev.cost} raised={rec.raised} "
            f"dist={rec.distance} S={zero}" + ",".join(served.values()) + "\n"
        )


def export_certificate(run: CertifiedRun) -> str:
    """Text certificate listing the trace, dual vectors, and per-step
    served multiset with last-move pointers, so third-party tools can
    re-verify feasibility and the cost bound without this library.

    Served entries are rendered ``i:i'`` and the artificial request as
    ``0*multiplicity``.  ``write_certificate`` writes the same text
    without holding it in memory.
    """
    return "".join(_certificate_lines(run))


def write_certificate(run: CertifiedRun, fp: TextIO) -> None:
    """Write ``export_certificate(run)`` to the text stream ``fp`` line by
    line, so memory stays O(N + k) however long the certificate is."""
    for line in _certificate_lines(run):
        fp.write(line)
