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
{b[1..n]}, so the lazy label offset of ``strategies._label_loop`` is
the cumulative raise.  With R the final offset,

    b[j] = R - (offset at the start of request j)
    a[i] = R - (offset when request i left the served set)

and per-server labels are L = w(r_i) - b[i'+1] and H = w(r_i) - b[i+1]
for the request i the server currently satisfies, where i' is the request
at which that server last moved.

The offset changes only when the algorithm pays, so the run is fully
described by its paid decisions and the offset each one lowers to.
``run_greedydual_certified`` runs that one engine and replays those
decisions once, reading the decision walk ``strategies._walk_decisions``.
The walk checks that a paid decision, and so a raise, sits at exactly
each miss that finds every server placed, and yields each request's
outcome, the ``(i, moved)`` pair that leaves S there and S itself.  The
replay makes no decision: it rebuilds the offset at each
request and (a, b), and checks in exact arithmetic that

  * no offset decreases;
  * b[i+1] <= w(r_i) for every served request i (H >= 0); b[i+1] only
    rises while i is served, so this is checked once, as i leaves S;
  * the evicted server has L <= 0;
  * at the end, the paid distance is the run's total cost.

The slack k * (total raise) - (sum over served requests i of b[i'+1])
- (paid distance) starts at 0; a raise leaves it unchanged and an
eviction lifts it by the victim's -L >= 0, so paid distance never
exceeds k * (total raise) - sum over S of b[i'+1].  With feasibility of
(a, b) that bound, checked at the end by ``check_primal_dual_bound``,
certifies that the run costs at most k/(k-h+1) times the offline optimum
with h <= k servers, with no additive slack.  ``check_feasibility``
decides feasibility of any (a, b) exactly in one O(N) backward scan: for
each request only the largest later b at its own node and the largest at
any other node bind.

The dual is stored once, as the final (a, b) in ``CertifiedRun.dual``;
the per-step duals are only how the proof goes.  ``history`` keeps one
integer per request, the cumulative raise after it, the policy is the
suffix of ``result.strategy``, and the served multiset is not kept: one
O(N) walk of the paid decisions, ``_walk_decisions`` with
``flushes=False`` and ``error=CertificateError``, rebuilds it in request
order for ``check_primal_dual_bound`` (its final state) and
``write_certificate`` (each step's ``S=`` text), so the certified run
holds O(N + k) memory.  Both raise ``CertificateError`` on decisions
that break the placement rule, and on a dual or history that does not
have one entry per request of the trace.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from typing import NamedTuple, TextIO

from .strategies import FREE, HIT, MAX_LOWER, MIN_LOWER, MOVE, SimulationResult
from .strategies import _label_loop, _walk_decisions
from .trace import RequestTrace, _Record

__all__ = [
    "DualSolution",
    "CertifiedRun",
    "CertificateError",
    "Violation",
    "run_greedydual_certified",
    "dual_cost",
    "check_feasibility",
    "check_feasibility_fast",
    "check_primal_dual_bound",
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


class CertifiedRun(NamedTuple):
    """A certified GreedyDual run; ``result`` holds its trace, k and
    policy (the strategy name's suffix)."""

    result: SimulationResult
    dual: DualSolution
    history: tuple[int, ...]  # the cumulative raise after each request
    relabels: tuple[tuple[int, int], ...]  # (1-based request, raise amount)


def run_greedydual_certified(
    trace: RequestTrace,
    k: int,
    relabel: str = MAX_LOWER,
) -> CertifiedRun:
    """Run ``greedydual:<relabel>`` (``relabel`` is "max" or "min") and
    certify it; see the module docstring.  The label engine records, at
    each paid move, the offset it lowers to, and one replay of those
    decisions rebuilds (a, b), raising ``CertificateError`` if an
    invariant fails at any request."""
    if relabel not in (MAX_LOWER, MIN_LOWER):
        raise ValueError(f"unknown relabel policy {relabel!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    levels: list[int] = []
    return _replay(_label_loop(trace, k, f"greedydual:{relabel}", levels=levels), levels)


def _replay(result: SimulationResult, levels: list[int]) -> CertifiedRun:
    """Certify the GreedyDual run ``result`` given ``levels``, the label
    offset (the cumulative raise) after each paid move.  ``offsets`` holds
    it after each request, so once request n has relabelled, raised =
    offsets[n] and b[j] for j <= n is raised - offsets[j-1];
    ``offsets[1:]`` is the run's ``history``.  H >= 0 is checked as each
    request leaves S: superseded by a hit, evicted, or at the end."""
    trace = result.trace
    n = len(trace)
    requests, weights = trace.requests, trace.weights
    if len(levels) != len(result.paid):
        raise CertificateError(f"{len(levels)} levels for {len(result.paid)} paid moves")

    relabels: list[tuple[int, int]] = []
    left = [0] * (n + 1)  # the raise as request i left S (request 0: before any raise)
    raised = distance = 0
    offsets = [0]  # offsets[0] is the offset before request 1
    level_at = iter(levels)

    served: dict[int, tuple[int, int]] = {}  # the walk's dict; stays empty on an empty trace
    walk = _walk_decisions(trace, result.k, result.paid, flushes=False, error=CertificateError)
    for idx, (outcome, gone, served) in enumerate(walk, start=1):
        if outcome is not HIT and outcome is not FREE:  # a paid move
            rho = next(level_at) - raised
            if rho < 0:
                raise CertificateError(f"negative raise {rho} at request {idx}")
            raised += rho
            if rho:
                relabels.append((idx, rho))
            # L > 0 and H < 0 cannot both hold here: the victim's moved <= its i
            if weights[outcome] > raised - offsets[gone[1]]:
                raise CertificateError(f"evicted server has L > 0 at request {idx}")
            distance += weights[outcome]
        if gone is not None:
            i = gone[0]
            if raised - offsets[i] > weights[requests[i - 1]]:
                raise CertificateError(f"b[{i + 1}] exceeds served weight at request {idx}")
            left[i] = raised
        offsets.append(raised)

    for v, (i, _) in served.items():  # the requests still in S leave it at the end
        if raised - offsets[i] > weights[v]:
            raise CertificateError(f"b[{i + 1}] exceeds served weight at request {n}")
        left[i] = raised
    if distance != result.total_cost:
        raise CertificateError(f"paid distance {distance} != total cost {result.total_cost}")
    b = [0] + [raised - x for x in offsets[:n]]
    return CertifiedRun(
        result=result,
        dual=DualSolution(tuple(raised - x for x in left), tuple(b)),
        history=tuple(offsets[1:]),
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


def _check_lengths(run: CertifiedRun) -> None:
    """Refuse a run whose dual or history was not built on its trace."""
    n = len(run.result.trace)
    for what, m in ("dual.n", run.dual.n), ("len(history)", len(run.history)):
        if m != n:
            raise CertificateError(f"{what} is {m} but the trace has {n} requests")


def check_primal_dual_bound(run: CertifiedRun, h: int) -> bool:
    """True iff at termination the paid distance satisfies

        cost <= k/(k-h+1) * dual_cost(h) - sum over served i of b[i'+1]

    evaluated exactly as (k-h+1)*cost <= k*dual_cost - (k-h+1)*sum(...),
    where the k - |S| unplaced servers each point at b[1].  The final
    served set is the last state of the one decision walk,
    ``_walk_decisions``, over ``run.result``; the same walk checks that
    its paid decisions fit the trace, so it stays even though ``_replay``
    held that S: with a kept final S, a swapped-in result's cost would be
    priced against the old dual.
    """
    result = run.result
    k = result.k
    if not 1 <= h <= k:
        raise ValueError("need 1 <= h <= k")
    _check_lengths(run)
    dc = dual_cost(run.dual, h)
    served: dict[int, tuple[int, int]] = {}
    walk = _walk_decisions(result.trace, k, result.paid, flushes=False, error=CertificateError)
    for _, _, served in walk:
        pass  # one dict, updated in place: its last state is the final S
    b, n = run.dual.b, run.dual.n
    served_sum = (k - len(served)) * b[1] if n else 0  # an empty trace has no b[1]
    # a server that moved at the last request points at b[n+1], which is 0
    served_sum += sum(b[moved + 1] for _, moved in served.values() if moved < n)
    return (k - h + 1) * result.total_cost <= k * dc - (k - h + 1) * served_sum


def _certificate_lines(run: CertifiedRun) -> Iterator[str]:
    """The v1 text certificate, one newline-terminated line at a time.
    A step's kind and cost come from its outcome in ``_walk_decisions``, and
    ``dist=`` is the running sum of those costs.  Its ``S=`` text is
    ``0*(k - |S|)`` while servers are unplaced, then the previous step's
    ``i:moved`` tokens with the entry that leaves S cut and the new
    entry's appended."""
    _check_lengths(run)
    result = run.result
    trace = result.trace
    yield "cachecomp-certificate 1\n"
    yield f"k {result.k}\n"
    yield f"policy {result.strategy.partition(':')[2]}\n"
    yield f"requests {run.dual.n}\n"
    yield f"cost {result.total_cost}\n"
    yield "labels " + " ".join(trace.labels) + "\n"
    yield "weights " + " ".join(map(str, trace.weights)) + "\n"
    yield "trace " + " ".join(map(str, trace.requests)) + "\n"
    yield "a " + " ".join(map(str, run.dual.a)) + "\n"
    yield "b " + " ".join(map(str, run.dual.b[1:])) + "\n"
    k, requests, weights = result.k, trace.requests, trace.weights
    tokens = ","  # each token ends in a comma, so ",i:moved," matches exactly one
    distance = 0
    walk = _walk_decisions(trace, k, result.paid, flushes=False, error=CertificateError)
    # strict: past the last request the walk checks that every paid decision fit
    steps = zip(run.history, walk, strict=True)
    for t, (raised, (outcome, left, served)) in enumerate(steps, start=1):
        kind, cost = (outcome, 0) if outcome is HIT or outcome is FREE else (MOVE, weights[outcome])
        distance += cost
        if left is not None:
            tokens = tokens.replace(",{}:{},".format(*left), ",", 1)
        tokens += "{}:{},".format(*served[requests[t - 1]])
        # the requested node is served after every step, so S is never empty
        zero = f"0*{k - len(served)}," if len(served) < k else ""
        yield (
            f"step {t} kind={kind} cost={cost} raised={raised} "
            f"dist={distance} S={zero}{tokens[1:-1]}\n"
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
