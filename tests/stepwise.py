"""Per-step duals of a certified GreedyDual run, and the final placement
of any run, rebuilt from the event log.

The library keeps only the final dual (a, b); the duals after each step
are how the proof goes, so they live here as test oracles.  A raise
lifts every live variable by the same amount, so after step s (0-based)
every b[j] with j <= s+1 and every a[i] of a request that has left S
stands at its final value shifted by history[s] - history[-1]; the rest
are 0.  GreedyDual never unplaces a server, so k - |S| servers are
unplaced after a step; they point at b[1] and keep request 0 in S.
"""

from __future__ import annotations

from typing import NamedTuple

from cachecomp.dualcert import CertifiedRun, DualSolution
from cachecomp.strategies import FLUSH, FREE, HIT, MOVE, SimulationResult


class Entry(NamedTuple):
    """A served request ``i`` whose server last moved at request
    ``moved``, both 1-based."""

    i: int
    moved: int


def snapshots(run: CertifiedRun) -> list[tuple[Entry, ...]]:
    """The served multiset after each request, by its definition and kept
    whole at every step: each placed node with its latest request i and
    the latest request at which its server moved in (a miss), by i."""
    placed: set[int] = set()
    last: dict[int, int] = {}
    moved: dict[int, int] = {}
    out = []
    for idx, ev in enumerate(run.result.events, start=1):
        v = run.result.trace.requests[idx - 1]
        if ev.kind == MOVE:
            placed.remove(ev.evicted)
        if ev.kind != HIT:
            moved[v] = idx
        placed.add(v)
        last[v] = idx
        entries = (Entry(last[u], moved[u]) for u in placed)
        out.append(tuple(sorted(entries, key=lambda e: e.i)))
    return out


def dual_at_step(run: CertifiedRun, step: int, served: tuple[Entry, ...]) -> DualSolution:
    """The dual as it stood after request ``step`` (0-based), given that
    step's served multiset: b[j] for the requests seen so far and a[i]
    for those that have left S, each its final value shifted down by the
    raise still to come; zeros elsewhere."""
    shift = run.history[step] - run.history[-1]
    n = run.dual.n
    unplaced = run.result.k - len(served)
    left = set(range(step + 2)) - {e.i for e in served} - ({0} if unplaced else set())
    a = [run.dual.a[i] + shift if i in left else 0 for i in range(n + 1)]
    b = [run.dual.b[j] + shift if 1 <= j <= step + 1 else 0 for j in range(n + 1)]
    return DualSolution(tuple(a), tuple(b))


def served_b_sum(run: CertifiedRun, step: int, served: tuple[Entry, ...]) -> int:
    """The bound's served-set term after request ``step``: b[moved+1] over
    S plus b[1] for each unplaced server, in that step's dual."""
    b = dual_at_step(run, step, served).b + (0,)  # b[n+1]: a server that moved at request n
    return (run.result.k - len(served)) * b[1] + sum(b[e.moved + 1] for e in served)


def placement(result: SimulationResult) -> tuple[int | None, ...]:
    """The node each server holds after the run, by server id, None for an
    unplaced server.  A free placement takes the number of servers placed
    since the last flush as its id, and a move keeps its server's id."""
    where: dict[int, int] = {}  # node -> server id
    for e in result.events:
        if e.kind == FREE:
            where[e.node] = len(where)
        elif e.kind == MOVE:
            where[e.node] = where.pop(e.evicted)
        elif e.kind == FLUSH:
            where.clear()
    node_of: list[int | None] = [None] * result.k
    for v, s in where.items():
        node_of[s] = v
    return tuple(node_of)
