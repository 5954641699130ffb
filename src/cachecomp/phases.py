"""k-phase decomposition of a trace and the quantities built on it.

The k-phases tile the trace greedily from the left: each phase is the
maximal substring requesting at most k distinct nodes, so every phase
except possibly the last requests exactly k.  Flush-when-full flushes
exactly at every phase boundary after the first, paying the weight of the
phase that ends there, so ``strategies.run("fwf")`` is read off
``partition``.

Conventions that the downstream bounds depend on:

  * ``num_phases`` (P) is the number of phases MINUS ONE.  Cost bounds of
    conservative strategies count paid phases, and the first phase is free
    under free initial placement, so the off-by-one is intentional.
  * A "new" request in a phase (beyond the first phase) is to a node seen
    neither earlier in that phase nor anywhere in the previous phase; m_i
    counts them.  Two consecutive phases thus request exactly k + m_i
    distinct nodes when the earlier one is full.
  * ``avenew`` (the average m_i) is 0 with ``avenew_defined=False`` when
    P = 0; numeric consumers must check the flag.

Harmonic numbers are exact rationals, built as a fresh table per call, up
to ``EXACT_HARMONIC_LIMIT`` = 10^4; beyond it ``harmonic`` and
``mark_upper_bound`` raise ValueError.  The module keeps no state.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from fractions import Fraction
from typing import NamedTuple

from .trace import RequestTrace

__all__ = [
    "PhasePartition",
    "partition",
    "verify_phase_shrink",
    "mark_upper_bound",
    "opt_phase_lower_bound",
    "harmonic",
]

EXACT_HARMONIC_LIMIT = 10_000


def _harmonics(n: int) -> list[Fraction]:
    """The exact table [H_0, H_1, ..., H_n], for 0 <= n <= 10^4."""
    if not 0 <= n <= EXACT_HARMONIC_LIMIT:
        raise ValueError(f"n must be in 0..{EXACT_HARMONIC_LIMIT}")
    table = [Fraction(0)]
    for j in range(1, n + 1):
        table.append(table[-1] + Fraction(1, j))
    return table


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n as an exact rational, for 0 <= n <= 10^4;
    ValueError outside that range."""
    return _harmonics(n)[-1]


class PhasePartition(NamedTuple):
    """Phases of one trace for one k.

    ``boundaries[i]`` is the 0-based start index of phase i; phases run to
    the next boundary (or trace end).  ``m[i-1]`` is the new-request count
    of phase i for i >= 1 (the first phase has none by definition).
    ``weights[i]`` is the summed weight of the distinct nodes of phase i,
    which is what flush-when-full pays when it flushes at the end of it.
    """

    k: int
    trace_length: int
    boundaries: tuple[int, ...]
    m: tuple[int, ...]
    weights: tuple[int, ...]

    @property
    def num_phases(self) -> int:
        """Number of phases minus one (0 for a single-phase or empty trace)."""
        return max(len(self.boundaries) - 1, 0)

    @property
    def avenew(self) -> Fraction:
        """Average new requests per phase beyond the first; 0 when undefined."""
        if self.num_phases == 0:
            return Fraction(0)
        return Fraction(sum(self.m), self.num_phases)

    @property
    def avenew_defined(self) -> bool:
        return self.num_phases > 0

    def phase_slices(self) -> list[tuple[int, int]]:
        """[(start, end)) index pairs, one per phase."""
        out = []
        for i, start in enumerate(self.boundaries):
            end = (
                self.boundaries[i + 1]
                if i + 1 < len(self.boundaries)
                else self.trace_length
            )
            out.append((start, end))
        return out


def _k_phases(requests: Sequence[int], k: int) -> Iterator[dict[int, int]]:
    """Each k-phase in turn, as its nodes mapped to their first request in
    it; a phase ends just before a request to its (k+1)-th distinct node."""
    if k < 1:
        raise ValueError("k must be >= 1")
    current: dict[int, int] = {}
    for i, v in enumerate(requests):
        if v in current:
            continue
        if len(current) == k:
            yield current
            current = {}
        current[v] = i
    if current:
        yield current


def partition(trace: RequestTrace, k: int) -> PhasePartition:
    """Decompose the trace into k-phases (greedy maximal substrings),
    keeping only the previous and the current phase's nodes."""
    weights = trace.weights
    boundaries: list[int] = []
    m: list[int] = []  # one per phase, the first phase's dropped at the end
    phase_weights: list[int] = []
    previous: dict[int, int] = {}
    for current in _k_phases(trace.requests, k):
        new = held = 0
        for v in current:
            new += v not in previous
            held += weights[v]
        boundaries.append(next(iter(current.values())))  # its first request
        m.append(new)
        phase_weights.append(held)
        previous = current
    return PhasePartition(
        k, len(trace), tuple(boundaries), tuple(m[1:]), tuple(phase_weights)
    )


def verify_phase_shrink(trace: RequestTrace, k: int) -> bool:
    """Check that moving to k' = ceil(k + 2*avenew) cuts the phase count to
    at most three quarters: 4 * P(k') <= 3 * P(k).

    Only meaningful when P(k) > 0; raises ValueError otherwise so callers
    skip degenerate traces explicitly.
    """
    p = partition(trace, k)
    if p.num_phases == 0:
        raise ValueError("phase-shrink check requires P(k) > 0")
    k_prime = k + math.ceil(2 * p.avenew)
    p2 = partition(trace, k_prime)
    return 4 * p2.num_phases <= 3 * p.num_phases


def mark_upper_bound(p: PhasePartition) -> Fraction:
    """Expected-cost ceiling for the randomized marking strategy:
    sum over phases of m_i * (H_k - H_{m_i} + 1), as an exact rational.

    Only valid for unit-weight traces (marking cost counts evictions).
    """
    if p.num_phases == 0:
        return Fraction(0)
    h = _harmonics(p.k)
    total = Fraction(0)
    for m_i in p.m:
        if not 1 <= m_i <= p.k:
            raise ValueError("every phase beyond the first has 1..k new requests")
        total += m_i * (h[p.k] - h[m_i] + 1)
    return total


def opt_phase_lower_bound(p: PhasePartition, h: int) -> Fraction:
    """Offline cost with h servers is at least (k - h + avenew) * P / 2:
    consecutive phase pairs force k + m_i distinct nodes onto h servers.
    Clamped at 0 when h outgrows the bound."""
    if h < 1:
        raise ValueError("h must be >= 1")
    bound = Fraction(p.k - h + p.avenew) * p.num_phases / 2
    return max(bound, Fraction(0))
