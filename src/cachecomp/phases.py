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
"""

from __future__ import annotations

import math
import threading
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

_harmonic_cache: list[Fraction] = [Fraction(0)]
_harmonic_lock = threading.Lock()  # each entry extends the one before it


def harmonic(n: int) -> Fraction | float:
    """H_n = 1 + 1/2 + ... + 1/n, exact up to n = 10^4.

    Beyond the exact limit a double-precision asymptotic expansion is used
    (relative error below 1e-9); only diagnostics ever reach that range.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= EXACT_HARMONIC_LIMIT:
        if n >= len(_harmonic_cache):
            with _harmonic_lock:
                while len(_harmonic_cache) <= n:
                    m = len(_harmonic_cache)
                    _harmonic_cache.append(_harmonic_cache[-1] + Fraction(1, m))
        return _harmonic_cache[n]
    euler_gamma = 0.5772156649015329
    return math.log(n) + euler_gamma + 1 / (2 * n) - 1 / (12 * n * n)


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


def partition(trace: RequestTrace, k: int) -> PhasePartition:
    """Decompose the trace into k-phases (greedy maximal substrings),
    keeping only the previous and the current phase's node sets."""
    if k < 1:
        raise ValueError("k must be >= 1")
    reqs, weights = trace.requests, trace.weights
    boundaries = [0] if reqs else []
    m: list[int] = []  # one per phase, the first phase's dropped at the end
    phase_weights: list[int] = []
    previous: set[int] = set()
    current: set[int] = set()
    new = held = 0
    for i, v in enumerate(reqs):
        if v in current:
            continue
        if len(current) == k:
            m.append(new)
            phase_weights.append(held)
            boundaries.append(i)
            previous, current = current, set()
            new = held = 0
        current.add(v)
        new += v not in previous
        held += weights[v]
    if reqs:
        m.append(new)
        phase_weights.append(held)
    return PhasePartition(
        k, len(reqs), tuple(boundaries), tuple(m[1:]), tuple(phase_weights)
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
    h_k = harmonic(p.k)
    if not isinstance(h_k, Fraction):
        raise ValueError("k beyond the exact harmonic range")
    total = Fraction(0)
    for m_i in p.m:
        if m_i < 1:
            raise ValueError("every phase beyond the first opens with a new request")
        total += m_i * (h_k - harmonic(m_i) + 1)
    return total


def opt_phase_lower_bound(p: PhasePartition, h: int) -> Fraction:
    """Offline cost with h servers is at least (k - h + avenew) * P / 2:
    consecutive phase pairs force k + m_i distinct nodes onto h servers.
    Clamped at 0 when h outgrows the bound."""
    if h < 1:
        raise ValueError("h must be >= 1")
    bound = Fraction(p.k - h + p.avenew) * p.num_phases / 2
    return max(bound, Fraction(0))
