"""The contract every result record keeps: field names and order, a
positional and keyword constructor, immutability, value equality and
hashing, a ``Name(field=value, ...)`` repr and a pickle round trip."""

import pickle
from fractions import Fraction

import pytest

from cachecomp.dualcert import (
    CertifiedRun,
    DualSolution,
    ServedEntry,
    StepRecord,
    Violation,
    run_greedydual_certified,
)
from cachecomp.offline import OptSchedule
from cachecomp.phases import PhasePartition
from cachecomp.strategies import Event, SimulationResult, run
from cachecomp.sweep import RatioFamily, SweepRow, SweepTable, ViolatorReport
from cachecomp.trace import RequestTrace, TraceDomainError, parse_trace

TRACE = parse_trace("a 5\nb\nc\nb\na 5\n")


def _values():
    """(type, field names in order, a fresh tuple of field values, hashable)."""
    result = run("greedydual:max", 2, TRACE)
    cert = run_greedydual_certified(TRACE, 2)
    row = SweepRow(1, 2, 0, Fraction(0), {"lru": 4})
    return [
        (RequestTrace, ("requests", "weights", "labels"), ((0, 1), (2, 1), ("a", "b")), True),
        (Event, ("index", "node", "kind", "evicted", "cost"), (3, 0, "move", 1, 2), True),
        (SimulationResult, ("strategy", "k", "total_cost", "paid", "trace"),
         ("lru", 2, 5, ((3, 0),), TRACE), True),
        (PhasePartition, ("k", "trace_length", "boundaries", "m", "weights"),
         (2, 4, (0, 2), (1,), (2, 2)), True),
        (OptSchedule, ("predecessor", "cost", "k"), ((0, 0, 1), 3, 1), True),
        (DualSolution, ("a", "b"), ((0, 1), (0, 2)), True),
        (ServedEntry, ("i", "moved"), (4, 2), True),
        (StepRecord, ("zero_mult", "raised", "distance", "served_b_sum"), (0, 3, 1, 2), True),
        (CertifiedRun, ("result", "dual", "relabel", "history", "relabels"),
         (result, cert.dual, "max", cert.history, cert.relabels), True),
        (Violation, ("i", "j", "excess"), (None, 2, 1), True),
        (RatioFamily, ("kind", "param"), ("log", Fraction(4)), True),
        (SweepRow, ("k", "opt_cost", "num_phases", "avenew", "costs"),
         (1, 2, 0, Fraction(0), {"lru": 4}), False),
        (SweepTable, ("n", "strategies", "opt_method", "rows", "opt1"),
         (1, ("lru",), "flow", (row,), 20), False),
        (ViolatorReport, ("count", "ks"), (2, (1, 3)), True),
    ]


CASES = _values()


@pytest.mark.parametrize("cls, fields, values, hashable", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_contract(cls, fields, values, hashable):
    x = cls(*values)
    y = cls(**dict(zip(fields, values)))
    assert tuple(getattr(x, f) for f in fields) == values
    assert x == y and not x != y
    if hashable:
        assert hash(x) == hash(y)
    else:  # a dict field: unhashable, as it was before
        with pytest.raises(TypeError):
            hash(x)
    for name in (fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(x, name, values[0])
    shown = [f for f in fields if (cls, f) != (SimulationResult, "trace")]
    assert repr(x) == f"{cls.__name__}(" + ", ".join(f"{f}={getattr(x, f)!r}" for f in shown) + ")"
    assert pickle.loads(pickle.dumps(x)) == x


@pytest.mark.parametrize("cls", [RequestTrace, SimulationResult, DualSolution, RatioFamily])
def test_validated_records_are_slotted_and_equal_only_their_own_class(cls):
    _, fields, values, _ = next(c for c in CASES if c[0] is cls)
    x = cls(*values)
    assert x != values
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert hasattr(x, "__dict__") == (cls is SimulationResult)


def test_validation_and_error_types():
    with pytest.raises(TraceDomainError):
        RequestTrace((0,), (0,), ("a",))
    with pytest.raises(ValueError, match="matching length"):
        RequestTrace((0,), (1,), ())
    with pytest.raises(ValueError, match="a and b"):
        DualSolution((0, 0), (0,))
    with pytest.raises(ValueError, match="unknown ratio family"):
        RatioFamily("cubic", Fraction(1))
    with pytest.raises(ValueError, match="not positive at k = 1"):
        RatioFamily("const", Fraction(-1))


def test_event_defaults():
    assert Event(0, 1, "hit") == Event(index=0, node=1, kind="hit", evicted=None, cost=0)


def test_simulation_result_caches_events_and_placement():
    r = run("fwf", 2, TRACE)
    events = r.events
    assert r.events is events and r.final_nodes is r.final_nodes
    assert set(vars(r)) == {"events", "final_nodes"}
