"""Request traces: the input data model, a text format, and generators.

A trace is a sequence of node requests plus a positive integer weight per
node.  Weight is the cost of moving a server off the node (evicting it);
a trace with all weights equal to 1 is an ordinary paging trace.
"""

from __future__ import annotations

__all__ = [
    "RequestTrace",
    "TraceParseError",
    "TraceDomainError",
    "parse_trace",
    "serialize_trace",
    "generate_random",
    "generate_cyclic",
]


class TraceParseError(ValueError):
    """Malformed trace text; the message carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class TraceDomainError(ValueError):
    """Structurally valid input with an illegal value (e.g. weight <= 0)."""


class _Record:
    """Base of the records that validate or cache: immutable slots named
    by ``_fields``, set once by ``_assign``; value equality (only with an
    instance of the same class) and hashing over the fields, pickling
    through the constructor, and a ``Name(field=value, ...)`` repr of
    the fields not in ``_hidden``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def _assign(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __repr__(self) -> str:
        shown = (
            f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._hidden
        )
        return f"{self.__class__.__qualname__}({', '.join(shown)})"


class RequestTrace(_Record):
    """An immutable request sequence over interned nodes.

    Node ids are dense integers 0..num_nodes-1, assigned in order of first
    appearance.  ``weights[i]`` and ``labels[i]`` belong to node ``i``.
    Instances are safe to share between threads.
    """

    __slots__ = _fields = ("requests", "weights", "labels")

    def __init__(
        self, requests: tuple[int, ...], weights: tuple[int, ...], labels: tuple[str, ...]
    ) -> None:
        self._assign(requests, weights, labels)
        if len(weights) != len(labels):
            raise ValueError("weights and labels must have matching length")
        if any(w < 1 for w in weights):
            raise TraceDomainError("all node weights must be >= 1")
        n = len(weights)
        if any(not (0 <= v < n) for v in requests):
            raise ValueError("request to unknown node id")

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def num_nodes(self) -> int:
        return len(self.weights)

    @property
    def is_paging(self) -> bool:
        """True when every weight is 1 (uniform eviction cost)."""
        return all(w == 1 for w in self.weights)

    def distinct_requested(self) -> int:
        """Number of distinct nodes actually requested (<= num_nodes)."""
        return len(set(self.requests))


def parse_trace(text: str) -> RequestTrace:
    """Parse the text trace format.

    One request per line: ``<label> [<weight>]``.  ``#`` starts a comment,
    blank lines are ignored, labels are arbitrary non-whitespace tokens,
    and nodes are numbered 0, 1, ... in order of first appearance.
    A node's weight defaults to 1 when never given explicitly; an explicit
    weight applies to the node for the whole trace, and restating a
    different explicit weight for the same node is an error.  One leading
    byte-order mark (U+FEFF) is dropped, so it never joins the first label.
    """
    text = text.removeprefix("\ufeff")
    ids: dict[str, int] = {}  # label -> node; iterates in first-appearance order
    explicit: dict[int, int] = {}
    requests: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) > 2:
            raise TraceParseError("expected '<label> [<weight>]'", lineno)
        node = ids.setdefault(tokens[0], len(ids))
        if len(tokens) == 2:
            try:
                w = int(tokens[1])
            except ValueError:
                raise TraceParseError(f"bad weight {tokens[1]!r}", lineno) from None
            if w <= 0:
                raise TraceDomainError(f"line {lineno}: weight must be positive, got {w}")
            if explicit.setdefault(node, w) != w:
                raise TraceParseError(
                    f"conflicting weight for {tokens[0]!r}: {explicit[node]} then {w}", lineno
                )
        requests.append(node)

    weights = tuple(explicit.get(i, 1) for i in range(len(ids)))
    return RequestTrace(tuple(requests), weights, tuple(ids))


def serialize_trace(trace: RequestTrace) -> str:
    """Render a trace back into the text format, which ``parse_trace``
    reads back with nodes renumbered by first request.  ``ValueError``
    names the first requested label the format cannot carry: one that is
    empty, holds whitespace or ``#``, is shared with another requested
    node, or opens the text with the byte-order mark that parsing drops."""
    nodes: dict[str, int] = {}  # label -> the requested node it names
    lines = []
    for v in trace.requests:
        label = trace.labels[v]
        if nodes.setdefault(label, v) != v:
            raise ValueError(f"label {label!r} names two requested nodes")
        if label.split() != [label] or "#" in label:
            raise ValueError(f"label {label!r} is empty or holds whitespace or '#'")
        if not lines and label.startswith("\ufeff"):
            raise ValueError(f"label {label!r} opens with a byte-order mark")
        w = trace.weights[v]
        lines.append(label if w == 1 else f"{label} {w}")
    return "\n".join(lines) + ("\n" if lines else "")


def generate_random(num_nodes: int, length: int, weight_max: int, seed: int) -> RequestTrace:
    """Uniform random trace: nodes from 0..num_nodes-1, weights from 1..weight_max.

    Deterministic for a given seed.  Weights are drawn first (one per node),
    then the request sequence.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if length < 1:
        raise ValueError("length must be >= 1")
    if weight_max < 1:
        raise ValueError("weight_max must be >= 1")
    import random  # here, so loading a trace does not load ``random``

    rng = random.Random(seed)
    weights = tuple(rng.randint(1, weight_max) for _ in range(num_nodes))
    requests = tuple(rng.randrange(num_nodes) for _ in range(length))
    labels = tuple(f"n{i}" for i in range(num_nodes))
    return RequestTrace(requests, weights, labels)


def generate_cyclic(num_nodes: int, length: int) -> RequestTrace:
    """Round-robin trace 0,1,...,num_nodes-1,0,1,... with unit weights.

    The classic adversarial pattern: with k servers and a cycle over k+1
    nodes, every request after warm-up faults under LRU and FIFO.
    """
    if num_nodes < 2:
        raise ValueError("num_nodes must be >= 2")
    if length < 1:
        raise ValueError("length must be >= 1")
    requests = tuple(i % num_nodes for i in range(length))
    labels = tuple(f"n{i}" for i in range(num_nodes))
    return RequestTrace(requests, (1,) * num_nodes, labels)
