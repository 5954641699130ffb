import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecomp.trace import (
    RequestTrace,
    TraceDomainError,
    TraceParseError,
    generate_cyclic,
    generate_random,
    parse_trace,
    serialize_trace,
)


class TestParse:
    def test_bare_labels_default_unit_weight(self):
        t = parse_trace("a\nb\na\n")
        assert t.requests == (0, 1, 0)
        assert t.weights == (1, 1)
        assert t.labels == ("a", "b")

    def test_explicit_weights_and_bare_remention(self):
        t = parse_trace("a 5\nb 2\na\n")
        assert t.requests == (0, 1, 0)
        assert t.weights == (5, 2)

    def test_explicit_weight_after_bare_mention(self):
        t = parse_trace("a\na 5\n")
        assert t.weights == (5,)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(TraceDomainError):
            parse_trace("a -1\n")
        with pytest.raises(TraceDomainError):
            parse_trace("a 0\n")

    def test_conflicting_weights_rejected(self):
        with pytest.raises(TraceParseError):
            parse_trace("a 5\na 3\n")
        # restating the same weight is fine
        assert parse_trace("a 5\na 5\n").weights == (5,)

    def test_comments_and_blank_lines(self):
        t = parse_trace("# header\n\na 2  # trailing\n  \nb\n")
        assert t.requests == (0, 1)
        assert t.weights == (2, 1)

    def test_malformed_lines(self):
        with pytest.raises(TraceParseError) as exc:
            parse_trace("a\nb c d\n")
        assert exc.value.line == 2
        with pytest.raises(TraceParseError):
            parse_trace("a x\n")

    def test_empty_trace_is_legal(self):
        t = parse_trace("")
        assert len(t) == 0 and t.num_nodes == 0

    def test_interning_is_first_appearance_order(self):
        t = parse_trace("z\ny\nx\nz\n")
        assert t.labels == ("z", "y", "x")
        assert t.requests == (0, 1, 2, 0)

    def test_leading_byte_order_mark_is_dropped(self):
        plain = parse_trace("a\nb\na\nb\n")
        assert parse_trace("\ufeffa\nb\na\nb\n") == plain
        assert plain.labels == ("a", "b") and plain.num_nodes == 2
        # only one mark, and only at the very start: any other is label text
        assert parse_trace("\ufeff\ufeffa\n").labels == ("\ufeffa",)
        assert parse_trace("a\n\ufeffa\n").labels == ("a", "\ufeffa")


def reference_parse(text):
    """The per-line parser ``parse_trace`` was written as, kept as its
    oracle: one ``labels`` list beside the ``ids`` dict, and comments cut
    and blank lines dropped line by line."""
    ids = {}
    labels = []
    explicit = {}
    requests = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) > 2:
            raise TraceParseError("expected '<label> [<weight>]'", lineno)
        label = tokens[0]
        node = ids.get(label)
        if node is None:
            node = len(labels)
            ids[label] = node
            labels.append(label)
        if len(tokens) == 2:
            try:
                w = int(tokens[1])
            except ValueError:
                raise TraceParseError(f"bad weight {tokens[1]!r}", lineno) from None
            if w <= 0:
                raise TraceDomainError(f"line {lineno}: weight must be positive, got {w}")
            prev = explicit.get(node)
            if prev is not None and prev != w:
                raise TraceParseError(
                    f"conflicting weight for {label!r}: {prev} then {w}", lineno
                )
            explicit[node] = w
        requests.append(node)
    weights = tuple(explicit.get(i, 1) for i in range(len(labels)))
    return RequestTrace(tuple(requests), weights, tuple(labels))


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


LINE_SEPARATORS = st.sampled_from(["\n", "\r\n", "\r", "\x1c", "\x85", "\u2028"])
# repeated entries tilt the draw toward valid weights, so conflicts occur
TRACE_LINES = st.one_of(
    st.sampled_from(["", "  ", "\t", "# note", " #7"]),
    st.builds(
        "{}{}{}".format,
        st.sampled_from(["a", "b", "c", "é", "a#b", "#c", "b#"]),
        st.sampled_from(["", "", " 1", " 3", " 3", " 7", " 0", " -2", " x", " 1.5",
                         " 1" + "0" * 400]),
        st.sampled_from(["", "", "", " ", " 9", " # note", "#1 2 3"]),
    ),
)
TRACE_TEXT = st.builds(
    lambda pairs, last: "".join(line + sep for line, sep in pairs) + last,
    st.lists(st.tuples(TRACE_LINES, LINE_SEPARATORS), max_size=12),
    TRACE_LINES,
)


class TestAgainstReferenceParser:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(text=TRACE_TEXT)
    def test_same_trace_or_same_error(self, text):
        assert _outcome(parse_trace, text) == _outcome(reference_parse, text)


class TestRoundTrip:
    def test_round_trip_identity(self):
        text = "a 5\nb 2\na 5\nc\n"
        t = parse_trace(text)
        assert parse_trace(serialize_trace(t)) == t

    def test_round_trip_random(self):
        # serialization drops nodes that were never requested, so compare
        # label/weight sequences and check the serialized form is a fixed point
        for seed in range(10):
            t = generate_random(6, 40, 7, seed=seed)
            text = serialize_trace(t)
            t2 = parse_trace(text)
            assert serialize_trace(t2) == text
            assert [t.labels[v] for v in t.requests] == [t2.labels[v] for v in t2.requests]
            assert [t.weights[v] for v in t.requests] == [t2.weights[v] for v in t2.requests]

    def test_round_trip_empty(self):
        assert parse_trace(serialize_trace(parse_trace(""))) == parse_trace("")

    @pytest.mark.parametrize(
        "requests, labels, message",
        [
            # "x 5" would read back as node x of weight 5, "a#b" as node a
            ((0, 1, 0), ("x 5", "a#b"), "label 'x 5' is empty or holds whitespace or '#'"),
            # the first in request order is named, not the first node
            ((1, 0), ("a#b", "b\tc"), "label 'b\\tc' is empty or holds whitespace or '#'"),
            ((0, 1), ("a", "b#"), "label 'b#' is empty or holds whitespace or '#'"),
            # an empty label's line is blank, so its request would vanish
            ((0, 1, 0), ("a", ""), "label '' is empty or holds whitespace or '#'"),
            # two nodes named alike would read back as one, at one weight
            ((0, 1, 2), ("a", "b", "a"), "label 'a' names two requested nodes"),
            # parsing drops a byte-order mark that opens the text
            ((0, 1), ("\ufeffa", "b"), "label '\\ufeffa' opens with a byte-order mark"),
        ],
        ids=["space", "tab-first-requested", "hash", "empty", "shared", "byte-order-mark"],
    )
    def test_unwritable_label_rejected(self, requests, labels, message):
        t = RequestTrace(requests, (1,) * len(labels), labels)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            serialize_trace(t)

    def test_writable_labels_round_trip(self):
        # a shared label on a node never requested, and a byte-order mark
        # after the first line, are written and read back unchanged
        t = RequestTrace((0, 1, 0), (3, 1, 2), ("a", "\ufeffb", "a"))
        back = parse_trace(serialize_trace(t))
        assert back.requests == t.requests and back.labels == t.labels[:2]
        assert back.weights == t.weights[:2]


class TestValidation:
    def test_weights_must_be_positive(self):
        with pytest.raises(TraceDomainError):
            RequestTrace((0,), (0,), ("a",))

    def test_requests_within_range(self):
        with pytest.raises(ValueError):
            RequestTrace((1,), (1,), ("a",))

    def test_is_paging(self):
        assert parse_trace("a\nb\n").is_paging
        assert not parse_trace("a 2\n").is_paging


class TestGenerators:
    def test_random_single_node(self):
        t = generate_random(1, 5, 1, seed=9)
        assert t.requests == (0,) * 5

    def test_random_deterministic(self):
        assert generate_random(4, 50, 3, seed=17) == generate_random(4, 50, 3, seed=17)

    def test_random_covers_all_nodes(self):
        # derived: with 3 nodes and 1000 draws the distinct count is 3
        t = generate_random(3, 1000, 1, seed=123)
        assert t.distinct_requested() == 3

    def test_random_weight_range(self):
        t = generate_random(10, 10, 4, seed=3)
        assert all(1 <= w <= 4 for w in t.weights)

    def test_random_validation(self):
        with pytest.raises(ValueError):
            generate_random(0, 5, 1, seed=0)
        with pytest.raises(ValueError):
            generate_random(2, 0, 1, seed=0)

    def test_cyclic_pattern(self):
        t = generate_cyclic(3, 7)
        assert t.requests == (0, 1, 2, 0, 1, 2, 0)
        assert t.is_paging

    def test_cyclic_needs_two_nodes(self):
        with pytest.raises(ValueError):
            generate_cyclic(1, 5)
