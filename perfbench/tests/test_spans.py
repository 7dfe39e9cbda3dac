"""Span arithmetic of the traced run: self time, unions, nesting."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402


def test_union_length_merges_overlaps_and_clips():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (2, 3)]) == 2.0
    assert spans.union_length([(0, 2), (1, 3), (3, 4)]) == 4.0
    assert spans.union_length([(0, 10)], lo=2, hi=5) == 3.0
    assert spans.union_length([(0, 1)], lo=2, hi=5) == 0.0


def test_self_time_is_duration_minus_child_coverage():
    # (id, parent, name, start, end, request)
    recorded = [
        (1, 0, "outer", 0.0, 10.0, None),
        (2, 1, "a", 1.0, 3.0, None),
        (3, 1, "b", 2.0, 5.0, None),    # overlaps a: counted once
        (4, 1, "c", 8.0, 12.0, None),   # runs past its parent: clipped
        (5, 2, "leaf", 1.5, 2.5, None),  # a grandchild, not a child
    ]
    selfs = spans.self_times(recorded)
    assert selfs[1] == 10.0 - (4.0 + 2.0)
    assert selfs[2] == 2.0 - 1.0
    assert selfs[3] == 3.0
    assert selfs[5] == 1.0


def test_outermost_skips_nested_spans_of_the_same_layer():
    recorded = [
        (1, 0, "sim.batch.drive", 0.0, 4.0, None),
        (2, 1, "core.flc", 1.0, 2.0, None),
        (3, 2, "sim.batch.drive", 1.2, 1.8, None),
        (4, 0, "sim.batch.drive", 5.0, 6.0, None),
    ]
    assert [s[0] for s in spans.outermost(recorded)] == [1, 2, 4]


def test_nearest_rank_leaves_ten_samples_above_p90_of_100():
    values = list(range(100))
    p90 = spans.nearest_rank(values, 0.9)
    assert sum(v > p90 for v in values) == 10
    assert spans.nearest_rank([5.0], 0.9) == 5.0
    assert spans.nearest_rank([], 0.5) == 0.0


def test_recorder_nests_wrapped_calls_and_counts():
    rec = spans.SpanRecorder("test")

    def inner(x):
        return [x] * 3

    traced_inner = spans._span_wrapper(
        rec, "inner", inner,
        after=lambda r, args, kwargs, out: r.count("inner.items", len(out)))
    traced_outer = spans._span_wrapper(
        rec, "outer", lambda: traced_inner(1) + traced_inner(2),
        rid=lambda args, kwargs: 7)
    assert traced_outer() == [1, 1, 1, 2, 2, 2]
    by_name = {}
    for span in rec.spans:
        by_name.setdefault(span[2], []).append(span)
    (outer,) = by_name["outer"]
    assert outer[5] == 7
    assert [s[1] for s in by_name["inner"]] == [outer[0], outer[0]]
    assert rec.counts["inner.items"] == 6
    summary = spans.self_times(rec.spans)
    assert 0.0 <= summary[outer[0]] <= outer[4] - outer[3]
