"""Self-time and remainder arithmetic on a hand-built span tree."""

import pytest

import spans


# root [0, 10] -> a [1, 4] -> a1 [2, 3]
#              -> b [5, 9]
# a second thread's top-level span c [8, 12] overlaps root and b.
TREE = [
    ["root", 0.0, 10.0, -1],
    ["a", 1.0, 4.0, 0],
    ["a1", 2.0, 3.0, 1],
    ["b", 5.0, 9.0, 0],
    ["c", 8.0, 12.0, -1],
]


def test_self_time_subtracts_children():
    assert spans.self_time(TREE) == pytest.approx([3.0, 2.0, 1.0, 4.0, 4.0])


def test_self_time_clips_to_window():
    # Inside [2, 6]: root covers 4, its children a (2..4) and b (5..6).
    assert spans.self_time(TREE, (2.0, 6.0)) == pytest.approx([1.0, 1.0, 1.0, 1.0, 0.0])


def test_layer_totals_groups_by_name():
    totals = spans.layer_totals(TREE + [["a", 6.0, 7.0, 3]])
    assert totals["a"] == {"calls": 2, "wall_s": 4.0, "self_s": 3.0}
    assert totals["b"]["self_s"] == pytest.approx(3.0)


def test_unexplained_is_window_minus_union_of_top_level():
    # Top level: root [0, 10] and c [8, 12] cover [0, 12]; window [0, 15].
    assert spans.unexplained_s(TREE, (0.0, 15.0)) == pytest.approx(3.0)
    assert spans.unexplained_s(TREE, (11.0, 13.0)) == pytest.approx(1.0)


def test_covered_merges_overlaps_and_gaps():
    assert spans.covered_s([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) == pytest.approx(3.0)
    assert spans.covered_s([]) == 0.0


def test_recorder_nests_by_thread_stack():
    rec = spans.SpanRecorder()
    outer = rec.wrap(lambda: inner(), "outer")
    inner = rec.wrap(lambda: 7, "inner")
    assert outer() == 7
    (o_name, o_start, o_end, o_parent), (i_name, i_start, i_end, i_parent) = rec.spans
    assert (o_name, o_parent, i_name, i_parent) == ("outer", -1, "inner", 0)
    assert o_start <= i_start <= i_end <= o_end


def test_event_totals_respect_window():
    events = [["jobs", 1.0, 5.0], ["jobs", 2.0, 7.0], ["jobs", 9.0, 100.0]]
    assert spans.event_totals(events, (0.0, 3.0)) == {"jobs": 12.0}
