import pytest

from bench.spans import (
    Recorder,
    Span,
    layer_self_times,
    name_totals,
    self_times,
    top_level_time,
)


def _tree() -> list[Span]:
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]; e [10, 12]
    # is a's sibling
    return [
        Span("plane.a", 0.0, 10.0),
        Span("kernel.b", 1.0, 4.0, parent=0),
        Span("kernel.c", 5.0, 9.0, parent=0),
        Span("engine.d", 6.0, 8.0, parent=2),
        Span("plane.e", 10.0, 12.0),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_tree()) == [3.0, 3.0, 2.0, 2.0, 2.0]


def test_self_times_sum_to_top_level_time():
    spans = _tree()
    assert sum(self_times(spans)) == pytest.approx(top_level_time(spans))
    assert top_level_time(spans) == 12.0


def test_layer_self_time_groups_by_name_prefix():
    assert layer_self_times(_tree()) == {"plane": 5.0, "kernel": 5.0, "engine": 2.0}


def test_name_totals_sum_sibling_spans_of_one_name():
    spans = [Span("kernel.tree", 0.0, 1.0), Span("kernel.tree", 2.0, 2.5)]
    assert name_totals(spans) == {"kernel.tree": 1.5}


def test_recorder_links_nested_and_sibling_spans():
    rec = Recorder(True)
    with rec.span("plane.outer"):
        with rec.span("kernel.first", calls=3):
            pass
        with rec.span("kernel.second"):
            with rec.span("engine.inner"):
                pass
    with rec.span("plane.next"):
        pass
    assert [span.parent for span in rec.spans] == [None, 0, 0, 2, None]
    assert rec.spans[1].attrs == {"calls": 3}
    for span in rec.spans:
        assert span.end >= span.start
    outer = rec.spans[0]
    assert outer.start <= rec.spans[1].start and rec.spans[3].end <= outer.end
    assert all(own >= 0.0 for own in self_times(rec.spans))


def test_disabled_recorder_records_nothing():
    rec = Recorder(False)
    with rec.span("plane.outer"):
        with rec.span("kernel.inner"):
            pass
    assert rec.spans == []
