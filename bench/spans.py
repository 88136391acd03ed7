"""The benchmark's own span recorder.

One span per call from a workload into a layer's public function:
name, start, end, the span that was open when it started.  Spans are
kept in memory and written out when the workload ends.  A span name is
``<layer>.<what>``; the layer is the part before the first dot, and a
layer's self time is its spans' durations minus the part of each that
child spans cover.

Spans inside ``src/`` are a later issue; until then the recorder only
sees what the workload code itself calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index of the enclosing span, if any
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class _OpenSpan:
    """Context manager of one recorded span."""

    __slots__ = ("_recorder", "_name", "_attrs", "_index")

    def __init__(self, recorder: "Recorder", name: str, attrs: dict[str, Any]):
        self._recorder = recorder
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> None:
        recorder = self._recorder
        stack = recorder._stack
        self._index = len(recorder.spans)
        recorder.spans.append(
            Span(
                self._name,
                perf_counter(),
                parent=stack[-1] if stack else None,
                attrs=self._attrs,
            )
        )
        stack.append(self._index)

    def __exit__(self, *exc_info: object) -> None:
        end = perf_counter()
        recorder = self._recorder
        recorder.spans[self._index].end = end
        recorder._stack.pop()


class _NoSpan:
    """The disabled recorder's shared do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NO_SPAN = _NoSpan()


class Recorder:
    """Collects the spans of one rep.  Disabled, ``span()`` hands back
    one shared no-op object, so untraced reps pay a method call and
    nothing else."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, **attrs: Any) -> "_OpenSpan | _NoSpan":
        if not self.enabled:
            return _NO_SPAN
        return _OpenSpan(self, name, attrs)


def self_times(spans: Iterable[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap each other (one thread, strictly
    nested), so the covered part is the plain sum of their durations.
    """
    spans = list(spans)
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def layer_self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Self time summed per layer."""
    spans = list(spans)
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        out[span.layer] = out.get(span.layer, 0.0) + own
    return out


def name_totals(spans: Iterable[Span]) -> dict[str, float]:
    """Total duration per span name (``kernel.tree`` -> seconds)."""
    out: dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + span.duration
    return out


def top_level_time(spans: Iterable[Span]) -> float:
    """Time covered by spans that have no parent."""
    return sum(span.duration for span in spans if span.parent is None)


def to_json(spans: Iterable[Span], workload: str, rep: int) -> list[dict[str, Any]]:
    """The written form: one dict per span, tagged with its request."""
    return [
        {
            "workload": workload,
            "rep": rep,
            "id": index,
            "parent": span.parent,
            "name": span.name,
            "start": span.start,
            "end": span.end,
            **({"attrs": span.attrs} if span.attrs else {}),
        }
        for index, span in enumerate(spans)
    ]
