"""Lightweight performance observability: wall timers + hot-path counters.

The experiment harness spends nearly all of its time in two loops —
identifier resolution (one probe per neighbor identifier) and implicit
tree extraction (one slot scan per forwarding member).  This module keeps a
process-global :class:`PerfCounters` that those hot paths increment,
so the experiment runner can print, per figure, how much resolution and
multicast work actually happened and how often the snapshot/group
caches saved a rebuild.

Counters are plain integer attributes on one module-level instance:
cheap enough to leave permanently enabled (the kernel adds to them
once per tree, not once per probe).  Parallel workers each
own a fork of the counter state; the engine snapshots around every
task and ships the *delta* back with the task result, so per-figure
totals add up correctly across processes; each worker's
:func:`peak_rss` rides back beside it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace


@dataclass
class PerfCounters:
    """Cumulative hot-path event counts for one process.

    ``resolves`` counts :meth:`RingSnapshot.resolve_index` calls (every
    scalar ``resolve`` funnels through it); ``multicast_trees`` full
    implicit tree extractions; ``deliveries`` tree edges recorded.  The
    cache pairs track the keyed snapshot/group cache in
    ``repro.experiments.common``.

    The ``kernel_*`` counters instrument the flat-array multicast
    kernel (:mod:`repro.multicast.kernel`): ``kernel_trees`` trees
    built by it, ``kernel_resolves`` probes of the snapshot's successor
    directory — at most n - 1 per region-split tree plus, once per flood
    overlay, one per Koorde member or CAM-Koorde neighbor identifier,
    ``kernel_resolves_saved`` always 0 (it counted hits in the per-node
    slot memo tables, which are gone; the field stays because the
    benchmark reports read it and the footer prints it),
    ``kernel_state_evictions`` memoized neighbor states dropped by the
    kernel's bounded LRU (long campaigns over many overlays re-fill
    instead of leaking), and ``array_passes`` fused single-pass metric
    sweeps over the kernel's arrays.

    The ``schedule_cache_*`` / ``wavefront_commits`` counters
    instrument the service plane's epoch-cached dissemination
    schedules (:mod:`repro.multicast.plane`): ``schedule_cache_hits``
    sends served by a cached (group, membership-epoch, source)
    schedule template, ``schedule_cache_misses`` templates built,
    ``schedule_cache_invalidations`` templates discarded because the
    group's membership epoch moved on (join/leave/drop rebuilt the
    overlay), and ``wavefront_commits`` batched wavefront events
    executed — each one commits a contiguous run of deliveries that
    would otherwise each be an engine event of its own.
    """

    resolves: int = 0
    multicast_trees: int = 0
    deliveries: int = 0
    kernel_trees: int = 0
    kernel_resolves: int = 0
    kernel_resolves_saved: int = 0
    kernel_state_evictions: int = 0
    array_passes: int = 0
    schedule_cache_hits: int = 0
    schedule_cache_misses: int = 0
    schedule_cache_invalidations: int = 0
    wavefront_commits: int = 0
    group_cache_hits: int = 0
    group_cache_misses: int = 0
    draw_cache_hits: int = 0
    draw_cache_misses: int = 0

    def __add__(self, other: "PerfCounters") -> "PerfCounters":
        return PerfCounters(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def __sub__(self, other: "PerfCounters") -> "PerfCounters":
        return PerfCounters(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    def summary(self) -> str:
        """One compact report line (used in the runner footer)."""
        return (
            f"resolves={self.resolves} trees={self.multicast_trees} "
            f"deliveries={self.deliveries} "
            f"kernel[trees {self.kernel_trees} fills {self.kernel_resolves} "
            f"saved {self.kernel_resolves_saved} passes {self.array_passes} "
            f"evict {self.kernel_state_evictions}] "
            f"cache[group {self.group_cache_hits}h/{self.group_cache_misses}m "
            f"draw {self.draw_cache_hits}h/{self.draw_cache_misses}m "
            f"sched {self.schedule_cache_hits}h/{self.schedule_cache_misses}m/"
            f"{self.schedule_cache_invalidations}i] "
            f"wavefronts={self.wavefront_commits}"
        )


#: The process-global counter block the hot paths increment.
COUNTERS = PerfCounters()


def snapshot() -> PerfCounters:
    """An immutable copy of the current counter values."""
    return replace(COUNTERS)


def since(start: PerfCounters) -> PerfCounters:
    """Counter deltas accumulated after ``start`` was snapshotted."""
    return snapshot() - start


def reset() -> None:
    """Zero all counters (tests and benchmark harness)."""
    for f in fields(COUNTERS):
        setattr(COUNTERS, f.name, 0)


class scoped:
    """Context manager measuring the counter delta of one block.

    The counters are process-global and monotone; anything that wants
    per-figure (or per-benchmark-repetition) attribution must work in
    deltas.  ``with perf.scoped() as scope: ...; scope.delta`` is that
    pattern, named::

        with perf.scoped() as scope:
            run_figure()
        print(scope.delta.summary())

    ``delta`` is also live *inside* the block (counts so far).
    """

    def __init__(self) -> None:
        self._start = snapshot()

    @property
    def delta(self) -> PerfCounters:
        return since(self._start)

    def __enter__(self) -> "scoped":
        self._start = snapshot()
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


def peak_rss() -> int | None:
    """This process's peak resident set size in **bytes**, or None.

    On Linux this prefers ``VmHWM`` from ``/proc/self/status``: the
    high-water mark of the *current* address space, which resets on
    ``exec``.  ``ru_maxrss`` does not — a child forked from a large
    parent inherits the parent's mark through the signal struct even
    across ``exec``, so subprocess-isolated measurements (the extL
    scale CLI) would report the parent's footprint instead of their
    own.  Either way the value is a high-water mark that only grows
    within one process, so per-phase attribution needs a fresh process.

    Fallback is ``resource.getrusage(RUSAGE_SELF).ru_maxrss``, whose
    unit POSIX leaves unspecified — Linux reports kibibytes, macOS
    reports bytes; both are normalized to bytes here.  On platforms
    without the ``resource`` module (Windows) the helper returns
    ``None`` and callers must skip the measurement.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - Windows
        return None
    import sys

    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return maxrss
    return maxrss * 1024


def peak_rss_mb() -> float | None:
    """:func:`peak_rss` in mebibytes (rounded), or None when unavailable."""
    rss = peak_rss()
    if rss is None:  # pragma: no cover - Windows
        return None
    return round(rss / (1024 * 1024), 1)


class StopWatch:
    """Context-manager wall-clock timer (monotonic)."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._started = 0.0

    def __enter__(self) -> "StopWatch":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = time.perf_counter() - self._started
