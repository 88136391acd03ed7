"""Shared-memory membership buffers: one flat copy per sweep point.

A :class:`MemberBuffer` freezes one membership snapshot as three
contiguous 8-byte columns — identifiers (``Q``), capacities (``q``)
and upload bandwidths (``d``) — packed back to back in a single
``multiprocessing.shared_memory`` segment.  The parent creates the
segment once per distinct member request; every ``--jobs`` worker then
*attaches* it (an mmap of the same physical pages, no copy, no pickle)
and reads the columns through zero-copy ``memoryview`` casts, which
:meth:`RingSnapshot.from_columns <repro.overlay.base.RingSnapshot.from_columns>`
stores as they are.

Lifecycle: the creating process owns the segment and must
:meth:`destroy` it (close + unlink) — the parallel engine does so in a
``finally`` block, so segments never outlive a sweep even when a task
raises.  Workers keep their attachment for the life of the process;
the OS reclaims the mapping when the pool shuts down, and the segment
itself disappears with the parent's unlink.

When shared memory is unavailable (platform, permissions, exhausted
``/dev/shm``) the buffer falls back to carrying its columns *by
value*: the handle then holds the raw column bytes and travels through
the ordinary pickling path.  Results are identical either way; only
the copy count differs.

Python < 3.13 registers every ``SharedMemory`` — attached segments
included — with the ``resource_tracker``, which would unlink the
parent's segment when the first worker exits (and warn about leaks).
:func:`_attach_untracked` undoes that registration on attach; only the
owner unlinks.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Sequence

from repro import perf
from repro.idspace.ring import IdentifierSpace
from repro.overlay.base import RingSnapshot

#: Every column uses 8-byte elements: Q (idents), q (capacities), d (bw).
_WORD = 8


@dataclass(frozen=True)
class ShmHandle:
    """Picklable reference to a shared-memory-backed buffer."""

    shm_name: str
    count: int
    space_bits: int


@dataclass(frozen=True)
class InlineHandle:
    """Fallback handle carrying the columns by value (the pickling path)."""

    idents: bytes
    capacities: bytes
    bandwidths: bytes
    count: int
    space_bits: int


BufferHandle = ShmHandle | InlineHandle


def _attach_untracked(name: str):
    """Attach an existing segment without resource-tracker ownership."""
    from multiprocessing.shared_memory import SharedMemory

    try:
        return SharedMemory(name=name, track=False)  # Python >= 3.13
    except TypeError:
        shm = SharedMemory(name=name)
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker API drift
            pass
        return shm


class MemberBuffer:
    """Frozen flat membership columns, shared-memory backed when possible.

    Construct through :meth:`from_snapshot` (owner side) or
    :meth:`attach` (worker side); never directly.  :meth:`snapshot`
    serves the columns as a ring snapshot — one snapshot object per
    buffer, so every consumer in a worker shares it.
    """

    __slots__ = (
        "count",
        "space_bits",
        "idents",
        "capacities",
        "bandwidths",
        "_shm",
        "_owner",
        "_views",
        "_snapshot",
    )

    def __init__(
        self,
        count: int,
        space_bits: int,
        idents: Sequence[int],
        capacities: Sequence[int],
        bandwidths: Sequence[float],
        shm=None,
        owner: bool = False,
        views: tuple = (),
    ) -> None:
        self.count = count
        self.space_bits = space_bits
        self.idents = idents
        self.capacities = capacities
        self.bandwidths = bandwidths
        self._shm = shm
        self._owner = owner
        self._views = list(views)
        self._snapshot: RingSnapshot | None = None

    # -- construction ----------------------------------------------------

    @classmethod
    def from_snapshot(cls, snapshot: RingSnapshot) -> "MemberBuffer":
        """Pack a snapshot's columns into a fresh buffer (owner side)."""
        count = len(snapshot)
        space_bits = snapshot.space.bits
        idents = array("Q", snapshot.identifiers)
        capacities = array("q", snapshot.capacities)
        bandwidths = array("d", snapshot.bandwidths)
        try:
            return cls._create_shared(
                count, space_bits, idents, capacities, bandwidths
            )
        except (ImportError, OSError):
            pass
        perf.COUNTERS.shm_fallbacks += 1
        return cls(count, space_bits, idents, capacities, bandwidths)

    @classmethod
    def _create_shared(
        cls,
        count: int,
        space_bits: int,
        idents: array,
        capacities: array,
        bandwidths: array,
    ) -> "MemberBuffer":
        from multiprocessing.shared_memory import SharedMemory

        shm = SharedMemory(create=True, size=3 * _WORD * count)
        try:
            base = shm.buf
            column = _WORD * count
            base[0:column] = memoryview(idents).cast("B")
            base[column : 2 * column] = memoryview(capacities).cast("B")
            base[2 * column : 3 * column] = memoryview(bandwidths).cast("B")
            views = cls._column_views(shm, count)
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        perf.COUNTERS.shm_creates += 1
        return cls(count, space_bits, *views, shm=shm, owner=True, views=views)

    @classmethod
    def attach(cls, handle: BufferHandle) -> "MemberBuffer":
        """Materialize a buffer from a handle (worker side).

        Shared-memory handles attach zero-copy (counted in
        ``shm_attaches``); inline handles rebuild their arrays from the
        carried bytes.
        """
        if isinstance(handle, InlineHandle):
            idents = array("Q")
            idents.frombytes(handle.idents)
            capacities = array("q")
            capacities.frombytes(handle.capacities)
            bandwidths = array("d")
            bandwidths.frombytes(handle.bandwidths)
            return cls(handle.count, handle.space_bits, idents, capacities, bandwidths)
        shm = _attach_untracked(handle.shm_name)
        views = cls._column_views(shm, handle.count)
        perf.COUNTERS.shm_attaches += 1
        return cls(
            handle.count, handle.space_bits, *views, shm=shm, owner=False, views=views
        )

    @staticmethod
    def _column_views(shm, count: int) -> tuple:
        """Zero-copy typed views over the three packed columns."""
        base = shm.buf
        column = _WORD * count
        return (
            base[0:column].cast("Q"),
            base[column : 2 * column].cast("q"),
            base[2 * column : 3 * column].cast("d"),
        )

    # -- use -------------------------------------------------------------

    @property
    def shared(self) -> bool:
        """True when backed by a shared-memory segment."""
        return self._shm is not None

    def handle(self) -> BufferHandle:
        """The picklable reference workers attach (or rebuild) from."""
        if self._shm is not None:
            return ShmHandle(self._shm.name, self.count, self.space_bits)
        return InlineHandle(
            array("Q", self.idents).tobytes(),
            array("q", self.capacities).tobytes(),
            array("d", self.bandwidths).tobytes(),
            self.count,
            self.space_bits,
        )

    def snapshot(self) -> RingSnapshot:
        """The ring snapshot over this buffer's columns.

        Cached: one snapshot object per buffer, so groups built for
        different systems over the same members share it (preserving
        the snapshot-identity property of the keyed caches).
        """
        if self._snapshot is None:
            self._snapshot = RingSnapshot.from_columns(
                IdentifierSpace(self.space_bits),
                self.idents,
                self.capacities,
                self.bandwidths,
            )
        return self._snapshot

    # -- lifecycle -------------------------------------------------------

    def destroy(self) -> None:
        """Release the columns and, when owner, unlink the segment.

        Counted in ``shm_detaches`` (shared buffers only), so a
        parent-side sweep balances ``shm_creates == shm_detaches``.
        Safe to call twice; after the first call the buffer (and any
        snapshot served from it) must not be touched again.
        """
        if self._shm is None:
            return
        self._snapshot = None
        for view in self._views:
            view.release()
        self._views.clear()
        shm, self._shm = self._shm, None
        shm.close()
        if self._owner:
            shm.unlink()
        perf.COUNTERS.shm_detaches += 1
