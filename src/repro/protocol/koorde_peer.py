"""Live plain-Koorde peer: the capacity-oblivious de Bruijn baseline.

Koorde's degree-``k`` construction points at the ``k`` consecutive
members starting at the node responsible for ``k * x``.  Consecutive
*members* cannot be maintained as independent identifier lookups (the
raw identifiers ``k*x + j`` usually all resolve to one node), so this
peer overrides the neighbor-refresh step: one lookup finds the anchor
member, and the anchor's successor list — which the Chord maintenance
cycle already keeps fresh — supplies the rest of the window in a
single extra round trip.

Multicast is :class:`~repro.protocol.base_peer.FloodPeer`'s flood
with duplicate suppression (Section 4.3), the same code CAM-Koorde
runs; the fanout is the uniform ``degree`` regardless of the node's
bandwidth, which is precisely what the paper's evaluation holds
against Koorde.

(The live plain-Chord baseline needs no class of its own: a
``CamChordPeer`` fleet with every capacity pinned to ``k`` *is* live
base-``k`` Chord — see ``tests/test_equivalences.py``.)
"""

from __future__ import annotations

from typing import Any, Generator, Iterable

from repro.protocol.base_peer import FloodPeer, LookupFailed
from repro.sim.engine import FutureError


class KoordePeer(FloodPeer):
    """A live degree-``k`` Koorde node.

    ``capacity`` is reinterpreted as the de Bruijn degree ``k`` (the
    uniform link budget every node gets).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.capacity < 1:
            raise ValueError(f"Koorde degree must be >= 1, got {self.capacity}")

    @property
    def degree(self) -> int:
        """The de Bruijn degree (uniform across the overlay)."""
        return self.capacity

    def slot_specs(self) -> Iterable[tuple[Any, int]]:
        # One *anchor* slot at k*x; the rest of the window is fetched
        # from the anchor's successor list in _fix_one_neighbor.
        anchor = (self.degree * self.ident) % self.space.size
        return [(("debruijn", 0), anchor)]

    def _fix_one_neighbor(self) -> Generator[Any, Any, None]:
        """Refresh the whole de Bruijn window in one lookup + one RPC."""
        anchor_ident = (self.degree * self.ident) % self.space.size
        try:
            anchor = yield from self._lookup_process(anchor_ident)
        except LookupFailed:
            return
        if anchor == self.ident:
            # we are responsible for our own de Bruijn image; the window
            # starts at our successor (handled by the ring links)
            self.neighbor_table.pop(("debruijn", 0), None)
            window_source = None
        else:
            self.neighbor_table[("debruijn", 0)] = anchor
            window_source = anchor
        if window_source is None or self.degree == 1:
            for index in range(1, self.degree):
                self.neighbor_table.pop(("debruijn", index), None)
            return
        try:
            info = yield self.rpc(window_source, "get_info")
        except FutureError:
            return
        followers = [
            ident
            for ident in info.get("successors", [])
            if ident != self.ident and ident != window_source
        ]
        for index in range(1, self.degree):
            key = ("debruijn", index)
            if index - 1 < len(followers):
                self.neighbor_table[key] = followers[index - 1]
            else:
                self.neighbor_table.pop(key, None)
