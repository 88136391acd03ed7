"""Live CAM-Koorde peer: de Bruijn neighbor groups + flooding multicast.

The neighbor table is keyed by the Section 4.1 group identifiers
(``x/2``, ``2**(b-1) + x/2``, second group, third group), refreshed by
the shared fix-neighbors loop; predecessor and successor complete the
basic group.  Multicast is :class:`~repro.protocol.base_peer.FloodPeer`'s
flood over these links with duplicate suppression at the receiver —
semantically identical to the paper's "have you received it?"
handshake, with every redundant copy counted as control overhead in
the delivery monitor.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.overlay.cam_koorde import cam_koorde_neighbor_groups
from repro.protocol.base_peer import FloodPeer


class CamKoordePeer(FloodPeer):
    """A live CAM-Koorde node (requires ``capacity >= 4``)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.capacity < 4:
            raise ValueError(
                f"CAM-Koorde requires capacity >= 4, got {self.capacity}"
            )

    def slot_specs(self) -> Iterable[tuple[Any, int]]:
        groups = cam_koorde_neighbor_groups(self.ident, self.capacity, self.space.bits)
        return [
            (("debruijn", index), identifier)
            for index, identifier in enumerate(groups.all_identifiers())
        ]
