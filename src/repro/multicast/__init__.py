"""Multicast dissemination routines over the overlays.

Four routines, matching the four systems of the paper's evaluation:

* :func:`cam_chord_multicast` — Section 3.4: recursive region
  splitting along the capacity-aware neighbor table (implicit balanced
  degree-varying tree, at most ``c_x`` children per node);
* :func:`cam_koorde_multicast` — Section 4.3: flooding with duplicate
  suppression over CAM-Koorde's evenly-spread neighbors;
* :func:`chord_broadcast` — the El-Ansary et al. broadcast on plain
  Chord (capacity-oblivious baseline);
* :func:`koorde_flood` — flooding over plain Koorde's clustered de
  Bruijn links (capacity-oblivious baseline).

Every routine executes in the flat-array kernel
(:mod:`repro.multicast.kernel`) and returns a :class:`FlatTree`, the
one tree type: the source's tree over a frozen membership snapshot,
with the metrics (:mod:`repro.metrics`) reading its arrays.  The live
protocol peers build no tree object; their dissemination is read back
from the trace.
"""

from repro.multicast.kernel import FlatTree, flood_tree, region_split_tree
from repro.multicast.cam_chord import cam_chord_multicast
from repro.multicast.cam_koorde import cam_koorde_multicast
from repro.multicast.chord_broadcast import chord_broadcast
from repro.multicast.koorde_flood import koorde_flood
from repro.multicast.session import MulticastGroup, SystemKind
from repro.multicast.service import MulticastService
from repro.multicast.plane import (
    PlaneReport,
    SendReceipt,
    SequenceAudit,
    SequenceLedger,
    ServicePlane,
)
from repro.multicast.tree_building import SharedTree, build_shared_tree

__all__ = [
    "MulticastService",
    "ServicePlane",
    "PlaneReport",
    "SendReceipt",
    "SequenceAudit",
    "SequenceLedger",
    "SharedTree",
    "build_shared_tree",
    "FlatTree",
    "flood_tree",
    "region_split_tree",
    "cam_chord_multicast",
    "cam_koorde_multicast",
    "chord_broadcast",
    "koorde_flood",
    "MulticastGroup",
    "SystemKind",
]
