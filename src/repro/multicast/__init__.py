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

from repro import lazy_exports
from repro.multicast.chord_broadcast import chord_broadcast
from repro.multicast.koorde_flood import koorde_flood

# Exports resolve on first use (PEP 562), so importing one routine
# does not load the service plane and the simulator behind it.  The
# two imported above are the exception: each shares its name with the
# module that defines it, and importing a submodule binds the module
# to that name on this package; only an import here rebinds it to the
# function.
_EXPORTS = {
    "MulticastService": "repro.multicast.service",
    "ServicePlane": "repro.multicast.plane",
    "PlaneReport": "repro.multicast.plane",
    "SendReceipt": "repro.multicast.plane",
    "SequenceAudit": "repro.multicast.plane",
    "SharedTree": "repro.multicast.tree_building",
    "build_shared_tree": "repro.multicast.tree_building",
    "FlatTree": "repro.multicast.kernel",
    "flood_tree": "repro.multicast.kernel",
    "region_split_tree": "repro.multicast.kernel",
    "cam_chord_multicast": "repro.multicast.cam_chord",
    "cam_koorde_multicast": "repro.multicast.cam_koorde",
    "MulticastGroup": "repro.multicast.session",
    "SystemKind": "repro.multicast.session",
}
__getattr__ = lazy_exports(globals(), _EXPORTS)

__all__ = [*_EXPORTS, "chord_broadcast", "koorde_flood"]
