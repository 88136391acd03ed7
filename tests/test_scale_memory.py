"""Memory per member of the structural pipeline stays flat as n grows.

For each registered system, the pipeline the figures run — draw the
bandwidths, build the snapshot, build the overlay, extract the tree
from member 0, read its sustainable throughput — is traced with
``tracemalloc`` at n = 10^3 and n = 10^4.  The *marginal* traced peak
per member between the two sizes is what a per-member record costs:
constant interpreter and import overheads cancel, and a column of
machine words shows up as its width.  ``tracemalloc`` sees every
Python allocation (a dict, a list of boxed floats), which an
``array.buffer_info()`` sum over the known columns would not.

Measured on CPython 3.11 (cam-chord 136.5, cam-koorde 162.4, chord
158.4, koorde 144.4 bytes per member at seed 0, within 1 byte of that
at seeds 1 and 2, and the same under any ``PYTHONHASHSEED``), the
ceilings sit about halfway between those values and what the same
pipeline costs with 64-bit tree columns (148.8, 174.0, 172.2, 157.8):
a tree is four ``array("i")`` columns, and widening them to 8 bytes
fails all four.  A per-member ``{identifier: row}`` dict adds about 85
bytes per member and fails all four too.  n = 10^5 is not traced here:
under ``tracemalloc`` it takes about half a minute.
"""

from __future__ import annotations

import gc
import tracemalloc
from random import Random

import pytest

from repro.capacity.model import CapacityModel
from repro.idspace.ring import IdentifierSpace
from repro.metrics.throughput import sustainable_throughput
from repro.overlay.base import build_snapshot
from repro.systems import get_system

#: marginal traced bytes per member, n = 10^3 -> 10^4
CEILINGS = {"cam-chord": 142, "cam-koorde": 168, "chord": 165, "koorde": 151}

SMALL, LARGE = 1_000, 10_000


def traced_peak(name: str, count: int, seed: int = 0) -> tuple[int, int]:
    """(traced peak bytes, receivers) of one pipeline run at ``count``:
    uniform [400, 1000] kbps, p = 100, the density-preserving width
    ``max(12, (4n - 1).bit_length())`` bits, uniform fanout 16."""
    system = get_system(name)
    gc.collect()
    tracemalloc.start()
    try:
        rng = Random(f"scale:{seed}:{count}")
        bandwidths = [rng.uniform(400.0, 1000.0) for _ in range(count)]
        model = CapacityModel(100.0, minimum=system.min_capacity)
        snapshot = build_snapshot(
            IdentifierSpace(max(12, (4 * count - 1).bit_length())),
            model.capacities(bandwidths),
            bandwidths=bandwidths,
            rng=Random(seed),
        )
        overlay = system.build_overlay(snapshot, uniform_fanout=16)
        tree = system.run_multicast(overlay, snapshot.node_for_index(0))
        sustainable_throughput(tree, snapshot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, len(tree.order)


@pytest.mark.parametrize("name", sorted(CEILINGS))
def test_marginal_bytes_per_member_stay_under_ceiling(name):
    traced_peak(name, 300)  # warm lazy imports and first-use caches
    small, small_receivers = traced_peak(name, SMALL)
    large, large_receivers = traced_peak(name, LARGE)
    assert (small_receivers, large_receivers) == (SMALL, LARGE)
    per_member = (large - small) / (LARGE - SMALL)
    assert per_member <= CEILINGS[name], (
        f"{name}: {per_member:.1f} B per member, ceiling {CEILINGS[name]}"
    )
