"""Golden kernel trees: the arrays the ring index may not change.

``kernel_trees.json`` (next to this module) holds SHA-256 digests of
the four :class:`~repro.multicast.kernel.FlatTree` arrays —
``parent_index``, ``depth_array``, ``child_count`` and ``order`` — for
the four registry systems, two sources each, on

* the fig6 point ``tree_paper`` measures (CAMs at p = 40 kbps, the
  baselines at k = 16) at ``SCALES["quick"]``, where the successor
  directory is a direct-address table, and
* a 32-member ring in a 2**14 space — the service plane's group size,
  where a directory bucket spans 128 identifiers and probes advance,

plus one digest of ``sample_identifiers(100_000, 1 << 19, Random(0))``,
the identifier draw of every paper-scale ring.

**Where the digests came from.**  They were recorded at commit
``92515d2`` — the last one whose tree builders resolved every slot by
``bisect_left`` behind per-node memo tables and whose identifier draw
kept its list sorted by ``insort`` — by running this module there.
So they pin that commit's actual output, not whatever the surviving
path produces.  ``tests/test_kernel.py`` compares every run against
them.

**Regenerating.**  An *intentional* change of a tree (a different
slot order or tie-break) is recorded in one step, committed together
with the change that explains it::

    PYTHONPATH=src python -m tests.golden.kernel_trees
"""

from __future__ import annotations

import json
from hashlib import sha256
from pathlib import Path
from random import Random
from typing import Any, Callable, Iterator

from repro.experiments.common import SCALES, bandwidth_group
from repro.idspace.ring import IdentifierSpace
from repro.multicast.session import MulticastGroup
from repro.overlay.base import build_snapshot, sample_identifiers
from repro.systems import all_descriptors

GOLDEN_PATH = Path(__file__).with_suffix(".json")

#: the ``tree_paper`` / fig6 knobs: per-link rate for the CAM systems,
#: uniform fanout for the baselines
CAM_PER_LINK_KBPS = 40.0
BASELINE_FANOUT = 16


def _digest(value: Any) -> str:
    return sha256(json.dumps(value).encode()).hexdigest()


def tree_digests(group: MulticastGroup, sources: int = 2) -> list[dict[str, str]]:
    """One digest per array per source; sources drawn from
    ``Random(0)`` the way ``averaged_over_sources`` draws them."""
    rng = Random(0)
    out = []
    for _ in range(sources):
        tree = group.multicast_from(group.random_member(rng))
        out.append(
            {
                "source": tree.source_ident,
                "parent_index": _digest(list(tree.parent_index)),
                "depth_array": _digest(list(tree.depth_array)),
                "child_count": _digest(list(tree.child_count)),
                "order": _digest(list(tree.order)),
            }
        )
    return out


def quick_group(system) -> MulticastGroup:
    per_link, uniform_fanout = system.fanout.group_build_args(
        CAM_PER_LINK_KBPS if system.capacity_aware else float(BASELINE_FANOUT), 100.0
    )
    return bandwidth_group(
        system,
        SCALES["quick"],
        per_link_kbps=per_link,
        uniform_fanout=uniform_fanout,
        seed=0,
    )


def ring32_group(system) -> MulticastGroup:
    capacities = [4 + (index * 7) % 9 for index in range(32)]
    snapshot = build_snapshot(IdentifierSpace(14), capacities, rng=Random(0))
    return MulticastGroup.from_snapshot(system, snapshot, uniform_fanout=4)


def scenarios() -> Iterator[tuple[str, Callable[[], Any]]]:
    """(golden key, thunk computing its digests), in file order."""
    for name, build in (("quick", quick_group), ("ring32", ring32_group)):
        for system in all_descriptors():
            yield (
                f"{name}/{system.name}",
                lambda build=build, system=system: tree_digests(build(system)),
            )
    yield (
        "sample_identifiers/100000-of-2**19/seed0",
        lambda: _digest(sample_identifiers(100_000, 1 << 19, Random(0))),
    )


def load() -> dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({key: thunk() for key, thunk in scenarios()}, indent=2) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
