"""What an import loads: the package exports resolve on first use.

``repro``, ``repro.multicast``, ``repro.metrics`` and ``repro.sim``
name their exports through a PEP 562 ``__getattr__``, so the
experiment plumbing does not pay for the service plane, the event
simulator or the tracer's readers at import time, the service plane
does not pay for the datagram network — and every public name still
imports as before.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
import repro.metrics
import repro.multicast
import repro.sim
from tests.golden.sim_order import SRC


def run_child(script: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def test_experiment_plumbing_loads_no_plane_service_or_simulator():
    script = (
        "import sys\n"
        "import repro.experiments.common\n"
        "heavy = ('repro.multicast.plane', 'repro.multicast.service', 'repro.sim')\n"
        "print(sorted(name for name in sys.modules if name in heavy))\n"
        "from repro import MulticastGroup\n"
        "from repro.multicast.session import MulticastGroup as defined\n"
        "print(MulticastGroup is defined)\n"
    )
    assert run_child(script).split("\n")[:2] == ["[]", "True"]


def test_service_plane_loads_no_network_latency_or_protocol():
    script = (
        "import sys\n"
        "import repro.multicast.plane\n"
        "heavy = ('repro.sim.network', 'repro.sim.latency', 'repro.protocol')\n"
        "print(sorted(name for name in sys.modules if name in heavy))\n"
    )
    assert run_child(script).split("\n")[0] == "[]"


@pytest.mark.parametrize(
    "package", [repro, repro.multicast, repro.metrics, repro.sim]
)
def test_every_export_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None
    with pytest.raises(AttributeError, match="no attribute 'nothing_here'"):
        _ = package.nothing_here


def test_exports_named_like_their_module_are_the_functions():
    from repro.multicast import chord_broadcast, koorde_flood

    assert callable(chord_broadcast) and callable(koorde_flood)
    assert repro.chord_broadcast is chord_broadcast
    assert repro.koorde_flood is koorde_flood
