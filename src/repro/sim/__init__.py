"""Discrete-event simulation substrate.

The paper's resilience story — "dynamic membership", "the robustness of
the system comes from the maintenance protocol of Chord" — is about
*live* protocols exchanging messages under churn.  ``simpy`` is not
available in this offline environment, so this package provides the
equivalent machinery from scratch: an event-queue simulator with
generator-based processes (:mod:`repro.sim.engine`), a message-passing
network with configurable latency and loss (:mod:`repro.sim.network`),
and latency models including a geographic one for the Section 5.2
proximity experiments (:mod:`repro.sim.latency`).
"""

from repro import lazy_exports

# Exports resolve on first use (PEP 562), so a module that needs only
# the engine does not load the network and the latency models.
_EXPORTS = {
    "Future": "repro.sim.engine",
    "ProcessHandle": "repro.sim.engine",
    "Simulator": "repro.sim.engine",
    "ConstantLatency": "repro.sim.latency",
    "GeographicLatency": "repro.sim.latency",
    "LatencyModel": "repro.sim.latency",
    "UniformLatency": "repro.sim.latency",
    "Endpoint": "repro.sim.network",
    "Message": "repro.sim.network",
    "Network": "repro.sim.network",
}
__getattr__ = lazy_exports(globals(), _EXPORTS)

__all__ = [*_EXPORTS]
