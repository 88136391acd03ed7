"""Workload generation for experiments and examples.

:class:`GroupSpec` draws one group; :class:`ServiceWorkloadSpec`
compiles to a time-ordered service-plane event sequence.
"""

from repro.workloads.groups import (
    GroupSpec,
    ServiceEvent,
    ServiceWorkload,
    ServiceWorkloadSpec,
    generate_group,
    generate_service_workload,
)

__all__ = [
    "GroupSpec",
    "ServiceEvent",
    "ServiceWorkload",
    "ServiceWorkloadSpec",
    "generate_group",
    "generate_service_workload",
]
