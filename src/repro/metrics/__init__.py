"""Measurement of the paper's performance metrics.

"Throughput and latency are the two major performance metrics for a
multicast application" (Section 6).  Latency is measured structurally
as multicast path length (overlay hops from the source); throughput via
the bottleneck-link model of Section 6.1; Section 5.1's forwarding-load
argument gets its own module.
"""

from repro import lazy_exports

# Exports resolve on first use (PEP 562).
_EXPORTS = {
    "TreeStats": "repro.metrics.tree_stats",
    "summarize_tree": "repro.metrics.tree_stats",
    "allocated_link_bandwidths": "repro.metrics.throughput",
    "average_children_per_internal_node": "repro.metrics.throughput",
    "sustainable_throughput": "repro.metrics.throughput",
    "ForwardingLoad": "repro.metrics.load",
    "flooding_load": "repro.metrics.load",
    "single_tree_load": "repro.metrics.load",
}
__getattr__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
