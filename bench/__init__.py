"""The repo benchmark: five workloads, end-to-end and per-layer metrics.

Self-contained on purpose: nothing under ``src/`` knows this package
exists.  The benchmark drives each layer through its public functions
and times those calls from outside.  See ``bench/README.md``.
"""
