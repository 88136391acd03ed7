"""repro.trace — structured tracing & causal observability.

The package has five parts:

* :mod:`repro.trace.tracer` — the process-global event buffer every
  instrumentation point checks (``if TRACER.net and kind in TRACER.net:
  TRACER.emit(...)``);
* :mod:`repro.trace.schema` — the event vocabulary, its validation and
  the read set the causal reconstructor needs;
* :mod:`repro.trace.registry` — perf counters and trace buffers folded
  behind one snapshot/delta API for the parallel experiment engine;
* :mod:`repro.trace.causal` — dissemination-tree reconstruction and
  lost-hop naming;
* :mod:`repro.trace.export` — JSONL and Chrome/Perfetto exporters,
  driven by the ``python -m repro.trace`` CLI.

Enable with ``--trace PATH`` on the experiment runners, or directly::

    from repro.trace import TRACER
    TRACER.enable()
    ...  # run anything
    from repro.trace.export import write_jsonl
    write_jsonl(TRACER.events(), "run.jsonl")
"""

from repro.trace.tracer import TRACER, TraceEvent, Tracer, resequence

__all__ = ["TRACER", "TraceEvent", "Tracer", "resequence"]
