"""Engine-wide observability: tracers, timing spans, and trace analysis.

* :mod:`repro.obs.tracer` — the :class:`Tracer` hook threaded through every
  engine layer: :class:`NullTracer` (zero-overhead default),
  :class:`RecordingTracer` (in-memory structured events),
  :class:`JsonlTracer` (streaming JSONL export), plus span-style per-layer
  wall-time accounting.
* :mod:`repro.obs.chrome` — export a trace as a ``chrome://tracing`` /
  Perfetto timeline (rounds, spans, scheduler batches).
* :mod:`repro.obs.diff` — the trace-diff divergence debugger: the first
  round where two executions' delivered-message multisets differ.

Enable tracing by passing ``tracer=`` to
:func:`repro.engine.run_algorithm` or to a
:class:`repro.experiments.Session` (its constructor or
:meth:`~repro.experiments.Session.execute`); see the README's
Observability section.
"""

from repro.obs.chrome import (
    chrome_trace_events,
    read_jsonl_events,
    write_chrome_trace,
)
from repro.obs.diff import DivergenceReport, diff_delivered, run_trace_diff
from repro.obs.tracer import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    Tracer,
    resolve_tracer,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "RecordingTracer",
    "JsonlTracer",
    "resolve_tracer",
    "chrome_trace_events",
    "write_chrome_trace",
    "read_jsonl_events",
    "DivergenceReport",
    "diff_delivered",
    "run_trace_diff",
]
