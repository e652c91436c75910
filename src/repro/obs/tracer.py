"""Engine tracers: structured per-round events, spans, and export sinks.

A :class:`Tracer` is the one observability hook threaded through every
engine layer: the round driver (:mod:`repro.engine.rounds`) emits round
begin/end events (with wall time and the round's delivered/word/dropped
totals, identical on every backend apart from the wall-clock fields), the
:class:`~repro.engine.delivery.WordScheduler` emits scheduling events
(which path ran — clean arithmetic, per batch, or the faulty path's
per-edge FIFOs, per round with the transmit-mask queries and cells it
read), and every layer contributes *spans* — named wall-time buckets
(``compute``, ``schedule``, ``deliver`` …) that roll up into
the per-layer time budget :meth:`Tracer.span_totals` and onto
:class:`~repro.experiments.session.RunResult.timings`.

Three implementations:

* :class:`NullTracer` — the zero-overhead default.  Every engine hot loop
  guards its instrumentation behind a single ``tracer.enabled`` attribute
  check per round, so an untraced run pays one boolean test and nothing
  else (pinned by ``benchmarks/bench_e16_trace_overhead.py``).
* :class:`RecordingTracer` — keeps every event as a plain dict in memory,
  including (by default) the per-round delivered-message multisets that
  :mod:`repro.obs.diff` compares to find the first round where two
  backends diverge.
* :class:`JsonlTracer` — streams every event as one JSON line to a file,
  for traces too large to hold in memory;
  :func:`repro.obs.chrome.write_chrome_trace` converts either form into a
  ``chrome://tracing`` / Perfetto timeline.

Tracing is observability, not semantics: no tracer may perturb an
execution, and the regression suite asserts that traced and untraced runs
produce bit-identical result digests on every backend.  Event *content* is
allowed to differ between backends where their internals differ (e.g. the
reference simulator reports ``scheduled`` events, the batch scheduler
``scheduler`` events) — only the delivered-message record is part of the
cross-backend contract, which is what makes trace diffing possible.
"""

from __future__ import annotations

import json
import time
from typing import IO, Any, Hashable, Sequence

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "RecordingTracer",
    "JsonlTracer",
    "resolve_tracer",
]


class _Span:
    """Context manager timing one named wall-clock bucket."""

    __slots__ = ("_tracer", "_name", "_start")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer.span_add(
            self._name, time.perf_counter() - self._start
        )


class _NullSpan:
    """Shared no-op span handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Base tracer: typed event constructors over a single ``_emit`` sink.

    Subclasses implement :meth:`_emit` (and usually nothing else).  Every
    event is a plain dict with a ``kind`` key; timestamps (``ts``) and
    durations are seconds relative to the tracer's construction, which is
    what the Chrome exporter scales into microseconds.

    Attributes:
        enabled: the one attribute the engine hot loops test per round;
            ``False`` only on :class:`NullTracer`.
        record_messages: whether :meth:`messages_delivered` /
            :meth:`arrays_delivered` record per-message content (needed for
            trace diffing; off by default on the streaming tracer because a
            large run's message log dwarfs its event log).
    """

    enabled: bool = True
    record_messages: bool = False

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._span_totals: dict[str, float] = {}

    # -- sink -----------------------------------------------------------------

    def _emit(self, event: dict) -> None:
        raise NotImplementedError

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    # -- round lifecycle ------------------------------------------------------

    def round_begin(self, round_index: int, *, active: int, pending: int) -> None:
        """A synchronous round starts: ``active`` vertices neither halted
        nor crashed once the round's crashes apply, ``pending`` messages in
        flight."""
        self._emit(
            {
                "kind": "round_begin",
                "round": round_index,
                "active": active,
                "pending": pending,
                "ts": self._now(),
            }
        )

    def round_end(
        self,
        round_index: int,
        *,
        delivered: int,
        words: int,
        dropped: int,
        seconds: float,
    ) -> None:
        """A round finished: its delivery totals and wall-clock time."""
        self._emit(
            {
                "kind": "round_end",
                "round": round_index,
                "delivered": delivered,
                "words": words,
                "dropped": dropped,
                "seconds": seconds,
                "ts": self._now(),
            }
        )

    # -- delivery-layer events ------------------------------------------------

    def messages_scheduled(
        self, round_index: int, *, count: int, deferred: int
    ) -> None:
        """``count`` transfers enqueued this round; ``deferred`` of them
        complete in a strictly later round (stretched by payload size,
        queueing, or the scenario's transmit decisions)."""
        self._emit(
            {
                "kind": "scheduled",
                "round": round_index,
                "count": count,
                "deferred": deferred,
            }
        )

    def edges_blocked(self, round_index: int, count: int) -> None:
        """The reference simulator's scenario-decision record: ``count``
        busy directed edges whose head word the scenario held back."""
        self._emit({"kind": "blocked", "round": round_index, "count": count})

    # -- vertex-fault events ----------------------------------------------------

    def vertex_crashed(self, round_index: int, vertex: Hashable) -> None:
        """A vertex-fault scenario crashed ``vertex`` at the start of
        ``round_index``: it stops computing and sending, and its in-flight
        words are dropped at delivery."""
        self._emit(
            {
                "kind": "vertex_crashed",
                "round": round_index,
                "vertex": vertex,
                "ts": self._now(),
            }
        )

    def payload_corrupted(self, round_index: int, count: int) -> None:
        """``count`` payloads sent this round were corrupted by Byzantine
        senders (sender-side, before fragmentation)."""
        self._emit(
            {"kind": "payload_corrupted", "round": round_index, "count": count}
        )

    def replica_reseated(
        self, round_index: int, vertex: Hashable, seated_by: Hashable
    ) -> None:
        """The robust compiler's self-healing path re-seated replica
        ``vertex``: its group detected it persistently silent or
        checksum-failing, and surviving replica ``seated_by`` shipped it a
        strategy-encoded state snapshot over the existing bundles."""
        self._emit(
            {
                "kind": "replica_reseated",
                "round": round_index,
                "vertex": vertex,
                "seated_by": seated_by,
                "ts": self._now(),
            }
        )

    def messages_delivered(self, round_index: int, messages: Sequence) -> None:
        """The round's delivered messages (pre halted-receiver drops).

        Recorded as ``(sender, receiver, tag, repr(payload))`` tuples —
        the cross-backend comparable record :mod:`repro.obs.diff` consumes.
        Only recorded when :attr:`record_messages` is set.
        """
        if not self.record_messages:
            return
        self._emit(
            {
                "kind": "delivered",
                "round": round_index,
                "messages": [
                    (m.sender, m.receiver, m.tag, repr(m.payload))
                    for m in messages
                ],
            }
        )

    def arrays_delivered(
        self,
        round_index: int,
        senders,
        receivers,
        values,
        nodes: Sequence[Hashable],
    ) -> None:
        """Array form of :meth:`messages_delivered` (the vector fast path).

        Vector deliveries carry a single payload word and no tag; they are
        recorded as ``(sender, receiver, "word", repr(value))`` so a vector
        trace diffs against itself (diff per-vertex executions against
        per-vertex executions — the two encodings are not comparable).
        """
        if not self.record_messages:
            return
        self._emit(
            {
                "kind": "delivered",
                "round": round_index,
                "messages": [
                    (nodes[s], nodes[r], "word", repr(v))
                    for s, r, v in zip(
                        senders.tolist(), receivers.tolist(), values.tolist()
                    )
                ],
            }
        )

    def scheduler_batch(
        self,
        round_index: int,
        *,
        path: str,
        transfers: int,
        edges: int,
        deferred: int,
        windows: int = 0,
        window_cells: int = 0,
    ) -> None:
        """One :class:`~repro.engine.delivery.WordScheduler` step.

        ``path`` names which scheduling path ran.  ``"clean"`` (pure
        arithmetic) reports each bulk enqueue: ``transfers`` enqueued on
        ``edges`` distinct directed edges, ``deferred`` of them completing
        in a later round.  ``"kernel"`` (per-edge FIFOs under a faulty
        scenario) reports each round from its delivery step: the round's
        enqueued ``transfers`` and their ``edges``, the ``deferred`` ones
        among them not delivered in that round, and the transmit-mask
        queries that refilled used-up 64-round buffers (``windows``) with
        the (edge, round) cells they read (``window_cells``).
        """
        self._emit(
            {
                "kind": "scheduler",
                "round": round_index,
                "path": path,
                "transfers": transfers,
                "edges": edges,
                "deferred": deferred,
                "windows": windows,
                "window_cells": window_cells,
            }
        )

    # -- experiment-cell / service events --------------------------------------

    def event(self, kind: str, **fields: Any) -> None:
        """Emit a free-form event of ``kind`` with a ``ts`` stamp.

        The extension point for layers above the engine (the experiment
        service logs request lifecycle events through it) — same sink,
        same JSONL/Chrome export path as the typed constructors.
        """
        event = {"kind": kind, **fields, "ts": self._now()}
        self._emit(event)

    def cell_begin(
        self,
        digest: str | None,
        *,
        spec: str,
        backend: str | None = None,
        seed: int | None = None,
        client: str | None = None,
    ) -> None:
        """An experiment cell starts executing.

        ``digest`` is the cell's content address
        (:meth:`~repro.experiments.ExperimentSpec.cell_digest`; ``None``
        for non-portable cells).  ``client`` identifies the submitting
        client when the cell runs inside the experiment service.
        """
        event: dict[str, Any] = {
            "kind": "cell_begin",
            "digest": digest,
            "spec": spec,
            "backend": backend,
            "seed": seed,
            "ts": self._now(),
        }
        if client is not None:
            event["client"] = client
        self._emit(event)

    def cell_end(
        self,
        digest: str | None,
        *,
        spec: str,
        seed: int | None = None,
        seconds: float = 0.0,
        cached: bool = False,
        client: str | None = None,
    ) -> None:
        """An experiment cell finished (``cached`` = served from the result
        cache without executing)."""
        event: dict[str, Any] = {
            "kind": "cell_end",
            "digest": digest,
            "spec": spec,
            "seed": seed,
            "seconds": seconds,
            "cached": cached,
            "ts": self._now(),
        }
        if client is not None:
            event["client"] = client
        self._emit(event)

    # -- spans ----------------------------------------------------------------

    def span(self, name: str) -> Any:
        """Context manager timing ``name`` (coarse, per-run buckets)."""
        return _Span(self, name)

    def span_add(
        self, name: str, seconds: float, round_index: int | None = None
    ) -> None:
        """Charge ``seconds`` of wall time to span ``name``.

        The engine hot loops call this directly with pre-measured
        ``perf_counter`` deltas instead of entering a context manager per
        round.  The emitted event carries ``ts`` of the span's *start* so
        the Chrome exporter renders it as a slice.
        """
        totals = self._span_totals
        totals[name] = totals.get(name, 0.0) + seconds
        event = {
            "kind": "span",
            "name": name,
            "dur": seconds,
            "ts": self._now() - seconds,
        }
        if round_index is not None:
            event["round"] = round_index
        self._emit(event)

    def span_totals(self) -> dict[str, float]:
        """Accumulated seconds per span name — the per-layer time budget."""
        return dict(self._span_totals)

    def close(self) -> None:
        """Flush and release any export resources (idempotent)."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullTracer(Tracer):
    """The zero-overhead default: every hook is a no-op.

    Engine hot loops test :attr:`enabled` once per round and skip all
    instrumentation, so the only cost of the tracing layer on an untraced
    run is that single attribute check (measured <= 3% end to end by
    ``benchmarks/bench_e16_trace_overhead.py``).
    """

    enabled = False
    record_messages = False

    def __init__(self) -> None:  # no epoch, no totals: nothing is recorded
        pass

    def _emit(self, event: dict) -> None:
        pass

    def round_begin(self, *args, **kwargs) -> None:
        pass

    def round_end(self, *args, **kwargs) -> None:
        pass

    def messages_scheduled(self, *args, **kwargs) -> None:
        pass

    def edges_blocked(self, *args, **kwargs) -> None:
        pass

    def vertex_crashed(self, *args, **kwargs) -> None:
        pass

    def payload_corrupted(self, *args, **kwargs) -> None:
        pass

    def replica_reseated(self, *args, **kwargs) -> None:
        pass

    def messages_delivered(self, *args, **kwargs) -> None:
        pass

    def arrays_delivered(self, *args, **kwargs) -> None:
        pass

    def scheduler_batch(self, *args, **kwargs) -> None:
        pass

    def event(self, *args, **kwargs) -> None:
        pass

    def cell_begin(self, *args, **kwargs) -> None:
        pass

    def cell_end(self, *args, **kwargs) -> None:
        pass

    def span(self, name: str) -> Any:
        return _NULL_SPAN

    def span_add(self, *args, **kwargs) -> None:
        pass

    def span_totals(self) -> dict[str, float]:
        return {}


#: The shared do-nothing tracer every engine layer defaults to.
NULL_TRACER = NullTracer()


class RecordingTracer(Tracer):
    """Keeps every event in memory as a plain dict.

    The in-memory form is what the analysis helpers consume:
    :meth:`rounds` for the per-round summaries,
    :meth:`delivered_by_round` for the delivered-message multisets the
    trace-diff debugger compares, and
    :func:`repro.obs.chrome.write_chrome_trace` for timeline export.

    Args:
        record_messages: record per-message delivery content (default on —
            this tracer exists to make runs inspectable; switch off for
            long runs where only timings matter).
    """

    def __init__(self, record_messages: bool = True):
        super().__init__()
        self.record_messages = record_messages
        self.events: list[dict] = []

    def _emit(self, event: dict) -> None:
        self.events.append(event)

    def rounds(self) -> list[dict]:
        """The ``round_end`` events, in execution order."""
        return [e for e in self.events if e["kind"] == "round_end"]

    def events_of(self, kind: str) -> list[dict]:
        """All events of one ``kind``, in emission order."""
        return [e for e in self.events if e["kind"] == kind]

    def delivered_by_round(self) -> dict[int, list[tuple]]:
        """Round index -> delivered-message tuples (requires
        ``record_messages``)."""
        out: dict[int, list[tuple]] = {}
        for event in self.events:
            if event["kind"] == "delivered":
                out.setdefault(event["round"], []).extend(
                    tuple(m) for m in event["messages"]
                )
        return out


class JsonlTracer(Tracer):
    """Streams every event as one JSON line to ``path`` (or a file object).

    The streaming export for runs whose traces should not live in memory;
    read back with :func:`repro.obs.chrome.read_jsonl_events` or any JSONL
    consumer.  Values outside JSON's types (vertex identifiers that are
    tuples, numpy scalars) are serialised via ``repr`` — the trace is a
    human-debuggable record, not a round-trip format.

    Args:
        path: file path (opened for writing) or an open text file object.
        record_messages: include per-message delivery content (default off:
            message logs dominate file size on large runs).
    """

    def __init__(self, path: Any, record_messages: bool = False):
        super().__init__()
        self.record_messages = record_messages
        if hasattr(path, "write"):
            self._file: IO[str] = path
            self._owns = False
        else:
            self._file = open(path, "w", encoding="utf-8")
            self._owns = True

    def _emit(self, event: dict) -> None:
        self._file.write(json.dumps(event, default=repr) + "\n")

    def close(self) -> None:
        if self._file is not None:
            self._file.flush()
            if self._owns:
                self._file.close()
            self._file = None  # type: ignore[assignment]


def resolve_tracer(tracer: Tracer | None) -> Tracer:
    """``None`` means untraced: the shared :data:`NULL_TRACER`."""
    return tracer if tracer is not None else NULL_TRACER
