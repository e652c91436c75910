"""Chrome-trace (``chrome://tracing`` / Perfetto) export of engine traces.

Converts the structured events of a :class:`~repro.obs.tracer.RecordingTracer`
(or a JSONL trace file written by :class:`~repro.obs.tracer.JsonlTracer`)
into the Trace Event Format consumed by ``chrome://tracing`` and
https://ui.perfetto.dev: rounds render as slices on an ``engine`` track,
named spans (``compute`` / ``schedule`` / ``deliver`` …) on one track per
span name, and scheduler batches as instant markers.

Usage::

    tracer = RecordingTracer()
    run_algorithm(graph, Algo, backend="vectorized", tracer=tracer)
    write_chrome_trace(tracer, "trace.json")   # open in Perfetto

Timestamps in the event stream are seconds relative to the tracer's
construction; the exporter scales them to the microseconds the format
expects.  Durations shorter than one microsecond are clamped up so slices
never vanish at full zoom.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.obs.tracer import RecordingTracer

__all__ = ["chrome_trace_events", "write_chrome_trace", "read_jsonl_events"]

_US = 1e6
_PID = 1


class _Tracks:
    """Lazily numbers named tracks and emits Perfetto thread metadata."""

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.metadata: list[dict] = []

    def tid(self, name: str) -> int:
        tid = self.ids.get(name)
        if tid is None:
            tid = self.ids[name] = len(self.ids)
            self.metadata.append(
                {
                    "ph": "M",
                    "pid": _PID,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": name},
                }
            )
            # sort_index keeps the engine track on top, the rest in order.
            self.metadata.append(
                {
                    "ph": "M",
                    "pid": _PID,
                    "tid": tid,
                    "name": "thread_sort_index",
                    "args": {"sort_index": tid},
                }
            )
        return tid


def _slice(name: str, ts: float, dur: float, tid: int, args: dict) -> dict:
    return {
        "name": name,
        "ph": "X",
        "pid": _PID,
        "tid": tid,
        "ts": ts * _US,
        "dur": max(dur * _US, 1.0),
        "args": args,
    }


def _instant(name: str, ts: float, tid: int, args: dict) -> dict:
    return {
        "name": name,
        "ph": "i",
        "s": "t",
        "pid": _PID,
        "tid": tid,
        "ts": ts * _US,
        "args": args,
    }


def chrome_trace_events(events: Iterable[dict]) -> list[dict]:
    """Trace Event Format records for an engine event stream.

    Scheduler batches carry no timestamp of their own; they attach to the
    latest timestamp seen and render as instant markers, so counts stay
    visible without widening the timeline.
    """
    tracks = _Tracks()
    out: list[dict] = []
    round_start: dict[int, float] = {}
    last_ts = 0.0
    for event in events:
        kind = event.get("kind")
        ts = event.get("ts")
        if ts is not None:
            last_ts = max(last_ts, float(ts))
        if kind == "round_begin":
            round_start[event["round"]] = float(event["ts"])
        elif kind == "round_end":
            seconds = float(event["seconds"])
            start = round_start.pop(
                event["round"], float(event["ts"]) - seconds
            )
            out.append(
                _slice(
                    f"round {event['round']}",
                    start,
                    seconds,
                    tracks.tid("engine"),
                    {
                        "delivered": event["delivered"],
                        "words": event["words"],
                        "dropped": event["dropped"],
                    },
                )
            )
        elif kind == "span":
            out.append(
                _slice(
                    event["name"],
                    float(event["ts"]),
                    float(event["dur"]),
                    tracks.tid(f"span:{event['name']}"),
                    {"round": event.get("round")},
                )
            )
        elif kind == "scheduler":
            out.append(
                _instant(
                    f"sched:{event['path']}",
                    last_ts,
                    tracks.tid("scheduler"),
                    {
                        k: event[k]
                        for k in (
                            "round", "transfers", "edges", "deferred",
                            "windows", "window_cells",
                        )
                    },
                )
            )
        # scheduled / blocked / delivered events carry no wall-clock
        # position of their own and stay JSONL-only detail.
    return tracks.metadata + out


def write_chrome_trace(
    trace: RecordingTracer | Iterable[dict], path: str | Path
) -> Path:
    """Write ``trace`` (a tracer or an event iterable) as a Chrome trace.

    Returns the written path.  Load the file in ``chrome://tracing`` or
    https://ui.perfetto.dev.
    """
    events: Iterable[dict]
    if isinstance(trace, RecordingTracer):
        events = trace.events
    else:
        events = trace
    path = Path(path)
    payload = {"traceEvents": chrome_trace_events(events)}
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path


def read_jsonl_events(path: str | Path) -> list[dict]:
    """Load a :class:`~repro.obs.tracer.JsonlTracer` file back into dicts."""
    out: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
