"""Observability layer tests: tracers, exports, diffing, and invariance.

The load-bearing guarantee is *invariance*: tracing is observability, not
semantics, so a traced run and an untraced run of the same spec must
produce bit-identical result digests on every backend.  On top of that the
suite checks the tracers' own contracts (event shapes, span accounting,
JSONL/Chrome export) and the trace-diff divergence debugger (a doctored
trace must be pinned to its exact first divergent round and messages).
"""

import io
import json

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from common import VectorFloodMinimum
from repro.baselines.naive import FloodMinimum
from repro.congest.message import Message
from repro.engine import run_algorithm
from repro.engine.delivery import GraphIndex, WordScheduler
from repro.engine.scenarios import LinkDropScenario
from repro.experiments import ExperimentSpec, Session
from repro.graphs import erdos_renyi
from repro.obs import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    chrome_trace_events,
    diff_delivered,
    read_jsonl_events,
    run_trace_diff,
    write_chrome_trace,
)

BACKENDS = ["reference", "vectorized"]


def unit_spec(**overrides):
    params = dict(
        name="unit",
        graph="erdos-renyi",
        graph_params={"n": 24, "avg_degree": 5.0, "seed": 3},
        workload="flood-min",
        seeds=(0, 1),
    )
    params.update(overrides)
    return ExperimentSpec(**params)


def workload_graph():
    return erdos_renyi(n=24, avg_degree=5.0, seed=3)


# ---------------------------------------------------------------------------
# Tracer unit behaviour
# ---------------------------------------------------------------------------


class TestTracers:
    def test_null_tracer_is_disabled_and_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        assert tracer.record_messages is False
        tracer.round_begin(0, active=1, pending=0)
        tracer.round_end(0, delivered=1, words=1, dropped=0, seconds=0.1)
        tracer.messages_delivered(0, [Message(0, 1, "t", None)])
        with tracer.span("compute"):
            pass
        tracer.span_add("compute", 1.0)
        assert tracer.span_totals() == {}
        assert NULL_TRACER.enabled is False

    def test_recording_tracer_round_events(self):
        tracer = RecordingTracer()
        tracer.round_begin(0, active=3, pending=0)
        tracer.round_end(0, delivered=2, words=4, dropped=1, seconds=0.01)
        tracer.round_begin(1, active=1, pending=2)
        tracer.round_end(1, delivered=0, words=0, dropped=0, seconds=0.02)
        rounds = tracer.rounds()
        assert [r["round"] for r in rounds] == [0, 1]
        assert rounds[0]["delivered"] == 2
        assert rounds[0]["words"] == 4
        assert rounds[0]["dropped"] == 1
        assert tracer.events_of("round_begin")[1]["pending"] == 2

    def test_recording_tracer_message_content(self):
        tracer = RecordingTracer()
        tracer.messages_delivered(
            3, [Message(0, 1, "tag", (1, 2)), Message(1, 0, "tag", None)]
        )
        assert tracer.delivered_by_round() == {
            3: [(0, 1, "tag", "(1, 2)"), (1, 0, "tag", "None")]
        }

    def test_record_messages_off_suppresses_content(self):
        tracer = RecordingTracer(record_messages=False)
        tracer.messages_delivered(0, [Message(0, 1, "t", None)])
        assert tracer.events == []

    def test_span_context_manager_and_totals(self):
        tracer = RecordingTracer()
        with tracer.span("run_cell"):
            pass
        tracer.span_add("compute", 0.25, round_index=7)
        tracer.span_add("compute", 0.5)
        totals = tracer.span_totals()
        assert totals["compute"] == pytest.approx(0.75)
        assert totals["run_cell"] >= 0.0
        spans = tracer.events_of("span")
        assert any(e.get("round") == 7 for e in spans)

    def test_jsonl_tracer_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.round_begin(0, active=2, pending=0)
            # A non-JSON payload type must fall back to repr, not crash.
            tracer.record_messages = True
            tracer.messages_delivered(0, [Message((0, 1), 2, "t", {3})])
            tracer.round_end(0, delivered=1, words=1, dropped=0, seconds=0.1)
        events = read_jsonl_events(path)
        assert [e["kind"] for e in events] == [
            "round_begin", "delivered", "round_end",
        ]
        tracer.close()  # idempotent

    def test_jsonl_tracer_accepts_file_object(self):
        buffer = io.StringIO()
        tracer = JsonlTracer(buffer)
        tracer.round_begin(0, active=1, pending=0)
        tracer.close()
        assert json.loads(buffer.getvalue())["kind"] == "round_begin"


# ---------------------------------------------------------------------------
# Invariance: tracing must never perturb execution
# ---------------------------------------------------------------------------


class TestTracingInvariance:
    def test_digests_identical_untraced_null_and_recording(self):
        spec = unit_spec()
        untraced = Session(name="plain").grid(spec, backends=BACKENDS)
        null = Session(name="null", tracer=NullTracer()).grid(
            spec, backends=BACKENDS
        )
        recorded = Session(name="rec", tracer=RecordingTracer()).grid(
            spec, backends=BACKENDS
        )
        assert untraced.digest() == null.digest() == recorded.digest()
        untraced.check_backend_agreement()
        recorded.check_backend_agreement()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_traced_run_matches_untraced_run(self, backend):
        graph = workload_graph()
        plain = run_algorithm(graph, FloodMinimum, backend)
        traced = run_algorithm(
            graph, FloodMinimum, backend, tracer=RecordingTracer()
        )
        assert traced.rounds == plain.rounds
        assert traced.outputs == plain.outputs
        assert traced.metrics.snapshot() == plain.metrics.snapshot()


# ---------------------------------------------------------------------------
# Event content emitted by the engine layers
# ---------------------------------------------------------------------------


class TestEngineEvents:
    def test_reference_round_accounting_matches_metrics(self):
        tracer = RecordingTracer()
        run = run_algorithm(
            workload_graph(), FloodMinimum, "reference", tracer=tracer
        )
        rounds = tracer.rounds()
        assert len(rounds) == run.rounds
        assert sum(r["delivered"] for r in rounds) == run.metrics.messages
        assert sum(r["words"] for r in rounds) == run.metrics.words
        assert sum(r["dropped"] for r in rounds) == run.metrics.dropped
        scheduled = tracer.events_of("scheduled")
        assert scheduled and all(
            e["deferred"] <= e["count"] for e in scheduled
        )

    def test_reference_blocked_edges_only_under_scenario(self):
        clean = RecordingTracer()
        run_algorithm(
            workload_graph(), FloodMinimum, "reference", tracer=clean
        )
        assert clean.events_of("blocked") == []
        faulty = RecordingTracer()
        run_algorithm(
            workload_graph(),
            FloodMinimum,
            "reference",
            scenario="link-drop",
            tracer=faulty,
        )
        blocked = faulty.events_of("blocked")
        assert blocked and all(e["count"] > 0 for e in blocked)

    def test_scheduler_batch_paths(self):
        clean = RecordingTracer()
        run_algorithm(
            workload_graph(), FloodMinimum, "vectorized", tracer=clean
        )
        paths = {e["path"] for e in clean.events_of("scheduler")}
        assert paths == {"clean"}
        faulty = RecordingTracer()
        run_algorithm(
            workload_graph(),
            FloodMinimum,
            "vectorized",
            scenario="link-drop",
            tracer=faulty,
        )
        batches = faulty.events_of("scheduler")
        assert batches
        assert all(e["path"] in ("kernel", "scalar") for e in batches)
        kernel = [e for e in batches if e["path"] == "kernel"]
        assert kernel and all(e["windows"] >= 1 for e in kernel)
        assert all(e["window_cells"] >= e["windows"] for e in kernel)

    def test_scheduler_windows_follow_each_transfer(self):
        """A long transfer does not widen the mask windows of short ones.

        One 1,000-word transfer and 200 one-word transfers, each on its own
        edge, are scheduled in round 0: the mask cells evaluated must scale
        with the words of each transfer, not with the batch's longest one.
        """
        index = GraphIndex(nx.path_graph(203))
        tracer = RecordingTracer()
        scheduler = WordScheduler(
            index, LinkDropScenario(0.1), horizon=10_000, tracer=tracer
        )
        messages = [Message(i, i + 1, "t", 0) for i in range(201)]
        words = [1_000] + [1] * 200
        scheduler.schedule_messages(messages, words, 0)
        (event,) = tracer.events_of("scheduler")
        assert event["path"] == "kernel"
        assert event["window_cells"] <= 4 * sum(words) + 32 * len(words)
        assert event["windows"] <= 4

    def test_vector_fast_path_records_array_deliveries(self):
        tracer = RecordingTracer()
        run = run_algorithm(
            workload_graph(), VectorFloodMinimum, "vectorized", tracer=tracer
        )
        delivered = tracer.delivered_by_round()
        total = sum(len(messages) for messages in delivered.values())
        assert total == run.metrics.messages
        sample = next(iter(delivered.values()))[0]
        assert sample[2] == "word"


# ---------------------------------------------------------------------------
# Property: the trace agrees with the metrics, round by round
# ---------------------------------------------------------------------------


@st.composite
def connected_graphs(draw, max_vertices=12):
    n = draw(st.integers(min_value=3, max_value=max_vertices))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    graph = nx.gnp_random_graph(n, 0.45, seed=seed)
    # A spanning path keeps the flood finite and every vertex reachable.
    graph.add_edges_from((i, i + 1) for i in range(n - 1))
    return graph


@given(connected_graphs())
@settings(max_examples=20, deadline=None)
def test_trace_delivery_counts_match_metrics(graph):
    tracer = RecordingTracer()
    run = run_algorithm(graph, FloodMinimum, "reference", tracer=tracer)
    delivered = tracer.delivered_by_round()
    for round_event in tracer.rounds():
        recorded = len(delivered.get(round_event["round"], ()))
        assert recorded == round_event["delivered"]
    total = sum(len(messages) for messages in delivered.values())
    assert total == run.metrics.messages


# ---------------------------------------------------------------------------
# Trace diffing
# ---------------------------------------------------------------------------


class TestTraceDiff:
    def test_equivalent_backends_do_not_diverge(self):
        report, trace_a, trace_b = run_trace_diff(
            workload_graph(), FloodMinimum, "reference", "vectorized"
        )
        assert not report.diverged
        assert report.rounds_a == report.rounds_b
        assert "no divergence" in report.render()

    def test_doctored_trace_pins_exact_round_and_message(self):
        tracer = RecordingTracer()
        run_algorithm(
            workload_graph(), FloodMinimum, "reference", tracer=tracer
        )
        delivered = tracer.delivered_by_round()
        doctored = {r: list(m) for r, m in delivered.items()}
        target_round = sorted(
            r for r, msgs in doctored.items() if len(msgs) >= 2
        )[1]
        removed = doctored[target_round].pop(0)
        report = diff_delivered(tracer, doctored, "healthy", "doctored")
        assert report.diverged
        assert report.round_index == target_round
        assert report.only_a == [removed]
        assert report.only_b == []
        rendered = report.render()
        assert f"round {target_round}" in rendered
        assert repr(removed[0]) in rendered

    def test_extra_message_shows_on_other_side(self):
        base = {0: [(0, 1, "t", "1")], 1: [(1, 0, "t", "2")]}
        doctored = {
            0: [(0, 1, "t", "1")],
            1: [(1, 0, "t", "2"), (9, 9, "ghost", "None")],
        }
        report = diff_delivered(base, doctored)
        assert report.round_index == 1
        assert report.only_b == [(9, 9, "ghost", "None")]

    def test_round_count_mismatch_is_a_divergence(self):
        short = RecordingTracer()
        short.messages_delivered(0, [Message(0, 1, "t", 1)])
        short.round_end(0, delivered=1, words=1, dropped=0, seconds=0.0)
        long = RecordingTracer()
        long.messages_delivered(0, [Message(0, 1, "t", 1)])
        long.round_end(0, delivered=1, words=1, dropped=0, seconds=0.0)
        long.round_end(1, delivered=0, words=0, dropped=0, seconds=0.0)
        report = diff_delivered(short, long)
        assert report.diverged
        assert report.round_index == 1
        assert report.only_a == report.only_b == []

    def test_diff_requires_message_content(self):
        silent = RecordingTracer(record_messages=False)
        with pytest.raises(ValueError, match="record_messages"):
            diff_delivered(silent, silent)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


class TestChromeExport:
    def _traced_run(self):
        tracer = RecordingTracer()
        run_algorithm(workload_graph(), FloodMinimum, "vectorized", tracer=tracer)
        return tracer

    def test_chrome_events_structure(self):
        tracer = self._traced_run()
        events = chrome_trace_events(tracer.events)
        metadata = [e for e in events if e["ph"] == "M"]
        track_names = {
            e["args"]["name"] for e in metadata if e["name"] == "thread_name"
        }
        assert {
            "engine", "span:compute", "span:schedule", "span:deliver", "scheduler"
        } <= track_names
        slices = [e for e in events if e["ph"] == "X"]
        assert any(e["name"] == "round 0" for e in slices)
        assert all(e["dur"] >= 1.0 for e in slices)
        assert any(e["name"] == "compute" for e in slices)
        assert any(e["ph"] == "i" for e in events)

    def test_write_chrome_trace_file(self, tmp_path):
        tracer = self._traced_run()
        path = write_chrome_trace(tracer, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]

    def test_jsonl_stream_converts_to_chrome(self, tmp_path):
        jsonl_path = tmp_path / "trace.jsonl"
        with JsonlTracer(jsonl_path) as tracer:
            run_algorithm(
                workload_graph(), FloodMinimum, "vectorized", tracer=tracer
            )
        events = read_jsonl_events(jsonl_path)
        assert events
        chrome = chrome_trace_events(events)
        assert any(e.get("ph") == "X" for e in chrome)


# ---------------------------------------------------------------------------
# Session integration: per-layer time budgets
# ---------------------------------------------------------------------------


class TestSessionTimings:
    def test_traced_session_records_timings(self):
        session = Session(name="t", tracer=RecordingTracer())
        result = session.run(unit_spec())
        assert result.timings["run_cell"] > 0.0
        assert result.timings["compute"] > 0.0
        assert result.to_row()["timings"]

    def test_untraced_session_has_empty_timings(self):
        result = Session(name="p").run(unit_spec())
        assert result.timings == {}
        assert result.to_row()["timings"] == {}

    def test_timings_are_per_cell_not_cumulative(self):
        tracer = RecordingTracer()
        session = Session(name="t", tracer=tracer)
        first = session.run(unit_spec())
        second = session.run(unit_spec())
        # Each cell's budget is its own slice of the session tracer's
        # running totals: the two cells partition the total exactly.
        total = tracer.span_totals()["run_cell"]
        assert first.timings["run_cell"] + second.timings["run_cell"] == (
            pytest.approx(total)
        )
        assert second.timings["run_cell"] < total
