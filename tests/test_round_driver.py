"""The round driver: one synchronous CONGEST round for every backend.

:mod:`repro.engine.rounds` owns the round semantics (crash accumulation,
validation, corruption, adaptive feedback, drop rules, metrics, tracer
events) and every backend plugs a compute step and a transport into it.
Two contracts pin that:

1. **One round stream.**  The per-round ``round_begin`` / ``round_end``
   events — with ``active`` = vertices neither halted nor crashed once the
   round's crashes apply, and ``pending`` = messages in flight — are
   identical on every backend under every fault model, and for a vector
   algorithm against its per-vertex twin on both transports.
2. **No copies.**  The round-semantics hooks are called from
   ``engine/rounds.py`` only, so a backend cannot grow its own round loop
   back.
"""

from __future__ import annotations

import ast
from pathlib import Path

import networkx as nx
import pytest

import repro
from common import VectorFloodMinimum
from repro.congest.vertex import VertexAlgorithm
from repro.engine import as_vertex_factory, is_vector_algorithm
from repro.engine.runner import run_algorithm
from repro.engine.scenarios import LinkDropScenario
from repro.obs import RecordingTracer
from repro.robust.scenarios import AdaptiveCrashScenario, CrashStopVertexScenario

SCENARIOS = {
    "clean": lambda: None,
    "crash-vertices": lambda: CrashStopVertexScenario(
        fraction=0.2, first_round=1, window=3, seed=5
    ),
    "adaptive-crash": lambda: AdaptiveCrashScenario(
        max_faulty=3, first_round=1, period=2, seed=5
    ),
    "link-drop": lambda: LinkDropScenario(drop_probability=0.1, seed=3),
}


class PaddedFloodMinimum(VertexAlgorithm):
    """Flood-min whose announcements cost four words each.

    Every transfer spends several rounds on its edge, so ``pending`` is
    nonzero at most round starts.
    """

    def __init__(self, vertex, neighbors, n):
        super().__init__(vertex, neighbors, n)
        self.best = vertex
        self._changed = True
        self._quiet_rounds = 0

    def on_round(self, round_index, inbox):
        for message in inbox:
            if message.payload[0] < self.best:
                self.best = message.payload[0]
                self._changed = True
        if self._changed:
            self._changed = False
            self._quiet_rounds = 0
            return self.send_to_all_neighbors("min", (self.best, 0, 0))
        self._quiet_rounds += 1
        if self._quiet_rounds > 12:
            self.output = self.best
            self.halt()
        return []


def graph() -> nx.Graph:
    return nx.connected_watts_strogatz_graph(60, 4, 0.2, seed=3)


def round_stream(tracer: RecordingTracer) -> list[dict]:
    """The round_begin/round_end events without their wall-clock fields."""
    return [
        {key: value for key, value in event.items() if key not in ("ts", "seconds")}
        for event in tracer.events
        if event["kind"] in ("round_begin", "round_end")
    ]


def traced_run(algorithm, backend, scenario_name):
    tracer = RecordingTracer(record_messages=False)
    run_algorithm(
        graph(), algorithm, backend=backend,
        scenario=SCENARIOS[scenario_name](), tracer=tracer,
    )
    return tracer


@pytest.mark.parametrize("scenario_name", list(SCENARIOS))
@pytest.mark.parametrize(
    "algorithm",
    [PaddedFloodMinimum, VectorFloodMinimum],
    ids=["padded-flood", "vector-flood"],
)
def test_round_streams_agree_across_backends(algorithm, scenario_name):
    runs = {"reference": (algorithm, "reference"), "vectorized": (algorithm, "vectorized")}
    if is_vector_algorithm(algorithm):
        # The twin on the batch scheduler.
        runs["twin-vectorized"] = (as_vertex_factory(algorithm), "vectorized")
    tracers = {
        name: traced_run(factory, backend, scenario_name)
        for name, (factory, backend) in runs.items()
    }
    expected = round_stream(tracers["reference"])
    assert expected
    for name, tracer in tracers.items():
        assert round_stream(tracer) == expected, name
    if algorithm is PaddedFloodMinimum:
        assert any(
            event["pending"] for event in expected if event["kind"] == "round_begin"
        )


@pytest.mark.parametrize("scenario_name", ["crash-vertices", "adaptive-crash"])
def test_active_excludes_the_rounds_crashes(scenario_name):
    """Before anyone halts, ``active`` is n minus the crashes so far."""
    tracer = traced_run(PaddedFloodMinimum, "reference", scenario_name)
    crashes = tracer.events_of("vertex_crashed")
    assert crashes
    n = graph().number_of_nodes()
    for event in tracer.events_of("round_begin")[:10]:
        crashed = sum(1 for crash in crashes if crash["round"] <= event["round"])
        assert event["active"] == n - crashed, event


def test_pending_counts_in_flight_messages():
    tracer = traced_run(PaddedFloodMinimum, "reference", "clean")
    first, second = tracer.events_of("round_begin")[:2]
    assert first["pending"] == 0
    # Round 0 sends one four-word announcement per directed edge.
    assert second["pending"] == 2 * graph().number_of_edges()


ROUND_HOOKS = frozenset(
    {
        "faulty_vertices",
        "corrupt_payload",
        "corrupt_values",
        "observe_round",
        "add_rounds",
        "add_dropped",
        "round_begin",
        "round_end",
        "vertex_crashed",
    }
)


def test_round_semantics_hooks_are_called_only_by_the_driver():
    package = Path(repro.__file__).resolve().parent
    paths = [
        path
        for path in sorted((package / "engine").glob("*.py"))
        if path.name != "scenarios.py"  # defines and composes the hooks
    ] + [package / "congest" / "network.py"]
    callers: dict[str, set[str]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            if name in ROUND_HOOKS:
                callers.setdefault(name, set()).add(path.name)
    assert set(callers) == ROUND_HOOKS, sorted(ROUND_HOOKS - set(callers))
    strays = {hook: files for hook, files in callers.items() if files != {"rounds.py"}}
    assert not strays, strays
