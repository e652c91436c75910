"""Engine regression tests: sharded inline fallback, scenario determinism.

Regressions the equivalence matrix does not pin down directly:

* the sharded backend steps its shards in-process by default (one shard),
  for one requested worker, or when the configured start method is
  unavailable on the host — every such path must stay bit-for-bit
  equivalent to the reference simulator;
* delivery scenarios are pure functions of ``(seed, edge, round)``, so a
  faulty run repeated with the same seed must reproduce the identical
  execution on every backend — this is what makes fault experiments
  reproducible at all;
* the bugfix sweep of the vector-layer change: every backend must
  materialise neighbour tuples before calling a vertex factory and drop
  (and count) deliveries addressed to halted vertices;
* forked shard workers: a worker's exception, its death, or a failure
  while it starts up reaches the caller, and no worker process outlives
  the run.
"""

import multiprocessing
import os
import threading
import time

import networkx as nx
import pytest

from common import broadcast_workload
from repro.congest.vertex import VertexAlgorithm
from repro.engine import (
    AdversarialDelayScenario,
    LinkDropScenario,
    ShardedBackend,
    run_algorithm,
)
from repro.graphs import erdos_renyi
from repro.listing import list_triangles_distributed


def run_signature(run):
    return {
        "rounds": run.rounds,
        "messages": run.metrics.messages,
        "words": run.metrics.words,
        "halted": run.halted,
        "outputs": run.outputs,
        "combined": run.combined_output(),
    }


# ---------------------------------------------------------------------------
# Sharded inline fallback
# ---------------------------------------------------------------------------


def test_sharded_single_worker_runs_inline_and_matches_reference():
    graph = erdos_renyi(24, 6.0, seed=4)
    factory = broadcast_workload(12)
    reference = run_signature(
        run_algorithm(graph, factory, backend="reference", max_rounds=2000)
    )
    inline = run_signature(
        run_algorithm(
            graph, factory, backend=ShardedBackend(num_workers=1), max_rounds=2000
        )
    )
    assert inline == reference


class PidRecorder(VertexAlgorithm):
    """Each vertex outputs the pid of the process that stepped it."""

    def on_round(self, round_index, inbox):
        self.output = os.getpid()
        self.halt()
        return []


def test_sharded_default_steps_its_shard_in_the_parent_process():
    """``ShardedBackend()`` forks nothing: one shard, stepped in-process."""
    graph = erdos_renyi(24, 6.0, seed=4)
    built_in: list[int] = []

    def factory(vertex, neighbors, n):
        built_in.append(os.getpid())
        return PidRecorder(vertex, neighbors, n)

    for backend in (ShardedBackend(), "sharded"):
        built_in.clear()
        run = run_algorithm(graph, factory, backend=backend, max_rounds=10)
        assert run.halted
        assert set(built_in) == {os.getpid()}
        assert set(run.outputs.values()) == {os.getpid()}
    assert ShardedBackend().num_workers == 1
    if "fork" in multiprocessing.get_all_start_methods():
        # The probe does see forked workers when they are asked for.
        forked = run_algorithm(
            graph, PidRecorder, backend=ShardedBackend(num_workers=2),
            max_rounds=10,
        )
        assert os.getpid() not in set(forked.outputs.values())


def test_sharded_unavailable_start_method_falls_back_inline():
    """An unknown start method must degrade to inline shards, not crash."""
    graph = erdos_renyi(24, 6.0, seed=4)
    factory = broadcast_workload(12)
    assert "no-such-method" not in multiprocessing.get_all_start_methods()
    backend = ShardedBackend(num_workers=3, start_method="no-such-method")
    reference = run_signature(
        run_algorithm(graph, factory, backend="reference", max_rounds=2000)
    )
    inline = run_signature(
        run_algorithm(graph, factory, backend=backend, max_rounds=2000)
    )
    assert inline == reference


def test_sharded_inline_multi_shard_under_faults_matches_reference():
    """The inline path must also replay scenario decisions identically."""
    graph = erdos_renyi(20, 5.0, seed=8)
    factory = broadcast_workload(8)
    scenario = LinkDropScenario(drop_probability=0.2, seed=5)
    reference = run_signature(
        run_algorithm(
            graph, factory, backend="reference", scenario=scenario, max_rounds=5000
        )
    )
    backend = ShardedBackend(num_workers=4, start_method="no-such-method")
    inline = run_signature(
        run_algorithm(
            graph, factory, backend=backend, scenario=scenario, max_rounds=5000
        )
    )
    assert inline == reference


# ---------------------------------------------------------------------------
# Sharded batched pipe traffic
# ---------------------------------------------------------------------------


def test_pack_unpack_messages_round_trips():
    from repro.congest.message import Message
    from repro.engine.sharded import _pack_messages, _unpack_messages

    blob = tuple(range(5))  # one payload object shared by several messages
    messages = [
        Message(0, 1, "blob", blob),
        Message(0, 2, "blob", blob),
        Message(3, 1, "ack", None),
    ]
    batch = _pack_messages(messages)
    assert len(batch) == 4  # columnar: senders / receivers / tags / payloads
    assert _unpack_messages(batch) == messages
    assert _unpack_messages(_pack_messages([])) == []


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="forked workers unavailable on this platform",
)
@pytest.mark.parametrize("scenario", [None, LinkDropScenario(0.15, seed=9)])
def test_sharded_process_workers_batched_pipes_match_reference(scenario):
    """Forked workers with columnar pipe batches stay bit-for-bit equivalent.

    This pins the batching change: per-round traffic crosses each worker
    pipe as one columnar payload, and the resulting
    :class:`~repro.congest.network.SynchronousRun` (outputs, rounds,
    messages, words, drops, halting) must be identical to the reference
    simulator's, clean and faulty alike.
    """
    graph = erdos_renyi(30, 6.0, seed=12)
    factory = broadcast_workload(16)
    reference = run_signature(
        run_algorithm(
            graph, factory, backend="reference", scenario=scenario, max_rounds=5000
        )
    )
    backend = ShardedBackend(num_workers=3, start_method="fork")
    sharded_run = run_algorithm(
        graph, factory, backend=backend, scenario=scenario, max_rounds=5000
    )
    assert run_signature(sharded_run) == reference
    assert sharded_run.metrics.dropped == 0


# ---------------------------------------------------------------------------
# Scenario determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["reference", "vectorized", "sharded"])
def test_link_drop_same_seed_reproduces_identical_runs(backend):
    graph = erdos_renyi(25, 6.0, seed=6)
    factory = broadcast_workload(10)
    signatures = [
        run_signature(
            run_algorithm(
                graph,
                factory,
                backend=backend,
                scenario=LinkDropScenario(drop_probability=0.15, seed=42),
                max_rounds=5000,
            )
        )
        for _ in range(3)
    ]
    assert signatures[0] == signatures[1] == signatures[2]


def test_link_drop_seed_changes_the_schedule():
    """Different seeds must produce genuinely different fault schedules."""
    scenario_a = LinkDropScenario(drop_probability=0.5, seed=1)
    scenario_b = LinkDropScenario(drop_probability=0.5, seed=2)
    edges = [((u, v), r) for u in range(6) for v in range(6) if u != v for r in range(20)]
    decisions_a = [scenario_a.transmits(e, r) for e, r in edges]
    decisions_b = [scenario_b.transmits(e, r) for e, r in edges]
    assert decisions_a != decisions_b


def test_distributed_listing_deterministic_under_link_drop():
    """The full distributed pipeline is repeatable under a seeded fault model."""
    graph = erdos_renyi(30, 6.0, seed=9)
    runs = [
        list_triangles_distributed(
            graph,
            backend="vectorized",
            scenario=LinkDropScenario(drop_probability=0.1, seed=7),
        )
        for _ in range(2)
    ]
    assert runs[0].cliques == runs[1].cliques
    assert runs[0].measured_rounds == runs[1].measured_rounds
    assert runs[0].measured_words == runs[1].measured_words
    assert [e.rounds for e in runs[0].executions] == [
        e.rounds for e in runs[1].executions
    ]


# ---------------------------------------------------------------------------
# Bugfix sweep: neighbour materialisation, halted-inbox drops
# ---------------------------------------------------------------------------


class TwiceIteratingFactory(VertexAlgorithm):
    """Consumes the neighbours iterable twice during construction.

    With a lazy generator the second pass silently reads empty; a backend
    that materialises a tuple gives both passes the full adjacency.  The
    output exposes both counts, so a regression shows up as an outputs
    mismatch rather than a silent wrong answer.
    """

    def __init__(self, vertex, neighbors, n):
        first_pass = sum(1 for _ in neighbors)
        second_pass = list(neighbors)
        super().__init__(vertex, second_pass, n)
        self._counts = (first_pass, len(second_pass))

    def on_round(self, round_index, inbox):
        self.output = self._counts
        self.halt()
        return []


@pytest.mark.parametrize("backend", ["reference", "vectorized", "sharded"])
def test_factories_may_iterate_neighbors_twice(backend):
    graph = erdos_renyi(18, 5.0, seed=3)
    run = run_algorithm(graph, TwiceIteratingFactory, backend=backend, max_rounds=10)
    for vertex in graph.nodes:
        degree = len(list(graph.neighbors(vertex)))
        assert run.outputs[vertex] == (degree, degree), (
            f"{backend} passed a single-use neighbours iterable to the factory"
        )


class ChattyNeighbour(VertexAlgorithm):
    """Vertex 0 halts immediately; vertex 1 keeps messaging it anyway."""

    rounds_of_chatter = 5

    def on_round(self, round_index, inbox):
        if self.vertex == 0:
            self.output = "done"
            self.halt()
            return []
        if round_index < self.rounds_of_chatter:
            return [self.send(0, "ping", round_index)]
        self.halt()
        return []


@pytest.mark.parametrize("backend", ["reference", "vectorized", "sharded"])
def test_deliveries_to_halted_vertices_are_dropped(backend):
    """Messages to halted vertices are discarded — and counted — everywhere.

    Before the fix every backend appended them to inboxes that no one would
    ever read again: unbounded memory on long runs with stragglers.
    """
    graph = nx.path_graph(2)
    run = run_algorithm(graph, ChattyNeighbour, backend=backend, max_rounds=100)
    assert run.halted
    # All five pings complete after vertex 0 halted in round 0.
    assert run.metrics.dropped == ChattyNeighbour.rounds_of_chatter
    # The pings still consumed bandwidth: dropped messages are delivered
    # (and charged) before being discarded.
    assert run.metrics.messages >= ChattyNeighbour.rounds_of_chatter


def test_dropped_accounting_is_identical_across_backends():
    graph = erdos_renyi(16, 4.0, seed=12)
    from repro.baselines.naive import bfs_tree_workload

    # BFS halts each vertex the moment it joins the tree, so every duplicate
    # announcement lands on a halted vertex — a natural drop-heavy workload.
    factory = bfs_tree_workload(0)
    reference = run_algorithm(graph, factory, backend="reference", max_rounds=500)
    assert reference.metrics.dropped > 0
    for backend in ["vectorized", "sharded"]:
        run = run_algorithm(graph, factory, backend=backend, max_rounds=500)
        assert run.metrics.dropped == reference.metrics.dropped
        assert run.metrics.messages == reference.metrics.messages
        assert run.outputs == reference.outputs


# ---------------------------------------------------------------------------
# Forked shard workers
# ---------------------------------------------------------------------------


_FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()
_FORKED = ShardedBackend(num_workers=2, start_method="fork")


@pytest.mark.skipif(not _FORK_AVAILABLE, reason="forked workers unavailable")
def test_forked_shards_report_unknown_receiver_like_every_backend():
    """A send to a non-existent vertex raises the standard diagnostic.

    The message crosses the worker's pipe unchanged, so the parent's
    adjacency check in the round driver rejects it exactly as it does for
    in-process shards.
    """
    class Misaddressed(VertexAlgorithm):
        def on_round(self, round_index, inbox):
            if self.vertex == 0:
                return [self.send("no-such-vertex", "oops", 1)]
            self.halt()
            return []

    graph = nx.path_graph(4)
    with pytest.raises(ValueError, match="non-neighbour.*no-such-vertex"):
        run_algorithm(graph, Misaddressed, backend=_FORKED, max_rounds=10)


class FailsAtRoundTwo(VertexAlgorithm):
    """Vertex 4 (in the second of two shards of ``path_graph(6)``) fails."""

    def fail(self):
        raise KeyError("vertex 4 failed")

    def on_round(self, round_index, inbox):
        if self.vertex == 4 and round_index == 2:
            self.fail()
        if round_index == 5:
            self.halt()
            return []
        return self.send_to_all_neighbors("tick", round_index)


class DiesAtRoundTwo(FailsAtRoundTwo):
    def fail(self):
        os._exit(3)


@pytest.mark.skipif(not _FORK_AVAILABLE, reason="forked workers unavailable")
def test_forked_worker_exception_reaches_the_parent():
    with pytest.raises(KeyError, match="vertex 4 failed"):
        run_algorithm(nx.path_graph(6), FailsAtRoundTwo, backend=_FORKED)
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not _FORK_AVAILABLE, reason="forked workers unavailable")
def test_forked_worker_death_is_reported():
    with pytest.raises(RuntimeError, match="died unexpectedly"):
        run_algorithm(nx.path_graph(6), DiesAtRoundTwo, backend=_FORKED)
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not _FORK_AVAILABLE, reason="forked workers unavailable")
def test_forked_shard_failing_before_ready_is_closed():
    """A worker whose vertex factory raises is joined, not leaked.

    The failing shard raises inside its own constructor, before the backend
    holds it, so nothing else can close it.  A non-daemon thread keeps the
    worker alive after it reports the error: an unclosed shard would still
    be a live child when the error reaches the caller.
    """
    blob = broadcast_workload(4)

    def factory(vertex, neighbors, n):
        if vertex == 4:  # second shard of [0, 1, 2] / [3, 4, 5]
            threading.Thread(target=time.sleep, args=(0.5,)).start()
            raise ZeroDivisionError("factory failed")
        return blob(vertex, neighbors, n)

    with pytest.raises(ZeroDivisionError):
        run_algorithm(nx.path_graph(6), factory, backend=_FORKED)
    assert multiprocessing.active_children() == []


def test_inline_shards_bypass_all_serialisation(monkeypatch):
    """``num_workers=1`` (and any inline fallback) must never pack or pickle.

    Inline shards hold the parent's very ``Message`` objects; routing them
    through the columnar pack/unpack pair would be pure overhead.  Poisoning
    the pack/unpack pair proves the inline path cannot reach it.
    """
    from repro.engine import sharded as sharded_module

    def poisoned(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("inline shards must not touch the pipe batches")

    monkeypatch.setattr(sharded_module, "_pack_messages", poisoned)
    monkeypatch.setattr(sharded_module, "_unpack_messages", poisoned)
    graph = erdos_renyi(20, 5.0, seed=8)
    factory = broadcast_workload(8)
    reference = run_signature(
        run_algorithm(graph, factory, backend="reference", max_rounds=2000)
    )
    inline = run_signature(
        run_algorithm(
            graph, factory,
            backend=ShardedBackend(num_workers=1), max_rounds=2000,
        )
    )
    assert inline == reference


def test_adversarial_delay_same_seed_reproduces_identical_runs():
    graph = erdos_renyi(25, 6.0, seed=6)
    factory = broadcast_workload(10)
    scenario = AdversarialDelayScenario(stall_period=4, seed=11)
    first = run_signature(
        run_algorithm(graph, factory, backend="vectorized", scenario=scenario)
    )
    # A fresh scenario object with the same seed must replay identically
    # (the stall phases are derived from the seed, not from object state).
    second = run_signature(
        run_algorithm(
            graph,
            factory,
            backend="vectorized",
            scenario=AdversarialDelayScenario(stall_period=4, seed=11),
        )
    )
    assert first == second

