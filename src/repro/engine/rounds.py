"""The synchronous CONGEST round, written once for every backend.

In the paper's model a round is: every vertex computes on what it received,
then at most one ``O(log n)``-bit word crosses each directed edge.
:func:`run_rounds` is that round, and every backend drives its executions
through it.  It owns the round semantics, in this order:

1. the termination check: no vertex live and nothing in flight;
2. crash accumulation from the scenario's ``faulty_vertices`` (once
   crashed, always crashed) and the ``vertex_crashed`` events;
3. ``round_begin``: ``active`` counts the vertices neither halted nor
   crashed once this round's crashes apply, ``pending`` the messages in
   flight;
4. the compute step, then neighbour validation and sender-side Byzantine
   corruption, before any word is sized;
5. scheduling and delivery on the transport;
6. the adaptive ``observe_round`` feedback, on pre-drop per-receiver counts;
7. the drop rule: a delivery to a halted receiver, or from or to a crashed
   vertex, spent its bandwidth but is discarded and counted;
8. :class:`~repro.congest.metrics.CongestMetrics` charging, the
   ``compute``/``schedule``/``deliver`` spans and ``round_end``.

Two parts plug in.  A *compute step* runs the vertices' code:
:class:`ShardStep` over per-vertex :class:`ShardState` shards (one
in-process shard on the reference and vectorized backends, one per worker
on the sharded backend, in-process or forked) exchanges lists of
:class:`~repro.congest.message.Message`;
:class:`~repro.engine.vector.VectorStep` steps a whole-network
:class:`~repro.engine.vector.VectorAlgorithm` and exchanges dense arrays
(``arrays = True``).  A *transport* moves the words:
:class:`~repro.congest.network.CongestNetwork`'s per-edge queues, or the
batch :class:`~repro.engine.delivery.WordScheduler`.  Both offer
``has_edge``, ``pending_messages`` and ``schedule`` / ``deliver`` for
messages; the scheduler also takes arrays through ``schedule_batch`` /
``deliver_batch``.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Hashable, Sequence

import numpy as np

from repro.congest.message import Message
from repro.congest.metrics import CongestMetrics
from repro.congest.network import SynchronousRun
from repro.congest.vertex import VertexAlgorithm, VertexFactory
from repro.engine.scenarios import DeliveryScenario, RoundStats
from repro.obs.tracer import Tracer


def run_rounds(
    step: Any,
    transport: Any,
    scenario: DeliveryScenario,
    nodes: Sequence[Hashable],
    *,
    max_rounds: int,
    phase: str,
    metrics: CongestMetrics | None,
    tracer: Tracer,
) -> SynchronousRun:
    """Drive ``step`` on ``transport`` until every vertex halts or crashes.

    ``nodes`` lists the vertices in dense-id order: the order the scenario
    is bound in and adaptive feedback is counted in.  Rounds and messages
    are charged to ``phase`` of ``metrics`` (a fresh counter when ``None``).
    """
    metrics = metrics if metrics is not None else CongestMetrics()
    traced = tracer.enabled
    vertex_faults = scenario.has_vertex_faults
    adaptive = scenario.is_adaptive
    if vertex_faults or adaptive:
        scenario.bind_nodes(nodes)
    arrays = step.arrays
    n = len(nodes)
    node_ids = {v: i for i, v in enumerate(nodes)} if adaptive else {}
    has_edge = transport.has_edge
    crashed: set = set()
    rounds = 0
    for round_index in range(max_rounds):
        if not step.live and not transport.pending_messages:
            break
        rounds += 1
        if vertex_faults:
            newly = [
                v for v in scenario.faulty_vertices(round_index) if v not in crashed
            ]
            if newly:
                crashed.update(newly)
                step.crash(newly)
                if traced:
                    for vertex in newly:
                        tracer.vertex_crashed(round_index, vertex)
        if traced:
            round_start = time.perf_counter()
            tracer.round_begin(
                round_index, active=step.live, pending=transport.pending_messages
            )

        sends = step.compute(round_index)
        corrupted = 0
        if arrays:
            if vertex_faults and sends is not None:
                senders, receivers, edge_ids, words, values = sends
                lied = scenario.corrupt_values(senders, receivers, round_index, values)
                if lied is not values:
                    corrupted = int(np.count_nonzero(lied != values))
                    sends = (senders, receivers, edge_ids, words, lied)
        else:
            checked: list[Message] = []
            for message in sends:
                if not has_edge(message.sender, message.receiver):
                    raise ValueError(
                        f"vertex {message.sender!r} attempted to send to "
                        f"non-neighbour {message.receiver!r}"
                    )
                if vertex_faults:
                    # Byzantine corruption is sender-side at send time,
                    # before word sizing, so every transport sizes,
                    # schedules and delivers the identical corrupted value.
                    payload = scenario.corrupt_payload(
                        message.sender, message.receiver, round_index,
                        message.payload,
                    )
                    if payload is not message.payload:
                        message = replace(message, payload=payload)
                        corrupted += 1
                checked.append(message)
            sends = checked
        if traced:
            compute_done = time.perf_counter()
            tracer.span_add("compute", compute_done - round_start, round_index)
            if corrupted:
                tracer.payload_corrupted(round_index, corrupted)

        if not arrays:
            transport.schedule(sends, round_index)
        elif sends is not None:
            transport.schedule_batch(*sends, round_index)
        if traced:
            schedule_done = time.perf_counter()
            tracer.span_add("schedule", schedule_done - compute_done, round_index)

        if arrays:
            senders, receivers, values, words_crossed = transport.deliver_batch(
                round_index
            )
            count = int(senders.size)
            if adaptive:
                counts = np.bincount(receivers, minlength=n)
            if traced and tracer.record_messages and count:
                tracer.arrays_delivered(
                    round_index, senders, receivers, values, nodes
                )
            keep = ~step.halted[receivers]
            if crashed:
                keep &= ~step.crashed[senders]
                keep &= ~step.crashed[receivers]
            dropped = count - int(np.count_nonzero(keep))
            if dropped:
                senders, receivers, values = senders[keep], receivers[keep], values[keep]
            kept = (senders, receivers, values)
        else:
            arrived, words_crossed = transport.deliver(round_index)
            count = len(arrived)
            if adaptive:
                counts = np.bincount(
                    np.fromiter(
                        (node_ids[m.receiver] for m in arrived),
                        dtype=np.int64,
                        count=count,
                    ),
                    minlength=n,
                )
            if traced:
                tracer.messages_delivered(round_index, arrived)
            halted = step.halted
            kept = [
                m for m in arrived
                if m.receiver not in halted
                and not (crashed and (m.sender in crashed or m.receiver in crashed))
            ]
            dropped = count - len(kept)
        if adaptive:
            scenario.observe_round(RoundStats(round_index, counts))
        step.accept(kept)

        if dropped:
            metrics.add_dropped(dropped, phase=phase)
        metrics.add_rounds(1, phase=phase)
        metrics.add_messages(count, phase=phase, words=words_crossed)
        if traced:
            now = time.perf_counter()
            tracer.span_add("deliver", now - schedule_done, round_index)
            tracer.round_end(
                round_index,
                delivered=count,
                words=words_crossed,
                dropped=dropped,
                seconds=now - round_start,
            )

    # Halted means every surviving vertex halted: exactly no live vertex.
    return SynchronousRun(
        rounds=rounds, metrics=metrics, outputs=step.finish(), halted=not step.live
    )


class ShardState:
    """Per-vertex compute state of one shard: algorithms, inboxes, active set.

    The one per-vertex compute step: the reference and vectorized backends
    run a single in-process shard over every vertex, the sharded backend one
    per worker, in-process or inside a forked worker process.  In-process
    shards exchange the parent's very ``Message`` objects — nothing is
    packed or pickled.
    """

    def __init__(self, vertices: list[Hashable], factory: VertexFactory, graph: Any):
        self.vertices = vertices
        n = graph.number_of_nodes()
        # Materialised neighbour tuples: a factory must be able to iterate
        # its neighbours more than once (a lazy generator would silently
        # read empty on the second pass).
        self.algorithms: dict[Hashable, VertexAlgorithm] = {
            v: factory(v, tuple(graph.neighbors(v)), n) for v in vertices
        }
        self.inboxes: dict[Hashable, list[Message]] = {v: [] for v in vertices}
        # A factory may construct vertices already halted; they must not
        # count toward the live total or a spurious round runs.
        self.active = [v for v in vertices if not self.algorithms[v].halted]
        self.initial_active = len(self.active)
        self.initial_halted = [v for v in vertices if self.algorithms[v].halted]
        self._round: tuple = ()

    def begin_round(
        self, round_index: int, deliveries: list[Message], crashes: tuple
    ) -> None:
        """Hand over the round; the shard steps in :meth:`collect_round`.

        ``crashes`` are the vertices the driver crashed at the start of this
        round: the shard never consults the scenario itself.
        """
        self._round = (round_index, deliveries, crashes)

    def collect_round(self) -> tuple[list[Message], int, list[Hashable]]:
        """Run the round; returns (outgoing, active_count, newly_halted).

        ``newly_halted`` lets the driver keep a global halted set for the
        drop rule.
        """
        round_index, deliveries, crashes = self._round
        crashed = set(crashes)
        for message in deliveries:
            self.inboxes[message.receiver].append(message)
        outgoing: list[Message] = []
        still_active: list[Hashable] = []
        newly_halted: list[Hashable] = []
        for vertex in self.active:
            algorithm = self.algorithms[vertex]
            if vertex in crashed:
                # Crash-stop: the vertex leaves the active set silently and
                # for good — not reported as halted (the driver tracks
                # crashes itself).
                continue
            if algorithm.halted:
                newly_halted.append(vertex)
                continue
            sent = algorithm.on_round(round_index, self.inboxes[vertex])
            self.inboxes[vertex] = []
            for message in sent:
                # The sender check must happen shard-side: only the shard
                # knows which vertex produced the message.
                if message.sender != vertex:
                    raise ValueError(
                        f"vertex {vertex!r} attempted to forge sender "
                        f"{message.sender!r}"
                    )
            outgoing.extend(sent)
            if not algorithm.halted:
                still_active.append(vertex)
            else:
                newly_halted.append(vertex)
        self.active = still_active
        return outgoing, len(still_active), newly_halted

    def finish(self) -> dict[Hashable, object]:
        return {v: alg.output for v, alg in self.algorithms.items()}

    def close(self) -> None:
        pass


class ShardStep:
    """The compute step over per-vertex shards.

    A shard is a :class:`ShardState` or anything speaking its round
    protocol (``begin_round`` / ``collect_round`` / ``finish`` / ``close``
    plus ``vertices``, ``initial_active`` and ``initial_halted``), such as
    the sharded backend's forked workers.  Every shard is begun before any
    is collected, so forked workers step concurrently; concatenating their
    traffic in shard order reproduces the global vertex order.
    """

    arrays = False

    def __init__(self, shards: list):
        self.shards = shards
        self.owner = {
            v: shard_id for shard_id, shard in enumerate(shards) for v in shard.vertices
        }
        # Global halted set, fed by per-shard reports: the drop rule's view.
        self.halted = {v for shard in shards for v in shard.initial_halted}
        self.live = sum(shard.initial_active for shard in shards)
        self._deliveries: list[list[Message]] = [[] for _ in shards]
        self._crashes: tuple = ()

    def crash(self, vertices: list[Hashable]) -> None:
        self._crashes = tuple(vertices)
        self.live -= sum(
            1 for v in vertices if v in self.owner and v not in self.halted
        )

    def compute(self, round_index: int) -> list[Message]:
        crashes, self._crashes = self._crashes, ()
        for shard, deliveries in zip(self.shards, self._deliveries):
            shard.begin_round(round_index, deliveries, crashes)
        outgoing: list[Message] = []
        live = 0
        for shard in self.shards:
            sent, active, newly_halted = shard.collect_round()
            outgoing.extend(sent)
            live += active
            self.halted.update(newly_halted)
        self.live = live
        return outgoing

    def accept(self, messages: list[Message]) -> None:
        if len(self.shards) == 1:
            self._deliveries = [messages]
            return
        deliveries: list[list[Message]] = [[] for _ in self.shards]
        owner = self.owner
        for message in messages:
            deliveries[owner[message.receiver]].append(message)
        self._deliveries = deliveries

    def finish(self) -> dict[Hashable, object]:
        outputs: dict[Hashable, object] = {}
        for shard in self.shards:
            outputs.update(shard.finish())
        return {v: outputs[v] for v in self.owner}
