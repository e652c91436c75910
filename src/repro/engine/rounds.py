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
:class:`VertexStep` steps one per-vertex algorithm per vertex and exchanges
lists of :class:`~repro.congest.message.Message`;
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


class VertexStep:
    """The round driver's compute step for per-vertex code.

    One :class:`~repro.congest.vertex.VertexAlgorithm` per vertex, built by
    ``factory`` in ``nodes`` order and stepped in that order, so the
    outgoing messages of a round come out in global vertex order on every
    transport.  The reference and vectorized backends both run it; it
    exchanges the transport's very ``Message`` objects, so nothing is
    packed or copied.
    """

    arrays = False

    def __init__(
        self, nodes: Sequence[Hashable], factory: VertexFactory, graph: Any
    ):
        n = len(nodes)
        # Materialised neighbour tuples: a factory must be able to iterate
        # its neighbours more than once (a lazy generator would silently
        # read empty on the second pass).
        self.algorithms: dict[Hashable, VertexAlgorithm] = {
            v: factory(v, tuple(graph.neighbors(v)), n) for v in nodes
        }
        self.inboxes: dict[Hashable, list[Message]] = {v: [] for v in nodes}
        # A factory may construct vertices already halted; they must not
        # count toward the live total or a spurious round runs.
        self.active = [v for v in nodes if not self.algorithms[v].halted]
        # The drop rule's view: every vertex that halted so far.
        self.halted = {v for v in nodes if self.algorithms[v].halted}

    @property
    def live(self) -> int:
        return len(self.active)

    def crash(self, vertices: list[Hashable]) -> None:
        # Crash-stop: the vertices leave the active set silently and for
        # good, not as halted (the driver tracks crashes itself).
        crashed = set(vertices)
        self.active = [v for v in self.active if v not in crashed]

    def compute(self, round_index: int) -> list[Message]:
        outgoing: list[Message] = []
        still_active: list[Hashable] = []
        for vertex in self.active:
            algorithm = self.algorithms[vertex]
            if algorithm.halted:
                self.halted.add(vertex)
                continue
            sent = algorithm.on_round(round_index, self.inboxes[vertex])
            self.inboxes[vertex] = []
            for message in sent:
                # Only the step knows which vertex produced the message.
                if message.sender != vertex:
                    raise ValueError(
                        f"vertex {vertex!r} attempted to forge sender "
                        f"{message.sender!r}"
                    )
            outgoing.extend(sent)
            if algorithm.halted:
                self.halted.add(vertex)
            else:
                still_active.append(vertex)
        self.active = still_active
        return outgoing

    def accept(self, messages: list[Message]) -> None:
        inboxes = self.inboxes
        for message in messages:
            inboxes[message.receiver].append(message)

    def finish(self) -> dict[Hashable, object]:
        return {v: alg.output for v, alg in self.algorithms.items()}
