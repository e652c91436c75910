"""Faithful synchronous CONGEST simulator.

The simulator delivers messages edge-by-edge with the bandwidth constraint of
the model: per round, per directed edge, at most one machine word crosses.
Payloads larger than one word are fragmented transparently and the fragments
are queued on the edge, exactly the way a real CONGEST algorithm would have
to stretch a large transfer over multiple rounds.

This executor is the *reference semantics* of the execution engine
(:mod:`repro.engine`): the vectorized and sharded backends are validated
against it.  Algorithms run through :func:`repro.engine.run_algorithm`,
whose ``backend`` argument selects this network (``"reference"``, the
default) or a faster backend; the asymptotic scaling experiments use
:mod:`repro.congest.cost`.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

import networkx as nx

from repro.congest.message import Message, words_for_payload
from repro.congest.metrics import CongestMetrics
from repro.congest.vertex import VertexFactory

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.engine.scenarios import DeliveryScenario
    from repro.obs.tracer import Tracer


@dataclass
class SynchronousRun:
    """Result of driving a :class:`CongestNetwork` to completion.

    Attributes:
        rounds: number of synchronous rounds executed.
        metrics: full round/message accounting.
        outputs: per-vertex ``output`` attribute after termination.
        halted: whether every vertex halted (as opposed to hitting the
            round limit).  Crashed vertices (vertex-fault scenarios) are
            excluded: a run is ``halted`` when every *surviving* vertex
            halted.
        round_stretch: compiled-over-bare round ratio when the run came out
            of the robust compiler (:mod:`repro.robust`); ``None`` for
            ordinary runs.
        reseats: replica re-seat count when the run came out of the robust
            compiler's self-healing mode (``compile_robust(heal=True)``);
            ``None`` for ordinary runs.
    """

    rounds: int
    metrics: CongestMetrics
    outputs: dict[Hashable, object]
    halted: bool
    round_stretch: float | None = None
    reseats: int | None = None

    def combined_output(self) -> set:
        """Union of all per-vertex outputs that are sets (listing results)."""
        combined: set = set()
        for value in self.outputs.values():
            if isinstance(value, (set, frozenset, list, tuple)):
                combined.update(value)
        return combined


class CongestNetwork:
    """A synchronous message-passing network over an undirected graph."""

    def __init__(
        self,
        graph: nx.Graph,
        metrics: CongestMetrics | None = None,
        scenario: "DeliveryScenario | None" = None,
        tracer: "Tracer | None" = None,
    ):
        if graph.number_of_nodes() == 0:
            raise ValueError("cannot build a CONGEST network over an empty graph")
        self.graph = graph
        self.n = graph.number_of_nodes()
        self.metrics = metrics if metrics is not None else CongestMetrics()
        # Local imports: repro.engine imports this module.
        from repro.engine.scenarios import link_projection, resolve_scenario
        from repro.obs.tracer import resolve_tracer

        # Delivery model (repro.engine.scenarios); None is the clean
        # synchronous CONGEST model.  The edge queues see only its link
        # part, and a clean link part skips the per-edge query entirely.
        self.scenario = resolve_scenario(scenario)
        link = link_projection(self.scenario)
        self._link_scenario = None if link.is_clean else link
        self.tracer = resolve_tracer(tracer)
        self.has_edge = graph.has_edge
        # Per directed edge FIFO of outstanding word fragments, and the
        # number of messages among them.
        self._edge_queues: dict[tuple[Hashable, Hashable], deque] = defaultdict(deque)
        self.pending_messages = 0
        # This round's sends and scenario-blocked edge count (observability
        # details of the traced delivery, not an API).
        self._sent: list[Message] = []
        self._last_blocked = 0

    # -- driving an algorithm ------------------------------------------------

    def run(
        self,
        factory: VertexFactory,
        max_rounds: int = 10_000,
        phase: str = "simulated",
    ) -> SynchronousRun:
        """Instantiate ``factory`` on every vertex and run to termination.

        The round itself is :func:`repro.engine.rounds.run_rounds`; this
        network is its transport (the per-edge word queues below) and one
        in-process :class:`~repro.engine.rounds.ShardState` its compute step.

        Args:
            factory: called as ``factory(vertex, neighbors, n)`` for every
                vertex of the graph.
            max_rounds: safety cap on the number of synchronous rounds.
            phase: metrics phase to charge rounds and messages to.

        Returns:
            A :class:`SynchronousRun` with metrics and per-vertex outputs.
        """
        from repro.engine.rounds import ShardState, ShardStep, run_rounds

        nodes = list(self.graph.nodes)
        shard = ShardState(nodes, factory, self.graph)
        self._edge_queues.clear()
        self.pending_messages = 0
        return run_rounds(
            ShardStep([shard]),
            self,
            self.scenario,
            nodes,
            max_rounds=max_rounds,
            phase=phase,
            metrics=self.metrics,
            tracer=self.tracer,
        )

    # -- bandwidth-constrained delivery ---------------------------------------

    def _enqueue(self, outgoing: list[Message]) -> None:
        """Fragment messages into words and append them to edge queues."""
        self.pending_messages += len(outgoing)
        for message in outgoing:
            edge = (message.sender, message.receiver)
            fragments = words_for_payload(message.payload, self.n)
            # The final fragment carries the payload; preceding fragments are
            # placeholder words.  This preserves both delivery semantics (the
            # receiver acts on the payload once it has fully arrived) and the
            # bandwidth accounting (``fragments`` words cross the edge).
            for _ in range(fragments - 1):
                self._edge_queues[edge].append(None)
            self._edge_queues[edge].append(message)

    def _deliver_one_round(self, round_index: int) -> tuple[list[Message], int]:
        """Pop at most one word per directed edge.

        Returns the messages whose final word arrived this round together
        with the total number of words (including placeholder fragments of
        larger payloads) that crossed any edge — the quantity bandwidth
        accounting must charge.  Queues that drain are pruned so long runs
        do not iterate ever more empty deques.
        """
        delivered: list[Message] = []
        words_crossed = 0
        blocked = 0
        drained: list[tuple[Hashable, Hashable]] = []
        scenario = self._link_scenario
        for edge, queue in self._edge_queues.items():
            if scenario is not None and not scenario.transmits(edge, round_index):
                blocked += 1
                continue
            item = queue.popleft()
            words_crossed += 1
            if isinstance(item, Message):
                delivered.append(item)
            if not queue:
                drained.append(edge)
        for edge in drained:
            del self._edge_queues[edge]
        self._last_blocked = blocked
        self.pending_messages -= len(delivered)
        return delivered, words_crossed

    # -- the round driver's transport protocol (repro.engine.rounds) ---------

    def schedule(self, outgoing: list[Message], round_index: int) -> None:
        self._enqueue(outgoing)
        self._sent = outgoing

    def deliver(self, round_index: int) -> tuple[list[Message], int]:
        """One round of edge-queue delivery, plus the reference-only events."""
        delivered, words_crossed = self._deliver_one_round(round_index)
        tracer = self.tracer
        if tracer.enabled:
            # A message defers when its last word does not cross in the
            # round it was sent — the same definition the batch scheduler
            # reports (completion round > enqueue round).
            sent_ids = {id(m) for m in self._sent}
            completed_now = sum(1 for m in delivered if id(m) in sent_ids)
            tracer.messages_scheduled(
                round_index,
                count=len(self._sent),
                deferred=len(self._sent) - completed_now,
            )
            if self._last_blocked:
                tracer.edges_blocked(round_index, self._last_blocked)
        return delivered, words_crossed

