"""Vectorized per-vertex layer: one ``on_round`` call steps *all* vertices.

For array-friendly primitives — broadcast, BFS trees, flooding — the
per-vertex code is the same few arithmetic operations at every vertex, so it
can run once over numpy arrays instead of ``n`` Python ``on_round`` calls.

A :class:`VectorAlgorithm` is the whole-network counterpart of
:class:`~repro.congest.vertex.VertexAlgorithm`: the engine constructs **one**
instance per run (not one per vertex), hands it a :class:`VectorTopology`
(the run's CSR over dense vertex ids, whose slots are the directed edges'
ids; a :class:`~repro.graphs.index.LabelCSR`'s own arrays when the run gets
one), and calls ``on_round(round_index, inbox)`` once per round with the
round's deliveries as dense ``senders`` / ``receivers`` / ``values`` arrays.
The algorithm returns a :class:`VectorSends` batch (dense sender / receiver /
payload-word arrays, optionally their edge slots), which the engine
validates in bulk and feeds straight into the
existing :class:`~repro.engine.delivery.WordScheduler` — so bandwidth
semantics, word accounting, and delivery scenarios are byte-identical to the
per-vertex backends.  Faulty scenarios stay on the array path end to end:
every built-in scenario exposes a batch ``transmit_mask`` kernel, and the
scheduler turns it into per-edge prefix sums, so link drops, bursts, and
heterogeneous bandwidth cost numpy passes rather than per-(edge, round)
Python replay.

The first library :class:`VectorAlgorithm` is
:class:`~repro.listing.distributed.ListingVector`, the cluster protocol of
the distributed listing pipeline.  Its messages are multi-word (adjacency
lists, replies, routed edges): each send's ``words`` charges the payload's
full size, exactly what the twin's payload costs, while its single
``values`` word carries a handle into the algorithm's own tables.  It runs
on its plan's :class:`~repro.graphs.index.LabelCSR`, so it books every send
on a slot of its plan.

Every :class:`VectorAlgorithm` subclass declares a ``per_vertex`` twin — the
equivalent :class:`~repro.congest.vertex.VertexAlgorithm` factory — so the
same class can be handed to *any* backend: the vectorized backend takes the
array fast path, while the reference backend transparently runs the twin
per vertex (see :meth:`repro.engine.backend.Backend.resolve_factory`).
The equivalence suite (``tests/test_vector_layer.py``) proves both paths
agree on outputs, rounds, and word totals under every delivery scenario.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Mapping

import networkx as nx
import numpy as np

from repro.congest.metrics import CongestMetrics
from repro.congest.network import SynchronousRun
from repro.congest.vertex import VertexFactory
from repro.engine.delivery import GraphIndex, WordScheduler
from repro.engine.rounds import run_rounds
from repro.engine.scenarios import DeliveryScenario, link_projection, resolve_scenario
from repro.graphs.index import LabelCSR
from repro.obs.tracer import Tracer, resolve_tracer


class VectorTopology(GraphIndex):
    """The run's :class:`~repro.engine.delivery.GraphIndex` plus the helpers
    vector algorithms use: one instance per run, shared by the
    :class:`VectorStep` and the :class:`~repro.engine.delivery.WordScheduler`,
    so a vertex is its dense id and a directed edge its CSR slot on both."""

    @cached_property
    def node_values(self) -> np.ndarray | None:
        """``int64[n]`` of the vertex identifiers when every identifier is a
        Python int (the common case for workload graphs), else ``None``.
        Algorithms that compare identifiers (flooding, BFS parent selection)
        require it."""
        if all(type(v) is int for v in self.nodes):
            return np.asarray(self.nodes, dtype=np.int64)
        return None

    def id_of(self, vertex: Hashable) -> int:
        """Dense id of a vertex identifier."""
        return self.index[vertex]

    def require_node_values(self) -> np.ndarray:
        """The int64 identifier array; raises when ids are not plain ints."""
        if self.node_values is None:
            raise TypeError(
                "this vector algorithm compares vertex identifiers and "
                "requires integer vertex ids; got non-int node labels"
            )
        return self.node_values

    def sends_to_all_neighbors(
        self,
        vertex_ids: np.ndarray | None,
        values: np.ndarray,
        words: int,
    ) -> "VectorSends":
        """One send per incident edge of the given vertices (dense ids).

        ``vertex_ids`` of ``None`` means every vertex (the broadcast round-0
        case, served from precomputed arrays).  ``values`` is a full-length
        per-vertex array; each outgoing send carries its sender's value.
        ``words`` is the uniform word cost of each send.
        """
        if vertex_ids is None:
            senders = self.senders
            receivers = self.targets
            edge_ids = np.arange(senders.size, dtype=np.int64)
        else:
            counts = self.degrees[vertex_ids]
            total = int(counts.sum())
            senders = np.repeat(vertex_ids, counts)
            # Gather the CSR rows of each sender: global slot positions are
            # the sender's row start plus the within-row offset.
            row_ends = np.cumsum(counts)
            offsets = np.arange(total, dtype=np.int64) - np.repeat(
                row_ends - counts, counts
            )
            edge_ids = np.repeat(self.indptr[vertex_ids], counts) + offsets
            receivers = self.targets[edge_ids]
        return VectorSends(
            senders=senders,
            receivers=receivers,
            values=values[senders],
            words=np.full(senders.size, words, dtype=np.int64),
            edge_ids=edge_ids,
        )


@dataclass
class VectorInbox:
    """One round's deliveries to all vertices, as dense arrays.

    Attributes:
        senders / receivers: dense vertex ids, one row per delivered message.
        values: the int64 payload word each message carried.
    """

    senders: np.ndarray
    receivers: np.ndarray
    values: np.ndarray

    @classmethod
    def empty(cls) -> "VectorInbox":
        e = np.empty(0, dtype=np.int64)
        return cls(senders=e, receivers=e, values=e)

    @property
    def size(self) -> int:
        return int(self.senders.size)

    def count_per_receiver(self, n: int) -> np.ndarray:
        """Messages delivered to each vertex this round (``int64[n]``)."""
        return np.bincount(self.receivers, minlength=n)


@dataclass
class VectorSends:
    """One round's outgoing traffic from all vertices, as dense arrays.

    Attributes:
        senders / receivers: dense vertex ids, one row per message.
        values: int64 payload word carried by each message (delivered back
            verbatim in the receiver's :class:`VectorInbox`).
        words: per-message CONGEST word cost — what the bandwidth layer
            charges and fragments, exactly like the per-vertex twin's
            payload measured by ``words_for_payload``.
        edge_ids: optional directed-edge ids, the :class:`VectorTopology`
            CSR slots (:meth:`VectorTopology.sends_to_all_neighbors` fills
            them in); the engine looks them up when absent and checks that
            slot ``edge_ids[i]`` is ``senders[i] -> receivers[i]`` when not.
    """

    senders: np.ndarray
    receivers: np.ndarray
    values: np.ndarray
    words: np.ndarray
    edge_ids: np.ndarray | None = None

    @property
    def count(self) -> int:
        return int(self.senders.size)


class VectorAlgorithm(ABC):
    """Whole-network algorithm stepped once per round on numpy arrays.

    Subclasses implement :meth:`on_round` and typically override
    :meth:`outputs`.  The contract mirrors the per-vertex layer exactly:

    * vertices whose ``halted`` flag is set must not send (the engine
      validates against the halted set as of the *start* of the round, so
      halt-and-send in the same round is legal, as per-vertex code can do);
    * deliveries addressed to vertices that were halted by the end of the
      round are dropped before the next inbox (all backends share this
      rule);
    * state transitions must not depend on within-round inbox ordering —
      the CONGEST model gives no such guarantee.

    Attributes:
        topology: the :class:`VectorTopology` of the run.
        halted: ``bool[n]`` — per-vertex local-termination flags, owned by
            the algorithm.
        per_vertex: class attribute naming the equivalent per-vertex
            :class:`~repro.congest.vertex.VertexAlgorithm` factory; lets the
            reference backend run the same class unvectorized.
    """

    per_vertex: VertexFactory | None = None

    def __init__(self, topology: VectorTopology):
        self.topology = topology
        self.halted = np.zeros(topology.n, dtype=bool)

    @abstractmethod
    def on_round(self, round_index: int, inbox: VectorInbox) -> VectorSends | None:
        """Step every vertex once; return this round's outgoing traffic."""

    def outputs(self) -> Mapping[Hashable, object]:
        """Per-vertex outputs keyed by vertex identifier (default: ``None``):
        a dict, or a :class:`~repro.congest.network.TableOutputs`."""
        return {v: None for v in self.topology.nodes}


def is_vector_algorithm(factory: object) -> bool:
    """Whether ``factory`` is a :class:`VectorAlgorithm` subclass."""
    return isinstance(factory, type) and issubclass(factory, VectorAlgorithm)


def as_vertex_factory(algorithm: type[VectorAlgorithm]) -> VertexFactory:
    """The adapter shim: a vector class's per-vertex twin, validated."""
    twin = algorithm.per_vertex
    if twin is None:
        raise TypeError(
            f"{algorithm.__name__} declares no per_vertex twin; it can only "
            "run on the vectorized backend"
        )
    return twin


class VectorStep:
    """The round driver's compute step for one :class:`VectorAlgorithm`.

    One ``on_round`` call steps every vertex; the outgoing
    :class:`VectorSends` batch is validated in bulk here (lengths, id
    ranges, halted senders, word costs, adjacency, supplied edge ids) and
    returned to :func:`~repro.engine.rounds.run_rounds` as dense
    ``(senders, receivers, edge_ids, words, values)`` arrays.

    ``crashed[i]`` marks dense vertex ``i`` crash-stopped.  A crashed
    vertex's sends are filtered out, its deliveries (either direction) are
    dropped by the driver, and its output is frozen at its pre-crash value
    — exactly what not stepping the per-vertex twin produces.  The vector
    state array itself keeps evolving (one ``on_round`` steps everyone), but
    a crashed vertex's state can only reach the network through sends.
    """

    arrays = True

    def __init__(self, algorithm: type[VectorAlgorithm], topology: VectorTopology):
        self.topology = topology
        self.algorithm = algorithm(topology)
        if self.algorithm.halted.shape != (topology.n,):
            raise ValueError("VectorAlgorithm.halted must be a length-n bool array")
        self.crashed = np.zeros(topology.n, dtype=bool)
        self.frozen_outputs: dict[Hashable, object] = {}
        self.inbox = VectorInbox.empty()

    @property
    def halted(self) -> np.ndarray:
        return self.algorithm.halted

    @property
    def live(self) -> int:
        return self.topology.n - int(
            np.count_nonzero(self.algorithm.halted | self.crashed)
        )

    def crash(self, vertices: list[Hashable]) -> None:
        # Freeze outputs as of the crash-round start = the state after the
        # vertex's last completed round, which is what a never-stepped-again
        # per-vertex twin reports.
        snapshot = self.algorithm.outputs()
        for v in vertices:
            self.crashed[self.topology.id_of(v)] = True
            self.frozen_outputs[v] = snapshot[v]

    def compute(self, round_index: int) -> tuple[np.ndarray, ...] | None:
        topology = self.topology
        n = topology.n
        halted_before = self.algorithm.halted.copy()
        sends = self.algorithm.on_round(round_index, self.inbox)
        if sends is None or not sends.count:
            return None
        senders = np.asarray(sends.senders, dtype=np.int64)
        receivers = np.asarray(sends.receivers, dtype=np.int64)
        values = np.asarray(sends.values, dtype=np.int64)
        words = np.asarray(sends.words, dtype=np.int64)
        if not (senders.size == receivers.size == values.size == words.size):
            raise ValueError("VectorSends arrays must all have the same length")
        if senders.size and (
            int(senders.min()) < 0 or int(senders.max()) >= n
            or int(receivers.min()) < 0 or int(receivers.max()) >= n
        ):
            raise ValueError("VectorSends vertex ids out of range")
        edge_ids = sends.edge_ids
        if edge_ids is not None:
            edge_ids = np.asarray(edge_ids, dtype=np.int64)
            # edge_ids sizes the scheduler batch: a short one drops sends.
            if edge_ids.size != senders.size:
                raise ValueError("VectorSends.edge_ids must have one entry per send")
        if self.crashed.any():
            # A crashed vertex is silent: its rows are filtered out rather
            # than validated (the vector state array cannot know who the
            # scenario crashed).
            keep_rows = ~self.crashed[senders]
            if not keep_rows.all():
                senders = senders[keep_rows]
                receivers = receivers[keep_rows]
                values = values[keep_rows]
                words = words[keep_rows]
                if edge_ids is not None:
                    edge_ids = edge_ids[keep_rows]
        halted_senders = halted_before[senders]
        if halted_senders.any():
            offender = int(senders[int(np.flatnonzero(halted_senders)[0])])
            raise ValueError(
                f"halted vertex {topology.nodes[offender]!r} attempted to send"
            )
        if (words < 1).any():
            raise ValueError("every send must cost at least one word")
        if edge_ids is None:
            return senders, receivers, topology.slots(senders, receivers), words, values
        if edge_ids.size and (
            int(edge_ids.min()) < 0 or int(edge_ids.max()) >= topology.targets.size
        ):
            raise ValueError("VectorSends.edge_ids out of range")
        wrong = (topology.senders[edge_ids] != senders) | (
            topology.targets[edge_ids] != receivers
        )
        if wrong.any():
            bad = int(np.argmax(wrong))
            raise ValueError(
                f"VectorSends.edge_ids books the send "
                f"{topology.nodes[int(senders[bad])]!r} -> "
                f"{topology.nodes[int(receivers[bad])]!r} on another edge "
                f"(slot {int(edge_ids[bad])})"
            )
        return senders, receivers, edge_ids, words, values

    def accept(self, delivered: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        self.inbox = VectorInbox(*delivered)

    def finish(self) -> Mapping[Hashable, object]:
        outputs = self.algorithm.outputs()
        if self.frozen_outputs:
            outputs = {**outputs, **self.frozen_outputs}
        return outputs


def run_vector_algorithm(
    graph: nx.Graph | LabelCSR,
    algorithm: type[VectorAlgorithm],
    *,
    max_rounds: int = 10_000,
    phase: str = "simulated",
    metrics: CongestMetrics | None = None,
    scenario: DeliveryScenario | None = None,
    tracer: Tracer | None = None,
) -> SynchronousRun:
    """Drive a :class:`VectorAlgorithm` with batched validation and delivery.

    This is the vectorized backend's fast path: no per-vertex dispatch, no
    :class:`~repro.congest.message.Message` objects — a :class:`VectorStep`
    on the round driver, with dense arrays into and out of the
    :class:`~repro.engine.delivery.WordScheduler`, and identical
    round/word/output semantics to running the class's ``per_vertex`` twin
    on any backend.  A ``LabelCSR``'s arrays are the topology, uncopied.
    """
    topology = VectorTopology(graph)
    tracer = resolve_tracer(tracer)
    scenario = resolve_scenario(scenario)
    return run_rounds(
        VectorStep(algorithm, topology),
        WordScheduler(
            topology, link_projection(scenario), horizon=max_rounds, tracer=tracer
        ),
        scenario,
        topology.nodes,
        max_rounds=max_rounds,
        phase=phase,
        metrics=metrics,
        tracer=tracer,
    )
