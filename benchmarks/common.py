"""Workload builders shared by the benchmark harness and the test suites.

The engine throughput benchmarks (E11, E13), the distributed listing
benchmark (E12) and the engine equivalence / distributed listing test suites
all need the same ingredients: delivery-bound broadcast / BFS / flooding
workloads and a stable family of seeded workload graphs.  They live here
once; ``tests/conftest.py`` puts this directory on ``sys.path`` so the test
suite imports the same definitions instead of duplicating them.

The array-friendly workloads come in *pairs*: a per-vertex
:class:`~repro.congest.vertex.VertexAlgorithm` (broadcast below, flooding
and BFS from :mod:`repro.baselines.naive`) and a whole-network
:class:`~repro.engine.vector.VectorAlgorithm` twin that steps every vertex
in one numpy call.  The vector class carries its scalar twin in
``per_vertex``, so the *same* class runs on every backend — the vectorized
backend takes the array fast path, the reference backend runs the twin per
vertex — and the equivalence suite proves both paths agree on
outputs, rounds, and word totals under every delivery scenario.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.baselines.naive import BFSTreeLayers, FloodMinimum, bfs_tree_workload
from repro.congest.vertex import VertexAlgorithm
from repro.engine.vector import VectorAlgorithm, VectorInbox, VectorSends
from repro.experiments import register_graph_source, register_workload
from repro.graphs import erdos_renyi, planted_cliques, ring_of_cliques


class BroadcastBlob(VertexAlgorithm):
    """Every vertex broadcasts a ``payload_words``-word blob to all neighbours.

    The blob is a flat tuple of ints, so it costs ``1 + len`` CONGEST words
    and is fragmented by every backend into that many single-word rounds.
    A vertex halts once each neighbour's blob has fully arrived.  This is
    the delivery-bound regime the vectorized backend was built for.
    """

    payload_words = 256  # overridden per run via broadcast_workload()

    def __init__(self, vertex, neighbors, n):
        super().__init__(vertex, neighbors, n)
        self._received: set = set()

    def on_round(self, round_index, inbox):
        for message in inbox:
            self._received.add(message.sender)
        if round_index == 0:
            blob = tuple(range(self.payload_words - 1))
            return self.send_to_all_neighbors("blob", blob)
        if len(self._received) == len(self.neighbors):
            self.output = len(self._received)
            self.halt()
        return []


def broadcast_workload(payload_words: int) -> type[BroadcastBlob]:
    """A :class:`BroadcastBlob` subclass with the given blob size."""
    return type(
        "BroadcastBlobSized", (BroadcastBlob,), {"payload_words": payload_words}
    )


# -- whole-network (VectorAlgorithm) twins ----------------------------------


class VectorBroadcastBlob(VectorAlgorithm):
    """Array twin of :class:`BroadcastBlob`: all vertices stepped at once.

    Round 0 emits one ``payload_words``-word transfer per directed edge
    (precomputed CSR arrays, no per-vertex work); afterwards each round is a
    ``bincount`` of arrivals and two boolean masks.
    """

    payload_words = 256
    per_vertex = BroadcastBlob

    def __init__(self, topology):
        super().__init__(topology)
        self._received = np.zeros(topology.n, dtype=np.int64)
        self._outputs = np.zeros(topology.n, dtype=np.int64)

    def on_round(self, round_index: int, inbox: VectorInbox) -> VectorSends | None:
        topology = self.topology
        if inbox.size:
            # One blob per incident edge, so message counts equal distinct
            # senders — the scalar twin's set-cardinality check.
            self._received += inbox.count_per_receiver(topology.n)
        if round_index == 0:
            return topology.sends_to_all_neighbors(
                None,
                values=np.zeros(topology.n, dtype=np.int64),
                words=self.payload_words,
            )
        done = ~self.halted & (self._received == topology.degrees)
        if done.any():
            self._outputs[done] = self._received[done]
            self.halted |= done
        return None

    def outputs(self):
        return {
            v: int(self._outputs[i]) if self.halted[i] else None
            for i, v in enumerate(self.topology.nodes)
        }


class VectorFloodMinimum(VectorAlgorithm):
    """Array twin of :class:`repro.baselines.naive.FloodMinimum`."""

    per_vertex = FloodMinimum

    def __init__(self, topology):
        super().__init__(topology)
        self._best = topology.require_node_values().copy()
        self._changed = np.ones(topology.n, dtype=bool)
        self._quiet = np.zeros(topology.n, dtype=np.int64)

    def on_round(self, round_index: int, inbox: VectorInbox) -> VectorSends | None:
        n = self.topology.n
        if inbox.size:
            candidate = self._best.copy()
            np.minimum.at(candidate, inbox.receivers, inbox.values)
            self._changed |= candidate < self._best
            self._best = candidate
        live = ~self.halted
        senders = self._changed & live
        self._changed[senders] = False
        self._quiet[senders] = 0
        idle = live & ~senders
        self._quiet[idle] += 1
        finished = idle & (self._quiet > n)
        if finished.any():
            self.halted |= finished
        if senders.any():
            return self.topology.sends_to_all_neighbors(
                np.flatnonzero(senders), values=self._best, words=1
            )
        return None

    def outputs(self):
        return {
            v: int(self._best[i]) if self.halted[i] else None
            for i, v in enumerate(self.topology.nodes)
        }


class VectorBFSTree(VectorAlgorithm):
    """Array twin of :class:`repro.baselines.naive.BFSTreeLayers`.

    Per round: lexsort the inbox by ``(distance, sender id)`` and let each
    unreached receiver adopt its first-ranked announcement — exactly the
    scalar twin's ``min((payload, sender))`` choice, for every vertex in one
    pass.
    """

    root = 0
    per_vertex = BFSTreeLayers

    def __init__(self, topology):
        super().__init__(topology)
        self._node_values = topology.require_node_values()
        self._dist = np.full(topology.n, -1, dtype=np.int64)
        self._parent = np.full(topology.n, -1, dtype=np.int64)
        self._root_id = topology.id_of(self.root)

    def on_round(self, round_index: int, inbox: VectorInbox) -> VectorSends | None:
        n = self.topology.n
        newly = np.zeros(n, dtype=bool)
        if round_index == 0:
            self._dist[self._root_id] = 0
            self._parent[self._root_id] = self._node_values[self._root_id]
            newly[self._root_id] = True
        if inbox.size:
            sender_values = self._node_values[inbox.senders]
            order = np.lexsort((sender_values, inbox.values))
            receivers = inbox.receivers[order]
            unique_receivers, first = np.unique(receivers, return_index=True)
            adopt = self._dist[unique_receivers] < 0
            adopters = unique_receivers[adopt]
            best = order[first[adopt]]
            self._dist[adopters] = inbox.values[best] + 1
            self._parent[adopters] = sender_values[best]
            newly[adopters] = True
        sends = None
        if newly.any():
            self.halted |= newly
            sends = self.topology.sends_to_all_neighbors(
                np.flatnonzero(newly), values=self._dist, words=1
            )
        if round_index > n:
            self.halted |= self._dist < 0
        return sends

    def outputs(self):
        return {
            v: (int(self._dist[i]), int(self._parent[i]))
            if self._dist[i] >= 0
            else None
            for i, v in enumerate(self.topology.nodes)
        }


def vector_broadcast_workload(payload_words: int) -> type[VectorBroadcastBlob]:
    """A :class:`VectorBroadcastBlob` paired with a same-size scalar twin."""
    return type(
        "VectorBroadcastBlobSized",
        (VectorBroadcastBlob,),
        {
            "payload_words": payload_words,
            "per_vertex": broadcast_workload(payload_words),
        },
    )


def vector_bfs_workload(root=0) -> type[VectorBFSTree]:
    """A :class:`VectorBFSTree` rooted at ``root``, twin included."""
    return type(
        "VectorBFSTreeRooted",
        (VectorBFSTree,),
        {"root": root, "per_vertex": bfs_tree_workload(root)},
    )


def engine_workload_graphs() -> list[tuple[str, nx.Graph]]:
    """The seeded workload-graph matrix of the engine equivalence suite."""
    return [
        ("path", nx.path_graph(10)),
        ("dense-er", erdos_renyi(36, 12.0, seed=7)),
        ("sparse-er", erdos_renyi(50, 4.0, seed=3)),
        ("clique-ring", ring_of_cliques(5, 5)),
        ("planted", planted_cliques(40, 4, 4, background_avg_degree=3.0, seed=5)),
    ]


@register_graph_source("listing-workload")
def listing_workload_graph(n: int, seed: int = 23) -> nx.Graph:
    """The standard distributed-listing workload: sparse + planted K5s.

    Used by the E12 benchmark (``n = 1000`` acceptance run, ``n = 200``
    CI smoke), the E14 scenario grid, and the scale tests, so every
    consumer measures the same graph family.  Registered as the
    ``listing-workload`` graph source, so experiment specs (and their JSON
    form) can name it directly.
    """
    return planted_cliques(
        n, clique_size=5, num_cliques=max(4, n // 25),
        background_avg_degree=4.0, seed=seed,
    )


# -- experiment-registry entries --------------------------------------------
#
# The benchmark workloads register themselves with the open workload
# registry, so E11/E13/E14 (and any notebook) can select them by name in an
# ExperimentSpec; nothing benchmark-specific leaks into the library.


@register_workload("broadcast")
def broadcast_experiment_workload(payload_words: int = 256):
    """The E11 delivery-bound workload as a registered experiment workload."""
    return broadcast_workload(payload_words)


@register_workload("vector-broadcast")
def vector_broadcast_experiment_workload(payload_words: int = 256):
    """The whole-network numpy twin of ``broadcast`` (E13's fast path)."""
    return vector_broadcast_workload(payload_words)
