"""Distributed execution of the recursive listing pipeline (Theorems 32/36).

This module is the bridge between the paper's listing algorithms and the
pluggable execution engine (:mod:`repro.engine`): instead of *charging* a
cost model for the communication each cluster performs, it *executes* the
per-cluster work as an actual CONGEST algorithm through
:meth:`repro.experiments.Session.execute`, on any backend (reference /
vectorized / sharded) and under any delivery scenario (clean / link-drop /
bursty / heterogeneous-bandwidth / adversarial-delay and their
compositions).

Execution model
---------------

The outer recursion is the unchanged
:class:`~repro.listing.recursion.RecursiveListingDriver`: decompose the
residual edge set into expander clusters, have every cluster finish the
residual edges between its core vertices, remove them, recurse.  What
changes is the per-cluster handler: each cluster (and the final fallback
pass) becomes **one engine execution** over the cluster's working graph.
Clusters of a level are edge-disjoint (up to the factor 2 the paper also
tolerates) and run in parallel, so a level's measured round cost is the
maximum over its cluster executions, exactly mirroring the cost model's
accounting.

Two message protocols implement the per-cluster work of Lemma 34:

* **Exhaustive 2-hop listing** (Lemma 35): every lister announces its
  adjacency list to all neighbours; each neighbour replies with the subset
  of the announced vertices it is adjacent to.  The lister then knows its
  induced 2-hop neighbourhood and locally lists every clique through
  itself.  The engine fragments the multi-word announcements and replies,
  so the measured round count reflects the real ``O(alpha)`` pipelining.
* **Partition-tree edge learning** (step 2 of Lemma 34): each ``V_C^*``
  leaf-part owner must learn the edges running between its part's ancestor
  parts.  Edge endpoints inject one packet per demanded edge; packets are
  forwarded hop-by-hop along precomputed shortest paths inside the working
  graph, under the model's one-word-per-edge bandwidth constraint.

Both protocols are compiled into one :class:`ClusterProtocolPlan` per
execution, whose :meth:`~ClusterProtocolPlan.factory` is a plan-bound
:class:`ListingVector`.  The vectorized backend steps each cluster as that
one :class:`~repro.engine.vector.VectorAlgorithm`: every vertex once per
round, on arrays, with no per-message Python work.  The reference and
sharded backends run its ``per_vertex`` twin, :class:`ListingVertex`, which
exchanges real :class:`~repro.congest.message.Message` objects.  The two
agree on rounds, messages, words and every vertex's output under every
delivery scenario (``tests/test_listing_vector.py``).  Vertex-fault
scenarios are refused: the protocol waits for every reply it expects.

Centralized preprocessing
-------------------------

As in the paper, some machinery is a black box the algorithm *uses* rather
than communicates for: the expander decomposition (Theorem 5, [CS20]) and
the K3-partition-tree construction (Theorem 16, via the Theorem 11
streaming simulation).  The orchestrator computes these centrally and
installs their outcome into the plans (listers, packet routes, expected
message counts) — the distributed analogue of
vertices knowing the routing tables the deterministic schemes of [CS20]
would have built.  Their round cost is still *charged* through the cost
accountant, so the predicted totals remain end-to-end; the measured totals
cover the communication the protocol actually performs.  This is the
cost-model vs. measured-execution distinction: predictions include the
``n^{o(1)}`` preprocessing terms, measurements are real message rounds.

For ``p >= 4`` the split-tree machinery of Lemma 37 is not yet ported;
the distributed ``K_p`` handler runs the Lemma 41-style exhaustive pass
over all core vertices instead (correct, but with ``O(Delta)``-type round
cost rather than ``n^{1-2/p+o(1)}``).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Hashable, Iterable

import networkx as nx
import numpy as np
import scipy.sparse

from repro.congest.cost import CostAccountant, RoutingOverhead, polylog_overhead
from repro.congest.message import Message, words_for_payload
from repro.congest.metrics import CongestMetrics
from repro.congest.vertex import VertexAlgorithm
from repro.engine.backend import Backend
from repro.engine.runner import resolve_backend
from repro.engine.scenarios import DeliveryScenario, resolve_scenario
from repro.engine.vector import (
    VectorAlgorithm,
    VectorInbox,
    VectorSends,
    VectorTopology,
)
from repro.experiments.session import Session
from repro.graphs.cliques import Clique, cliques_in_edge_set
from repro.listing.local import charge_exhaustive_pass, cliques_through_vertex
from repro.listing.recursion import (
    ClusterTask,
    ListingResult,
    RecursiveListingDriver,
)
from repro.listing.triangles import TriangleListing

Edge = tuple[int, int]


def _canonical(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


# ---------------------------------------------------------------------------
# Per-vertex protocol plans
# ---------------------------------------------------------------------------


@dataclass
class VertexPlan:
    """Everything one vertex must know before a cluster execution starts.

    Attributes:
        p: clique size the vertex lists.
        is_lister: whether the vertex runs the 2-hop exhaustive pass: it
            announces its sorted adjacency list to every neighbour in
            round 0.
        expected_announcements: number of lister neighbours whose
            announcements this vertex must answer.
        expected_replies: number of adjacency replies a lister waits for
            (its communication degree).
        injects: number of edge-learning packets this vertex originates in
            round 0 (their routes live on the :class:`ClusterProtocolPlan`).
        expected_relays: number of packets this vertex must relay.
        expected_edges: number of routed edges this vertex receives as a
            leaf-part owner.
        preloaded_edges: demanded edges incident to the owner itself — no
            communication needed, the vertex already knows them.
    """

    p: int = 3
    is_lister: bool = False
    expected_announcements: int = 0
    expected_replies: int = 0
    injects: int = 0
    expected_relays: int = 0
    expected_edges: int = 0
    preloaded_edges: list[Edge] = field(default_factory=list)

    def idle(self) -> bool:
        """True when the vertex neither sends nor expects anything."""
        return not (
            self.is_lister
            or self.injects
            or self.expected_announcements
            or self.expected_replies
            or self.expected_relays
            or self.expected_edges
        )


def _no_routes(*shape: int) -> np.ndarray:
    return np.empty(shape or (0,), dtype=np.int64)


@dataclass
class ClusterProtocolPlan:
    """A compiled per-cluster protocol: topology, per-vertex plans, routes.

    Vertices are addressed by dense id in the routes: the position of the
    vertex in ``graph.nodes``, which is also the engine's dense order.

    Attributes:
        graph: the communication graph the engine executes on (the
            cluster's working graph, or the induced residual neighbourhood
            for fallback passes).
        plans: per-vertex plans; vertices without an entry stay idle.
        p: clique size.
        listers: number of vertices running the 2-hop exhaustive pass.
        demands: number of routed edge-learning packets.
        route_hops: every demand's route, from the injecting endpoint to
            the owner, concatenated in demand order.
        route_ends: ``route_ends[d]`` is where demand ``d``'s route ends
            (exclusive) in ``route_hops``.
        route_edges: ``int64[demands, 2]`` — the demanded edge ``(u, w)``
            of each demand, ``u`` the smaller label.
    """

    graph: nx.Graph
    plans: dict[Hashable, VertexPlan]
    p: int
    listers: int = 0
    demands: int = 0
    route_hops: np.ndarray = field(default_factory=_no_routes)
    route_ends: np.ndarray = field(default_factory=_no_routes)
    route_edges: np.ndarray = field(default_factory=lambda: _no_routes(0, 2))

    def factory(self) -> type["ListingVector"]:
        """The plan-bound :class:`ListingVector` class to hand the engine.

        The vectorized backend steps it on arrays; every other backend runs
        its ``per_vertex`` twin, one :class:`ListingVertex` per vertex.
        """
        return type(
            "PlannedListingVector",
            (ListingVector,),
            {"plan": self, "per_vertex": staticmethod(self._make_vertex)},
        )

    def _make_vertex(
        self, vertex: Hashable, neighbors: Iterable[Hashable], n: int
    ) -> "ListingVertex":
        inject, forward = self.packet_tables
        return ListingVertex(
            vertex,
            neighbors,
            n,
            plan=self.plans.get(vertex) or VertexPlan(p=self.p),
            inject=inject.get(vertex, ()),
            forward=forward.get(vertex, {}),
        )

    @cached_property
    def packet_tables(self) -> tuple[dict, dict]:
        """The twin's per-vertex packet tables, derived from the routes.

        ``inject[v]`` lists the ``(demand, u, w, first_hop)`` packets ``v``
        originates, in demand order; ``forward[v]`` maps each demand ``v``
        relays to its next hop.
        """
        nodes = list(self.graph.nodes)
        hops = [nodes[i] for i in self.route_hops.tolist()]
        inject: dict[Hashable, list] = defaultdict(list)
        forward: dict[Hashable, dict[int, Hashable]] = defaultdict(dict)
        start = 0
        for demand, ((u, w), end) in enumerate(
            zip(self.route_edges.tolist(), self.route_ends.tolist())
        ):
            inject[hops[start]].append((demand, nodes[u], nodes[w], hops[start + 1]))
            for position in range(start + 1, end - 1):
                forward[hops[position]][demand] = hops[position + 1]
            start = end
        return inject, forward


class ListingVertex(VertexAlgorithm):
    """The per-vertex code of the distributed cluster-listing protocol.

    Implements both sub-protocols of Lemma 34 as real messages:

    * 2-hop exhaustive listing — round 0: listers announce their adjacency
      (tag ``adj``); any vertex receiving an announcement replies with the
      announced vertices it is adjacent to (tag ``hits``), in the order of
      the announcement.  A lister that has collected all replies knows its
      induced neighbourhood and lists every ``K_p`` through itself, handing
      that view to :func:`~repro.listing.local.cliques_through_vertex` as an
      adjacency mapping (a dict of sets; no vertex builds a graph object).
    * edge learning — round 0: demand sources inject ``edge`` packets
      (``inject``); relays forward them along their tables (``forward``);
      owners collect them and finally list the cliques among the learned
      edges with :func:`~repro.graphs.cliques.cliques_in_edge_set`.

    Expected message counts are part of the plan, so every vertex can halt
    locally the moment its counters are met — there is no global
    termination detection, matching the CONGEST model.  This is the
    ``per_vertex`` twin of :class:`ListingVector`.
    """

    def __init__(
        self,
        vertex,
        neighbors,
        n,
        plan: VertexPlan,
        inject: Iterable[tuple[int, Hashable, Hashable, Hashable]] = (),
        forward: dict[int, Hashable] | None = None,
    ):
        super().__init__(vertex, neighbors, n)
        self.plan = plan
        self._inject = inject
        self._forward = forward or {}
        self._neighbor_set = set(self.neighbors)
        self._announcements_answered = 0
        self._replies: dict[Hashable, tuple] = {}
        self._edges: set[Edge] = {_canonical(*e) for e in plan.preloaded_edges}
        self._edges_received = 0
        self._relayed = 0
        self._initial_sent = False
        self.output: set[Clique] = set()
        if plan.idle():
            self._finish()

    # -- protocol rounds -----------------------------------------------------

    def on_round(self, round_index: int, inbox: list[Message]) -> list[Message]:
        outgoing: list[Message] = []
        for message in inbox:
            if message.tag == "adj":
                self._announcements_answered += 1
                hits = tuple(filter(self._neighbor_set.__contains__, message.payload))
                outgoing.append(self.send(message.sender, "hits", hits))
            elif message.tag == "hits":
                self._replies[message.sender] = message.payload
            elif message.tag == "edge":
                demand_id, u, w = message.payload
                next_hop = self._forward.get(demand_id)
                if next_hop is None:
                    self._edges.add(_canonical(u, w))
                    self._edges_received += 1
                else:
                    self._relayed += 1
                    outgoing.append(self.send(next_hop, "edge", (demand_id, u, w)))
        if not self._initial_sent:
            self._initial_sent = True
            if self.plan.is_lister:
                outgoing.extend(
                    self.send(neighbor, "adj", self.neighbors)
                    for neighbor in self.neighbors
                )
            outgoing.extend(
                self.send(hop, "edge", (demand_id, u, w))
                for demand_id, u, w, hop in self._inject
            )
        if self._complete():
            self._finish()
        return outgoing

    def _complete(self) -> bool:
        plan = self.plan
        return (
            self._initial_sent
            and self._announcements_answered >= plan.expected_announcements
            and len(self._replies) >= plan.expected_replies
            and self._relayed >= plan.expected_relays
            and self._edges_received >= plan.expected_edges
        )

    def _finish(self) -> None:
        if self.halted:
            return
        found: set[Clique] = set()
        if self.plan.is_lister:
            found |= cliques_through_vertex(
                self._induced_neighborhood(), self.vertex, self.plan.p
            )
        if self._edges:
            found |= cliques_in_edge_set(self._edges, self.plan.p)
        self.output = found
        self.halt()

    def _induced_neighborhood(self) -> dict[Hashable, set]:
        """The lister's induced neighbourhood as a dict of sets.

        ``u``–``w`` is an edge when ``u`` reported ``w`` or ``w`` reported
        ``u``, and the lister is adjacent to each of its neighbours.
        """
        adjacency: dict[Hashable, set] = {u: {self.vertex} for u in self.neighbors}
        adjacency[self.vertex] = set(self.neighbors)
        for neighbor, hits in self._replies.items():
            adjacency[neighbor].update(hits)
            for w in hits:
                adjacency.setdefault(w, set()).add(neighbor)
        return adjacency


def _edge_ids(
    topology: VectorTopology, senders: np.ndarray, receivers: np.ndarray
) -> np.ndarray:
    """Directed-edge ids of ``(sender, receiver)`` pairs, none for none."""
    if not senders.size:
        return senders
    return topology.edge_id_lookup(senders, receivers)


# Message kinds of the array path: a delivered value is ``ident << 2 | kind``.
_ADJ, _HITS, _EDGE = 0, 1, 2
# Columns of ListingVector's per-vertex counters, in VertexPlan order.
_ANSWERED, _REPLIES, _RELAYED, _RECEIVED = range(4)


class ListingVector(VectorAlgorithm):
    """The Lemma 34 cluster protocol, every vertex stepped once per round.

    The array form of :class:`ListingVertex` (its ``per_vertex`` twin): the
    same messages with the same word costs, sent in the same order, and
    the same halting rule.  :meth:`ClusterProtocolPlan.factory` binds it to
    a plan.  A message's value is a handle ``ident << 2 | kind`` into the
    plan's tables, and its ``words`` are the twin's payload size:

    * ``adj`` (``ident``: the announcement) costs one word plus the
      lister's labels; the receiver answers ``hits``, costing one word plus
      the labels the pair has in common, from a label-weighted
      common-neighbour count on the topology's CSR;
    * ``hits`` is counted by the lister;
    * ``edge`` (``ident``: the receiver's position in the plan's flat
      routes) costs the twin's ``(demand, u, w)`` words; a relay forwards
      it one position on, the route's owner counts it.

    Round 0 sends every announcement and injects every packet; later rounds
    only answer the inbox.  Sends leave in the twin's order — by sender in
    dense-id order, and within a sender replies in inbox order, then
    announcements, then injects — so every per-edge FIFO, and with it every
    completion round, matches.  A vertex halts once its counters meet its
    plan, then lists with :func:`cliques_through_vertex` (listers, over the
    plan graph: a halted lister has heard every reply) and
    :func:`cliques_in_edge_set` (owners, over their routed edges).
    """

    plan: ClusterProtocolPlan

    def __init__(self, topology: VectorTopology):
        super().__init__(topology)
        plan = self.plan
        n = topology.n
        nodes = topology.nodes
        idle_plan = VertexPlan(p=plan.p)
        self._plans = [plan.plans.get(v) or idle_plan for v in nodes]
        self._need = np.array(
            [
                (
                    vp.expected_announcements,
                    vp.expected_replies,
                    vp.expected_relays,
                    vp.expected_edges,
                )
                for vp in self._plans
            ],
            dtype=np.int64,
        ).reshape(n, 4)
        self._got = np.zeros((n, 4), dtype=np.int64)
        self._outputs: dict[int, set[Clique]] = {}
        if topology.node_values is not None:
            cost = np.ones(n, dtype=np.int64)
            label_order = np.argsort(topology.node_values, kind="stable")
        else:
            cost = np.fromiter(
                (words_for_payload(v, n) for v in nodes), dtype=np.int64, count=n
            )
            label_order = np.array(sorted(range(n), key=nodes.__getitem__), dtype=int)
        rank = np.empty(n, dtype=np.int64)
        rank[label_order] = np.arange(n)

        # Announcements: one per CSR slot of a lister, in label order.
        lister = np.fromiter((vp.is_lister for vp in self._plans), dtype=bool, count=n)
        indptr, targets = topology.indptr, topology.targets
        slot_senders = topology.csr_senders
        slots = np.flatnonzero(lister[slot_senders])
        slots = slots[np.lexsort((rank[targets[slots]], slot_senders[slots]))]
        announcers, answerers = slot_senders[slots], targets[slots]
        prefix = np.concatenate(([0], np.cumsum(cost[targets])))
        label_words = prefix[indptr[1:]] - prefix[indptr[:-1]]
        self._hits_words = 1 + self._common_label_words(
            lister, cost, announcers, answerers
        )
        self._hits_edges = _edge_ids(topology, answerers, announcers)

        # Edge packets: one flat route per demand.
        hops, ends = plan.route_hops, plan.route_ends
        starts = ends - np.diff(ends, prepend=0)
        edges = plan.route_edges
        self._hops = hops
        packet_words = 2 + cost[edges[:, 0]] + cost[edges[:, 1]]
        self._hop_words = np.repeat(packet_words, ends - starts)
        self._hop_is_end = np.zeros(hops.size, dtype=bool)
        self._hop_is_end[ends - 1] = True
        self._hop_edges = np.zeros(hops.size, dtype=np.int64)
        inner = np.ones(hops.size, dtype=bool)
        inner[starts] = False
        inner = np.flatnonzero(inner)
        self._hop_edges[inner] = _edge_ids(topology, hops[inner - 1], hops[inner])
        owners = hops[ends - 1]
        self._owned = np.argsort(owners, kind="stable")
        self._owned_ptr = [0, *np.cumsum(np.bincount(owners, minlength=n)).tolist()]
        self._labels = np.fromiter(nodes, dtype=object, count=n)

        # Round 0: announcements, then injects (on_round groups by sender).
        first = starts + 1
        initial = (
            np.concatenate((announcers, hops[starts])),
            np.concatenate((answerers, hops[first])),
            np.concatenate(
                ((np.arange(slots.size) << 2) | _ADJ, (first << 2) | _EDGE)
            ),
            np.concatenate((1 + label_words[announcers], self._hop_words[first])),
            np.concatenate((topology.csr_edge_ids[slots], self._hop_edges[first])),
        )
        self._initial: tuple[np.ndarray, ...] | None = initial

        idle = np.fromiter((vp.idle() for vp in self._plans), dtype=bool, count=n)
        self.halted |= idle
        for vertex_id in np.flatnonzero(idle).tolist():
            if self._plans[vertex_id].preloaded_edges:
                self._finish(vertex_id)

    def _common_label_words(
        self,
        lister: np.ndarray,
        cost: np.ndarray,
        announcers: np.ndarray,
        answerers: np.ndarray,
    ) -> np.ndarray:
        """Per announcement, the words of the labels both endpoints neighbour.

        One sparse product ``A[listers] · diag(cost) · A`` counts them for
        every lister row at once; each announcement reads its pair's entry.
        """
        topology = self.topology
        n = topology.n
        if not announcers.size:
            return np.zeros(0, dtype=np.int64)
        ones = np.ones(topology.targets.size, dtype=np.int64)
        adjacency = scipy.sparse.csr_matrix(
            (ones, topology.targets, topology.indptr), shape=(n, n)
        )
        listers = np.flatnonzero(lister)
        rows = adjacency[listers]
        rows.data = cost[rows.indices]
        common = (rows @ adjacency).tocsr()
        if not common.nnz:
            return np.zeros(announcers.size, dtype=np.int64)
        common.sort_indices()
        rows_of = np.repeat(np.arange(listers.size), np.diff(common.indptr))
        keys = rows_of * n + common.indices
        wanted = np.searchsorted(listers, announcers) * n + answerers
        at = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
        return np.where(keys[at] == wanted, common.data[at], 0)

    def on_round(self, round_index: int, inbox: VectorInbox) -> VectorSends | None:
        # Only round 0 and an inbox can move a counter.
        if self._initial is not None:
            senders, receivers, values, words, edge_ids = self._initial
            self._initial = None
            candidates = np.flatnonzero(~self.halted)
        elif inbox.size:
            senders, receivers, values, words, edge_ids = self._answer(inbox)
            candidates = inbox.receivers
        else:
            return None
        complete = (self._got[candidates] >= self._need[candidates]).all(axis=1)
        if complete.any():
            newly = np.unique(candidates[complete])
            self.halted[newly] = True
            for vertex_id in newly.tolist():
                self._finish(vertex_id)
        if not senders.size:
            return None
        order = np.argsort(senders, kind="stable")
        return VectorSends(
            senders=senders[order],
            receivers=receivers[order],
            values=values[order],
            words=words[order],
            edge_ids=edge_ids[order],
        )

    def _answer(self, inbox: VectorInbox) -> tuple[np.ndarray, ...]:
        """Count the inbox; return its replies and relays, in inbox order."""
        receivers = inbox.receivers
        ident = inbox.values >> 2
        column = inbox.values & 3  # _ADJ -> _ANSWERED, _HITS -> _REPLIES
        edge = np.flatnonzero(column == _EDGE)
        column[edge] += self._hop_is_end[ident[edge]]  # _RELAYED or _RECEIVED
        np.add.at(self._got, (receivers, column), 1)
        answer = column == _ANSWERED
        rows = np.flatnonzero(answer | (column == _RELAYED))
        answer = answer[rows]
        relay = ~answer
        ident = ident[rows]
        hop = ident[relay] + 1
        out_receivers, out_values, out_words, out_edges = out = np.empty(
            (4, rows.size), dtype=np.int64
        )
        out_receivers[answer] = inbox.senders[rows[answer]]
        out_values[answer] = _HITS
        out_words[answer] = self._hits_words[ident[answer]]
        out_edges[answer] = self._hits_edges[ident[answer]]
        out_receivers[relay] = self._hops[hop]
        out_values[relay] = (hop << 2) | _EDGE
        out_words[relay] = self._hop_words[hop]
        out_edges[relay] = self._hop_edges[hop]
        return (receivers[rows], *out)

    def _finish(self, vertex_id: int) -> None:
        vertex_plan = self._plans[vertex_id]
        found: set[Clique] = set()
        if vertex_plan.is_lister:
            found |= cliques_through_vertex(
                self.plan.graph.adj, self.topology.nodes[vertex_id], vertex_plan.p
            )
        first, last = self._owned_ptr[vertex_id : vertex_id + 2]
        if last > first or vertex_plan.preloaded_edges:
            # Routed edges stream into the kernel as label pairs, so no
            # list of them is ever built.
            demands = self._owned[first:last]
            us, ws = self._labels[self.plan.route_edges[demands]].T.tolist()
            found |= cliques_in_edge_set(
                chain(vertex_plan.preloaded_edges, zip(us, ws)), vertex_plan.p
            )
        self._outputs[vertex_id] = found

    def outputs(self) -> dict[Hashable, set[Clique]]:
        outputs = self._outputs
        return {v: outputs.get(i, set()) for i, v in enumerate(self.topology.nodes)}


# ---------------------------------------------------------------------------
# Compiling plans
# ---------------------------------------------------------------------------


def plan_two_hop_protocol(
    comm_graph: nx.Graph, listers: Iterable[int], p: int
) -> ClusterProtocolPlan:
    """Compile the Lemma 35 announce/reply protocol over ``comm_graph``.

    ``comm_graph`` must equal the graph the cliques are listed in: for
    cluster executions it is the working graph, for fallback passes the
    subgraph of ``G`` induced on the listers' closed neighbourhood (which
    contains every edge a lister's 2-hop view can mention).
    """
    lister_set = {v for v in listers if v in comm_graph}
    adjacency = comm_graph.adj
    plans: dict[int, VertexPlan] = {v: VertexPlan(p=p) for v in comm_graph.nodes}
    for vertex in lister_set:
        plans[vertex].is_lister = True
        plans[vertex].expected_replies = len(adjacency[vertex])
    for vertex in comm_graph.nodes:
        plans[vertex].expected_announcements = sum(
            1 for u in adjacency[vertex] if u in lister_set
        )
    return ClusterProtocolPlan(
        graph=comm_graph, plans=plans, p=p, listers=len(lister_set)
    )


def _bfs_tree(graph: nx.Graph, root: int) -> tuple[dict[int, int], dict[int, int]]:
    """Parent pointers (toward ``root``) and hop depths of a BFS tree."""
    parents: dict[int, int] = {root: root}
    depths: dict[int, int] = {root: 0}
    queue = deque([root])
    while queue:
        current = queue.popleft()
        for neighbor in sorted(graph.neighbors(current)):
            if neighbor not in parents:
                parents[neighbor] = current
                depths[neighbor] = depths[current] + 1
                queue.append(neighbor)
    return parents, depths


def add_edge_learning(
    plan: ClusterProtocolPlan, owner_edges: dict[int, set[Edge]]
) -> None:
    """Compile per-owner edge demands into routed packets.

    Each demanded edge is injected by one of its endpoints and forwarded
    hop-by-hop along the BFS shortest path to the owner inside the plan's
    communication graph.  The path is appended to the plan's flat routes,
    and every vertex on it gets its inject, relay or receive count, so all
    vertices can halt locally.
    """
    comm = plan.graph
    plans = plan.plans
    index = {v: i for i, v in enumerate(comm.nodes)}
    base = int(plan.route_hops.size)
    hops: list[int] = []
    ends: list[int] = []
    edges: list[int] = []
    for owner in sorted(owner_edges):
        demands = {_canonical(*e) for e in owner_edges[owner]}
        if not demands:
            continue
        parents, depths = _bfs_tree(comm, owner)
        for u, w in sorted(demands):
            if owner in (u, w):
                plans[owner].preloaded_edges.append((u, w))
                continue
            if u not in parents and w not in parents:
                raise ValueError(
                    f"edge ({u}, {w}) unreachable from owner {owner} in the "
                    "cluster working graph"
                )
            # The endpoint closer to the owner injects (shorter route).
            if u in parents and (w not in parents or depths[u] <= depths[w]):
                step = u
            else:
                step = w
            hops.append(index[step])
            while step != owner:
                step = parents[step]
                hops.append(index[step])
            ends.append(base + len(hops))
            edges += (index[u], index[w])
    if not ends:
        return
    new_hops = np.array(hops, dtype=np.int64)
    new_ends = np.array(ends, dtype=np.int64)
    starts = new_ends - base - np.diff(new_ends, prepend=base)
    n = len(index)
    sources = np.bincount(new_hops[starts], minlength=n)
    owners = np.bincount(new_hops[new_ends - base - 1], minlength=n)
    relays = np.bincount(new_hops, minlength=n) - sources - owners
    nodes = list(index)
    for vertex_id in np.flatnonzero(sources + owners + relays).tolist():
        vertex_plan = plans[nodes[vertex_id]]
        vertex_plan.injects += int(sources[vertex_id])
        vertex_plan.expected_relays += int(relays[vertex_id])
        vertex_plan.expected_edges += int(owners[vertex_id])
    plan.route_hops = np.concatenate((plan.route_hops, new_hops))
    plan.route_ends = np.concatenate((plan.route_ends, new_ends))
    plan.route_edges = np.concatenate(
        (plan.route_edges, np.array(edges, dtype=np.int64).reshape(-1, 2))
    )
    plan.demands += len(ends)


# ---------------------------------------------------------------------------
# Execution records and results
# ---------------------------------------------------------------------------


@dataclass
class ClusterExecution:
    """One engine execution (a cluster's listing run, or the fallback pass).

    ``predicted_rounds`` is what the cost-model accountant charges for the
    same work (including the centrally performed preprocessing — tree
    construction and routing overheads); ``rounds`` is what the engine
    measured for the messages actually exchanged.
    """

    level: int
    cluster_index: int
    vertices: int
    edges: int
    listers: int
    demands: int
    rounds: int
    messages: int
    words: int
    predicted_rounds: int
    halted: bool

    @property
    def is_fallback(self) -> bool:
        return self.cluster_index < 0


@dataclass
class DistributedListingResult(ListingResult):
    """A :class:`ListingResult` produced by real engine executions.

    In addition to the driver-level accounting (``rounds`` mixes measured
    cluster executions with the charged decomposition cost), the result
    carries the raw per-execution records so measured and predicted costs
    can be compared:

    Attributes:
        executions: one record per engine execution.
        backend: registry name of the backend the clusters ran on.
        scenario: description of the delivery scenario.
    """

    executions: list[ClusterExecution] = field(default_factory=list)
    backend: str = "reference"
    scenario: str = "CleanSynchronous"

    def _per_level(self, attribute: str) -> int:
        """Sum over levels of the max per-level value (+ fallback passes)."""
        per_level: dict[int, int] = {}
        fallback_total = 0
        for record in self.executions:
            value = getattr(record, attribute)
            if record.is_fallback:
                fallback_total += value
            else:
                per_level[record.level] = max(per_level.get(record.level, 0), value)
        return sum(per_level.values()) + fallback_total

    @property
    def measured_rounds(self) -> int:
        """Engine-measured parallel round total (max per level + fallback)."""
        return self._per_level("rounds")

    @property
    def measured_words(self) -> int:
        """Total words that crossed edges over all executions."""
        return sum(record.words for record in self.executions)

    @property
    def measured_messages(self) -> int:
        return sum(record.messages for record in self.executions)

    @property
    def predicted_cluster_rounds(self) -> int:
        """Cost-model prediction for the per-cluster work (same shape)."""
        return self._per_level("predicted_rounds")

    @property
    def predicted_rounds(self) -> int:
        """Full cost-model prediction: cluster work plus decomposition."""
        decomposition = sum(
            report.decomposition_rounds for report in self.level_reports
        )
        return self.predicted_cluster_rounds + decomposition


# ---------------------------------------------------------------------------
# The distributed driver
# ---------------------------------------------------------------------------


@dataclass
class DistributedListingDriver:
    """Runs the Theorem 32/36 recursion with engine-executed clusters.

    Attributes:
        p: clique size (3 uses the full Lemma 34 pipeline; >= 4 uses the
            exhaustive-core protocol, see the module docstring).
        backend: engine backend (name, instance, or class) every cluster
            execution runs on.
        scenario: delivery scenario shared by all executions (``None`` is
            the clean synchronous model).
        epsilon: expander-decomposition remainder parameter.
        overhead: routing-overhead model used for the *predicted* costs.
        max_levels: recursion depth cap (driver default when ``None``).
        max_rounds_per_execution: safety cap per engine execution; a
            protocol that fails to terminate within it raises.
        check_tree_constraints: validate partition trees (slow; tests).
        session: the :class:`~repro.experiments.Session` every per-cluster
            engine execution routes through (a private one when ``None``).
    """

    p: int = 3
    backend: Backend | type[Backend] | str | None = "vectorized"
    scenario: DeliveryScenario | str | None = None
    epsilon: float = 1.0 / 18.0
    overhead: RoutingOverhead | None = None
    max_levels: int | None = None
    max_rounds_per_execution: int = 200_000
    check_tree_constraints: bool = False
    session: Session | None = None

    def run(self, graph: nx.Graph) -> DistributedListingResult:
        """Execute the full recursive listing pipeline on the engine.

        Raises:
            ValueError: when the scenario crashes or corrupts vertices.  The
                Lemma 34 protocol has no fault tolerance: every vertex waits
                for each reply its plan expects, so it takes delivery
                scenarios only.
        """
        self._scenario = (
            None if self.scenario is None else resolve_scenario(self.scenario)
        )
        if self._scenario is not None and self._scenario.has_vertex_faults:
            raise ValueError(
                "distributed listing takes delivery scenarios only; "
                f"{self._scenario.describe()} crashes or corrupts vertices, "
                "and the listing protocol waits for every reply it expects"
            )
        self._session = (
            self.session if self.session is not None
            else Session(name="distributed-listing")
        )
        self._backend = resolve_backend(self.backend)
        self._executions: list[ClusterExecution] = []
        self._triangle = TriangleListing(
            epsilon=self.epsilon,
            overhead=self.overhead,
            max_levels=self.max_levels,
            check_tree_constraints=self.check_tree_constraints,
        )
        driver = RecursiveListingDriver(
            p=self.p,
            epsilon=self.epsilon,
            overhead=self.overhead,
            max_levels=self.max_levels,
        )
        result = driver.run(graph, self._handle_cluster, fallback=self._fallback)
        return DistributedListingResult(
            cliques=result.cliques,
            p=result.p,
            rounds=result.rounds,
            levels=result.levels,
            metrics=result.metrics,
            level_reports=result.level_reports,
            reports=result.reports,
            fallback_edges=result.fallback_edges,
            executions=self._executions,
            backend=self._backend.name,
            scenario=(
                "CleanSynchronous"
                if self._scenario is None
                else self._scenario.describe()
            ),
        )

    # -- per-cluster execution -------------------------------------------------

    def _handle_cluster(self, task: ClusterTask) -> set[Clique]:
        if self.p == 3:
            blueprint, predicted = self._triangle.predict_cluster_cost(task)
            plan = plan_two_hop_protocol(blueprint.working, blueprint.listers, p=3)
            add_edge_learning(plan, blueprint.owner_edges)
        else:
            plan, predicted = self._plan_kp_cluster(task)
        return self._execute(
            plan,
            accountant=task.accountant,
            level=task.level,
            cluster_index=task.cluster_index,
            predicted_rounds=predicted.metrics.rounds,
            phase=f"level{task.level}-c{task.cluster_index}:engine",
        )

    def _plan_kp_cluster(
        self, task: ClusterTask
    ) -> tuple[ClusterProtocolPlan, CostAccountant]:
        """Lemma 41-style exhaustive pass over all core vertices (p >= 4).

        Every clique containing a residual edge between two core vertices
        has a core endpoint, which lists it from its full-graph 2-hop
        view.
        """
        return self._plan_exhaustive_pass(
            task.graph, sorted(task.core), self.p,
            phase=f"level{task.level}-c{task.cluster_index}:core-exhaustive",
        )

    # -- fallback ----------------------------------------------------------------

    def _fallback(
        self,
        graph: nx.Graph,
        residual: set[Edge],
        p: int,
        accountant: CostAccountant,
    ) -> set[Clique]:
        """Engine-executed safety net over the residual edges.

        Output-equivalent to :func:`repro.listing.recursion.exhaustive_fallback`:
        the residual endpoints learn their induced 2-hop neighbourhood in
        ``G`` and list every clique through themselves.
        """
        endpoints = sorted({u for e in residual for u in e})
        plan, predicted = self._plan_exhaustive_pass(
            graph, endpoints, p, phase="fallback-exhaustive"
        )
        return self._execute(
            plan,
            accountant=accountant,
            level=-1,
            cluster_index=-1,
            predicted_rounds=predicted.metrics.rounds,
            phase="fallback-exhaustive:engine",
        )

    # -- shared execution path ---------------------------------------------------

    def _plan_exhaustive_pass(
        self, graph: nx.Graph, listers: list[Hashable], p: int, phase: str
    ) -> tuple[ClusterProtocolPlan, CostAccountant]:
        """Plan and cost one exhaustive pass in which ``listers`` list every
        ``K_p`` through themselves from their 2-hop view of ``graph``.

        The communication graph is the subgraph induced on the listers'
        closed neighbourhood, which contains that view; the prediction is
        :func:`charge_exhaustive_pass` with alpha the largest lister degree,
        charged to ``phase`` of a fresh accountant.
        """
        closure = set(listers)
        for vertex in listers:
            closure.update(graph.neighbors(vertex))
        plan = plan_two_hop_protocol(
            nx.Graph(graph.subgraph(closure)), listers, p=p
        )
        predicted = self._new_accountant(graph.number_of_nodes())
        alpha = max((graph.degree(v) for v in listers), default=1)
        charge_exhaustive_pass(graph, listers, max(1, alpha), predicted, phase=phase)
        return plan, predicted

    def _new_accountant(self, n: int) -> CostAccountant:
        return CostAccountant(
            n=n,
            overhead=self.overhead if self.overhead is not None else polylog_overhead(),
            metrics=CongestMetrics(),
        )

    def _execute(
        self,
        plan: ClusterProtocolPlan,
        accountant: CostAccountant,
        level: int,
        cluster_index: int,
        predicted_rounds: int,
        phase: str,
    ) -> set[Clique]:
        run = self._session.execute(
            plan.graph,
            plan.factory(),
            backend=self._backend,
            scenario=self._scenario,
            max_rounds=self.max_rounds_per_execution,
            phase=phase,
        )
        if not run.halted:
            raise RuntimeError(
                f"distributed listing protocol did not terminate within "
                f"{self.max_rounds_per_execution} rounds ({phase})"
            )
        # Fold the measured execution into the recursion's accounting: the
        # driver takes the per-level max of these (clusters run in parallel).
        accountant.local_rounds(run.rounds, phase=phase)
        accountant.metrics.add_messages(
            run.metrics.messages, phase=phase, words=run.metrics.words
        )
        self._executions.append(
            ClusterExecution(
                level=level,
                cluster_index=cluster_index,
                vertices=plan.graph.number_of_nodes(),
                edges=plan.graph.number_of_edges(),
                listers=plan.listers,
                demands=plan.demands,
                rounds=run.rounds,
                messages=run.metrics.messages,
                words=run.metrics.words,
                predicted_rounds=predicted_rounds,
                halted=run.halted,
            )
        )
        return run.combined_output()


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def list_triangles_distributed(
    graph: nx.Graph,
    backend: Backend | type[Backend] | str | None = "vectorized",
    scenario: DeliveryScenario | str | None = None,
    **kwargs,
) -> DistributedListingResult:
    """Theorem 32 triangle listing, executed per-vertex on the engine."""
    driver = DistributedListingDriver(
        p=3, backend=backend, scenario=scenario, **kwargs
    )
    return driver.run(graph)


def list_cliques_distributed(
    graph: nx.Graph,
    p: int,
    backend: Backend | type[Backend] | str | None = "vectorized",
    scenario: DeliveryScenario | str | None = None,
    **kwargs,
) -> DistributedListingResult:
    """``K_p`` listing executed on the engine (Lemma 41 protocol for p >= 4)."""
    if p < 3:
        raise ValueError("clique size must be at least 3")
    driver = DistributedListingDriver(
        p=p, backend=backend, scenario=scenario, **kwargs
    )
    return driver.run(graph)
