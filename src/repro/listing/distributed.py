"""Distributed execution of the recursive listing pipeline (Theorems 32/36).

This module is the bridge between the paper's listing algorithms and the
pluggable execution engine (:mod:`repro.engine`): instead of *charging* a
cost model for the communication each cluster performs, it *executes* the
per-cluster work as an actual CONGEST algorithm through
:meth:`repro.experiments.Session.execute`, on any backend (reference /
vectorized) and under any delivery scenario (clean / link-drop /
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
  graph, under the model's one-word-per-edge bandwidth constraint.  The
  paths are chosen by load (:mod:`repro.listing.routing`), the stand-in for
  the paper's Theorem 6 routing: a run takes about as many rounds as the
  words on its busiest directed edge.

Both protocols are compiled into one :class:`ClusterProtocolPlan` per
execution.  A plan is arrays over one numbering: the communication graph's
:class:`~repro.graphs.index.LabelCSR` numbers its vertices in label order.
The engine runs on that index, so its ids are the engine's dense ids and its
CSR slots the engine's directed-edge ids; per-vertex code runs on the
index's ``networkx`` graph, built in the same order when such a run starts.
Per vertex the plan keeps a lister flag and the four counts it waits for
(announcements, replies, relays, received packets); per demand a flat route
of dense ids.
:func:`plan_two_hop_protocol` derives the counts with one sparse product,
and :func:`add_edge_learning` routes each packet along a shortest path
picked by the words already on every directed edge
(:meth:`ClusterProtocolPlan.edge_words`).  The plan's
:meth:`~ClusterProtocolPlan.factory` is a plan-bound
:class:`ListingVector`.  The vectorized backend steps each cluster as that
one :class:`~repro.engine.vector.VectorAlgorithm`: every vertex once per
round, on arrays, with no per-message Python work.  The reference backend
runs its ``per_vertex`` twin, :class:`ListingVertex`, which
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

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from typing import Hashable, Iterable

import networkx as nx
import numpy as np

from repro.congest.cost import CostAccountant, RoutingOverhead, polylog_overhead
from repro.congest.message import Message, words_for_payload
from repro.congest.metrics import CongestMetrics
from repro.congest.network import TableOutputs
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
from repro.graphs.index import LabelCSR, unique_triples
from repro.listing.local import charge_exhaustive_pass, cliques_through_vertex
from repro.listing.recursion import (
    ClusterTask,
    ListingResult,
    RecursiveListingDriver,
)
from repro.listing.routing import route_by_load
from repro.listing.triangles import TriangleListing

Edge = tuple[int, int]


# ---------------------------------------------------------------------------
# Compiled protocol plans
# ---------------------------------------------------------------------------


# Columns of a plan's per-vertex counts, and of ListingVector's counters.
_ANSWERED, _REPLIES, _RELAYED, _RECEIVED = range(4)


def _no_routes(*shape: int) -> np.ndarray:
    return np.empty(shape or (0,), dtype=np.int64)


@dataclass
class ClusterProtocolPlan:
    """A compiled per-cluster protocol: topology, per-vertex counts, routes.

    Arrays are indexed by the dense ids of :attr:`index` (label order),
    which are also the engine's dense ids: the engine runs on the index.

    Attributes:
        index: the communication graph (the cluster's working graph, or the
            induced residual neighbourhood for exhaustive passes).
        p: clique size.
        lister: ``bool[n]`` — the vertex runs the 2-hop exhaustive pass: it
            announces its sorted adjacency list to every neighbour in round 0.
        counts: ``int64[n, 4]`` — what each vertex waits for before it
            halts: announcements to answer (its lister neighbours), replies
            to collect (a lister's degree), packets to relay and packets to
            receive as an owner.
        route_slots: every demand's route, the CSR slots of :attr:`index`
            it crosses from the injecting endpoint to the owner,
            concatenated in demand order.  Slot ``s`` leaves
            ``index.rows[s]`` for ``index.indices[s]``.
        route_ends: ``route_ends[d]`` is where demand ``d``'s route ends
            (exclusive) in ``route_slots``.
        route_edges: ``int64[demands, 2]`` — the demanded edge ``(u, w)``
            of each demand, ``u`` the smaller label.
        preloaded: ``int64[k, 3]`` — ``(owner, u, w)`` for each demanded
            edge incident to its owner, which knows it without communication.
    """

    index: LabelCSR
    p: int
    lister: np.ndarray
    counts: np.ndarray
    route_slots: np.ndarray = field(default_factory=_no_routes)
    route_ends: np.ndarray = field(default_factory=_no_routes)
    route_edges: np.ndarray = field(default_factory=lambda: _no_routes(0, 2))
    preloaded: np.ndarray = field(default_factory=lambda: _no_routes(0, 3))

    @property
    def listers(self) -> int:
        """Number of vertices running the 2-hop exhaustive pass."""
        return int(self.lister.sum())

    @property
    def demands(self) -> int:
        """Number of routed edge-learning packets."""
        return int(self.route_ends.size)

    @property
    def route_starts(self) -> np.ndarray:
        """Where each demand's route starts in ``route_slots``."""
        return self.route_ends - np.diff(self.route_ends, prepend=0)

    def idle(self) -> np.ndarray:
        """``bool[n]``: vertices that neither send nor expect anything."""
        sources = self.index.rows[self.route_slots[self.route_starts]]
        injects = np.bincount(sources, minlength=self.index.n)
        return ~(self.lister | (injects > 0) | self.counts.any(axis=1))

    def factory(self) -> type["ListingVector"]:
        """The plan-bound :class:`ListingVector` class to hand the engine.

        The vectorized backend steps it on arrays; every other backend runs
        its ``per_vertex`` twin, one :class:`ListingVertex` per vertex.
        """
        return type(
            "PlannedListingVector",
            (ListingVector,),
            {"plan": self, "per_vertex": staticmethod(partial(ListingVertex, plan=self))},
        )

    @cached_property
    def label_words(self) -> np.ndarray:
        """``int64[n]``: the words each vertex label costs in a payload."""
        index = self.index
        if all(type(v) is int for v in index.labels):
            return np.ones(index.n, dtype=np.int64)
        return np.fromiter(
            (words_for_payload(v, index.n) for v in index.labels),
            dtype=np.int64,
            count=index.n,
        )

    @cached_property
    def exchange_words(self) -> tuple[np.ndarray, np.ndarray]:
        """``(announce, reply)``, ``int64[2m]`` by CSR slot ``a -> b``: the
        words of lister ``a``'s announcement to ``b`` and of ``b``'s reply,
        which travels back on the reverse slot; zero where ``a`` does not
        list.  An announcement is one word plus ``a``'s neighbours' labels,
        a reply one word plus the labels the pair has in common: an entry of
        ``A[listers] · diag(label_words) · A``."""
        index = self.index
        announce = np.zeros(index.indices.size, dtype=np.int64)
        reply = np.zeros(index.indices.size, dtype=np.int64)
        slots = np.flatnonzero(self.lister[index.rows])
        if slots.size:
            announcers, answerers = index.rows[slots], index.indices[slots]
            adjacency = index.matrix
            announce[slots] = 1 + (adjacency @ self.label_words)[announcers]
            listers = np.flatnonzero(self.lister)
            common = adjacency[listers].multiply(self.label_words).tocsr() @ adjacency
            at = np.searchsorted(listers, announcers)
            reply[slots] = 1 + np.asarray(common[at, answerers]).ravel()
        return announce, reply

    def packet_words(self, edges: np.ndarray) -> np.ndarray:
        """Words of the packets that carry ``edges`` (``int64[k, 2]`` ids):
        the twin's ``(demand, u, w)`` payload."""
        return 2 + self.label_words[edges].sum(axis=1)

    def hop_words(self) -> np.ndarray:
        """Per position of ``route_slots``, the words of its route's packet."""
        return np.repeat(
            self.packet_words(self.route_edges), np.diff(self.route_ends, prepend=0)
        )

    def edge_words(self) -> np.ndarray:
        """``int64[2m]``: the words each directed edge carries, by CSR slot.

        Announcements, replies and routed packets, on the edge they cross;
        the sum is the run's measured words, and the busiest edge is a lower
        bound on its rounds (one word per edge per round).
        """
        announce, reply = self.exchange_words
        routed = np.bincount(self.route_slots, weights=self.hop_words(), minlength=announce.size)
        return announce + reply[self.index.reverse] + routed.astype(np.int64)

    @cached_property
    def packet_tables(self) -> tuple[dict, dict, dict]:
        """The twin's per-vertex tables, keyed by label.

        ``inject[v]`` lists the ``(demand, u, w, first_hop)`` packets ``v``
        originates, in demand order; ``forward[v]`` maps each demand ``v``
        relays to its next hop; ``preloaded[v]`` lists the demanded edges
        ``v`` owns and is an endpoint of.
        """
        index, labels = self.index, self.index.labels
        senders, receivers = (
            [labels[i] for i in ends[self.route_slots].tolist()]
            for ends in (index.rows, index.indices)
        )
        inject: dict[Hashable, list] = defaultdict(list)
        forward: dict[Hashable, dict[int, Hashable]] = defaultdict(dict)
        preloaded: dict[Hashable, list[Edge]] = defaultdict(list)
        start = 0
        for demand, ((u, w), end) in enumerate(
            zip(self.route_edges.tolist(), self.route_ends.tolist())
        ):
            inject[senders[start]].append((demand, labels[u], labels[w], receivers[start]))
            for position in range(start + 1, end):
                forward[senders[position]][demand] = receivers[position]
            start = end
        for owner, u, w in self.preloaded.tolist():
            preloaded[labels[owner]].append((labels[u], labels[w]))
        return inject, forward, preloaded


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
      edges, as ids of the plan's index, with the kernel
      :func:`~repro.graphs.cliques.cliques_in_edge_set`.

    Expected message counts are part of the plan, so every vertex can halt
    locally the moment its counters are met — there is no global
    termination detection, matching the CONGEST model.  A vertex reads its
    own row of the plan's arrays.  This is the ``per_vertex`` twin of
    :class:`ListingVector`.
    """

    def __init__(self, vertex, neighbors, n, plan: ClusterProtocolPlan):
        super().__init__(vertex, neighbors, n)
        vertex_id = plan.index.id_of[vertex]
        inject, forward, preloaded = plan.packet_tables
        self._p = plan.p
        self._index = plan.index
        self._is_lister = bool(plan.lister[vertex_id])
        self._need = plan.counts[vertex_id].tolist()
        self._got = [0] * len(self._need)
        self._inject = inject.get(vertex, ())
        self._forward = forward.get(vertex, {})
        self._neighbor_set = set(self.neighbors)
        self._replies: dict[Hashable, tuple] = {}
        self._edges: set[Edge] = set(preloaded.get(vertex, ()))
        self._initial_sent = False
        self.output: set[Clique] = set()
        if not (self._is_lister or self._inject or any(self._need)):
            self._finish()

    # -- protocol rounds -----------------------------------------------------

    def on_round(self, round_index: int, inbox: list[Message]) -> list[Message]:
        outgoing: list[Message] = []
        for message in inbox:
            if message.tag == "adj":
                self._got[_ANSWERED] += 1
                hits = tuple(filter(self._neighbor_set.__contains__, message.payload))
                outgoing.append(self.send(message.sender, "hits", hits))
            elif message.tag == "hits":
                self._got[_REPLIES] += 1
                self._replies[message.sender] = message.payload
            elif message.tag == "edge":
                demand_id, u, w = message.payload
                next_hop = self._forward.get(demand_id)
                if next_hop is None:
                    self._got[_RECEIVED] += 1
                    self._edges.add((u, w))
                else:
                    self._got[_RELAYED] += 1
                    outgoing.append(self.send(next_hop, "edge", (demand_id, u, w)))
        if not self._initial_sent:
            self._initial_sent = True
            if self._is_lister:
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
        return self._initial_sent and all(
            got >= need for got, need in zip(self._got, self._need)
        )

    def _finish(self) -> None:
        if self.halted:
            return
        found: set[Clique] = set()
        if self._is_lister:
            # The induced neighbourhood: each neighbour reported the lister's
            # neighbours it is adjacent to, so ``w`` is in ``u``'s reply
            # exactly when ``u`` is in ``w``'s.
            view = {u: {self.vertex, *hits} for u, hits in self._replies.items()}
            view[self.vertex] = set(self.neighbors)
            found = cliques_through_vertex(view, self.vertex, self._p)
        if self._edges:
            ends = self._index.ids(chain.from_iterable(self._edges))
            rows = cliques_in_edge_set(ends[0::2], ends[1::2], self._p)
            found |= set(self._index.label_rows(rows))
        self.output = found
        self.halt()


# Message kinds of the array path: a delivered value is ``ident << 2 | kind``.
_ADJ, _HITS, _EDGE = 0, 1, 2


class ListingVector(VectorAlgorithm):
    """The Lemma 34 cluster protocol, every vertex stepped once per round.

    The array form of :class:`ListingVertex` (its ``per_vertex`` twin): the
    same messages with the same word costs, sent in the same order, and
    the same halting rule.  :meth:`ClusterProtocolPlan.factory` binds it to
    a plan.  A message's value is a handle ``ident << 2 | kind`` into the
    plan's tables, and its ``words`` are the twin's payload size:

    * ``adj`` (``ident``: the announcement) costs one word plus the
      lister's labels; the receiver answers ``hits``, costing one word plus
      the labels the pair has in common, a label-weighted common-neighbour
      count on the plan's index;
    * ``hits`` is counted by the lister;
    * ``edge`` (``ident``: the receiver's position in the plan's flat
      routes) costs the twin's ``(demand, u, w)`` words; a relay forwards
      it one position on, the route's owner counts it.

    Round 0 sends every announcement and injects every packet; later rounds
    only answer the inbox.  Sends leave in the twin's order — by sender in
    dense-id order, and within a sender replies in inbox order, then
    announcements (neighbours in label order, which is CSR order), then
    injects — so every per-edge FIFO, and with it every completion round,
    matches.  A vertex halts once its counters meet the plan's counts.

    Outputs are listed once per execution, when the engine first asks for
    them, in at most two passes of the kernel :func:`cliques_in_edge_set`:
    one over the plan's index, whose every ``K_p`` goes to each lister in it
    (a halted lister has heard every reply, so it knows them all), and one
    over every owner's edges at once.  :meth:`outputs` keeps each clique
    once, in a :class:`~repro.congest.network.TableOutputs`.

    Every send is booked on its CSR slot of the plan's index, so the class
    runs on that index only: on any other topology, the index's own
    ``networkx`` graph included, it raises ``ValueError``.
    """

    plan: ClusterProtocolPlan

    def __init__(self, topology: VectorTopology):
        super().__init__(topology)
        plan = self.plan
        index = plan.index
        if topology.slot_keys is not index.slot_keys:
            raise ValueError(
                "this ListingVector is bound to a plan over another graph; "
                "run it on its plan's index (plan.index)"
            )
        self._got = np.zeros((index.n, 4), dtype=np.int64)

        # Announcements: one per CSR slot of a lister, answered on its reverse.
        slots = np.flatnonzero(plan.lister[index.rows])
        announcers, answerers = index.rows[slots], index.indices[slots]
        announce_words, reply_words = plan.exchange_words
        self._hits_words = reply_words[slots]
        self._hits_edges = index.reverse[slots]

        # Edge packets: one flat route of slots per demand; a packet's value
        # is the position of the slot it crosses.
        route, ends, starts = plan.route_slots, plan.route_ends, plan.route_starts
        self._hop_words = plan.hop_words()
        self._hop_is_end = np.zeros(route.size, dtype=bool)
        self._hop_is_end[ends - 1] = True
        # Every owner's edges, ``(owner, u, w)``: preloaded, then routed.
        self._known = np.concatenate(
            (plan.preloaded, np.column_stack((index.indices[route[ends - 1]], plan.route_edges)))
        )

        # Round 0: announcements, then injects (on_round groups by sender).
        first = route[starts]
        initial = (
            np.concatenate((announcers, index.rows[first])),
            np.concatenate((answerers, index.indices[first])),
            np.concatenate(
                ((np.arange(slots.size) << 2) | _ADJ, (starts << 2) | _EDGE)
            ),
            np.concatenate((announce_words[slots], self._hop_words[starts])),
            np.concatenate((slots, first)),
        )
        self._initial: tuple[np.ndarray, ...] | None = initial

        self.halted |= plan.idle()

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
        complete = (self._got[candidates] >= self.plan.counts[candidates]).all(axis=1)
        self.halted[candidates[complete]] = True
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
        slot = self.plan.route_slots[hop]
        out_receivers[relay] = self.plan.index.indices[slot]
        out_values[relay] = (hop << 2) | _EDGE
        out_words[relay] = self._hop_words[hop]
        out_edges[relay] = slot
        return (receivers[rows], *out)

    @cached_property
    def _listed(self) -> tuple[list[Clique], np.ndarray, np.ndarray]:
        """``(cliques, vertex, entry)``: once halted, vertex ``vertex[j]``
        lists ``cliques[entry[j]]``.  The kernel is called here as this
        module's ``cliques_in_edge_set``, the name perfbench's probe times."""
        plan, index, known = self.plan, self.plan.index, self._known
        n, lister = index.n, plan.lister
        rows = owned = np.empty((0, plan.p), dtype=np.int64)
        owners = np.empty(0, dtype=np.int64)
        if plan.p == 1:  # a lister is its own K_1, isolated or not
            rows = np.flatnonzero(lister)[:, None]
        elif lister.any():
            rows = cliques_in_edge_set(index.rows, index.indices, plan.p)
            rows = rows[lister[rows].any(axis=1)]
        if known.size:  # owner ``o``'s vertex ``v`` is ``o * n + v``
            base = known[:, 0] * n
            owners, owned = np.divmod(
                cliques_in_edge_set(base + known[:, 1], base + known[:, 2], plan.p), n
            )
            owners = owners[:, 0]
        at, column = np.nonzero(lister[rows])
        return (
            index.label_rows(np.concatenate((rows, owned))),
            np.concatenate((rows[at, column], owners)),
            np.concatenate((at, len(rows) + np.arange(len(owned)))),
        )

    def outputs(self) -> TableOutputs:
        cliques, vertex, entry = self._listed
        halted = self.halted[vertex]
        return TableOutputs(self.topology.nodes, cliques, vertex[halted], entry[halted])


# ---------------------------------------------------------------------------
# Compiling plans
# ---------------------------------------------------------------------------


def plan_two_hop_protocol(
    index: LabelCSR, listers: Iterable[Hashable], p: int
) -> ClusterProtocolPlan:
    """Compile the Lemma 35 announce/reply protocol over ``index``.

    ``index`` must equal the graph the cliques are listed in: for cluster
    executions it is the working graph, for fallback passes the subgraph of
    ``G`` induced on the listers' closed neighbourhood (which contains every
    edge a lister's 2-hop view can mention).  The engine runs on it.
    ``listers`` are labels of ``index``; one it lacks raises ``KeyError``.
    """
    lister = np.zeros(index.n, dtype=bool)
    lister[index.ids(listers)] = True
    counts = np.zeros((index.n, 4), dtype=np.int64)
    counts[:, _ANSWERED] = index.matrix @ lister.astype(np.int64)
    counts[lister, _REPLIES] = index.degrees[lister]
    return ClusterProtocolPlan(index=index, p=p, lister=lister, counts=counts)


def add_edge_learning(plan: ClusterProtocolPlan, rows: np.ndarray) -> None:
    """Compile edge demands into routed packets.

    ``rows`` are ``(owner, u, w)`` ids of the plan's index: ``owner`` must
    learn the edge ``u``-``w`` (either orientation; repeats are dropped).
    Demands are taken in (owner, edge) id order, which is label order.  An
    edge incident to its owner is preloaded.  Any other is injected by an
    endpoint of minimum distance to the owner and forwarded along a shortest
    path in the plan's communication graph;
    :func:`~repro.listing.routing.route_by_load` picks the endpoint on a tie
    and each next hop by the words already on every directed edge
    (:meth:`ClusterProtocolPlan.edge_words`).  The route is appended to the
    plan's flat routes, and every vertex on it gets its relay or receive
    count, so all vertices can halt locally.
    """
    index = plan.index
    n = index.n
    owners, us, ws = np.asarray(rows, dtype=np.int64).reshape(-1, 3).T
    # One key per demand, with u < w: its distinct rows, in (owner, u, w) order.
    demands = unique_triples((owners * n + np.minimum(us, ws)) * n + np.maximum(us, ws), n)
    own = (demands[:, 0] == demands[:, 1]) | (demands[:, 0] == demands[:, 2])
    plan.preloaded = np.concatenate((plan.preloaded, demands[own]))
    owners, us, ws = demands[~own].T
    if not owners.size:
        return
    edges = demands[~own, 1:]
    words = plan.packet_words(edges)
    slots, lengths = route_by_load(index, owners, us, ws, words, plan.edge_words())
    received = np.bincount(owners, minlength=n)
    plan.counts[:, _RELAYED] += np.bincount(index.indices[slots], minlength=n) - received
    plan.counts[:, _RECEIVED] += received
    plan.route_ends = np.append(plan.route_ends, plan.route_slots.size + np.cumsum(lengths))
    plan.route_slots = np.concatenate((plan.route_slots, slots))
    plan.route_edges = np.concatenate((plan.route_edges, edges))


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
            plan = plan_two_hop_protocol(
                blueprint.cluster.index, blueprint.listers, p=3
            )
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
            task.index, task.core, self.p,
            phase=f"level{task.level}-c{task.cluster_index}:core-exhaustive",
        )

    # -- fallback ----------------------------------------------------------------

    def _fallback(
        self,
        graph: nx.Graph,
        index: LabelCSR,
        endpoints: np.ndarray,
        p: int,
        accountant: CostAccountant,
    ) -> set[Clique]:
        """Engine-executed safety net over the residual edges.

        Output-equivalent to :func:`repro.listing.recursion.exhaustive_fallback`:
        the residual edges' ``endpoints`` (ids of ``index``) learn their
        induced 2-hop neighbourhood in ``G`` and list every clique through
        themselves.
        """
        plan, predicted = self._plan_exhaustive_pass(
            index, endpoints, p, phase="fallback-exhaustive"
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
        self, index: LabelCSR, listers: np.ndarray, p: int, phase: str
    ) -> tuple[ClusterProtocolPlan, CostAccountant]:
        """Plan and cost one exhaustive pass in which ``listers`` (ids of the
        run's ``index`` of ``G``) list every ``K_p`` through themselves.

        The communication graph is ``index`` induced on the listers' closed
        neighbourhood, which contains their 2-hop views; the prediction is
        :func:`charge_exhaustive_pass` with alpha the largest lister degree,
        charged to ``phase`` of a fresh accountant.
        """
        closure = np.union1d(listers, index.matrix[listers].indices)
        labels = index.label_array[listers].tolist()
        plan = plan_two_hop_protocol(index.induced(closure), labels, p=p)
        predicted = CostAccountant(
            n=index.n,
            overhead=self.overhead if self.overhead is not None else polylog_overhead(),
            metrics=CongestMetrics(),
        )
        degrees = index.degrees[listers]
        charge_exhaustive_pass(degrees, int(degrees.max(initial=1)), predicted, phase=phase)
        return plan, predicted

    def _execute(
        self,
        plan: ClusterProtocolPlan,
        accountant: CostAccountant,
        level: int,
        cluster_index: int,
        predicted_rounds: int,
        phase: str,
    ) -> set[Clique]:
        # Positional: perfbench's probe reads the topology as ``args[1]``.
        run = self._session.execute(
            plan.index,
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
                vertices=plan.index.n,
                edges=plan.index.number_of_edges(),
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
