"""Distributed execution of the recursive listing pipeline (Theorems 32/36).

This module is the bridge between the paper's listing algorithms and the
pluggable execution engine (:mod:`repro.engine`): instead of *charging* a
cost model for the communication each cluster performs, it *executes* the
per-cluster work as an actual per-vertex CONGEST algorithm through
:func:`repro.engine.runner.run_algorithm`, on any backend (reference /
vectorized / sharded) and under any delivery scenario (clean / link-drop /
adversarial-delay).

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

Centralized preprocessing
-------------------------

As in the paper, some machinery is a black box the algorithm *uses* rather
than communicates for: the expander decomposition (Theorem 5, [CS20]) and
the K3-partition-tree construction (Theorem 16, via the Theorem 11
streaming simulation).  The orchestrator computes these centrally and
installs their outcome into the per-vertex plans (adjacency announcements,
forwarding tables, expected message counts) — the distributed analogue of
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

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Iterable

import networkx as nx

from repro.congest.cost import CostAccountant, RoutingOverhead, polylog_overhead
from repro.congest.message import Message
from repro.congest.metrics import CongestMetrics
from repro.congest.vertex import VertexAlgorithm
from repro.engine.backend import Backend
from repro.engine.runner import resolve_backend
from repro.engine.scenarios import DeliveryScenario, resolve_scenario
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
        announce: the adjacency list this vertex announces in round 0
            (``None`` when the vertex is not a lister).
        expected_announcements: number of lister neighbours whose
            announcements this vertex must answer.
        expected_replies: number of adjacency replies a lister waits for
            (its communication degree).
        inject: edge-learning packets this vertex originates in round 0,
            as ``(demand_id, u, w, first_hop)`` tuples.
        forward: forwarding table ``demand_id -> next hop`` for packets
            this vertex relays.
        expected_relays: number of packets this vertex must relay.
        expected_edges: number of routed edges this vertex receives as a
            leaf-part owner.
        preloaded_edges: demanded edges incident to the owner itself — no
            communication needed, the vertex already knows them.
    """

    p: int = 3
    announce: tuple[int, ...] | None = None
    expected_announcements: int = 0
    expected_replies: int = 0
    inject: list[tuple[int, int, int, int]] = field(default_factory=list)
    forward: dict[int, int] = field(default_factory=dict)
    expected_relays: int = 0
    expected_edges: int = 0
    preloaded_edges: list[Edge] = field(default_factory=list)

    @property
    def is_lister(self) -> bool:
        return self.announce is not None

    def idle(self) -> bool:
        """True when the vertex neither sends nor expects anything."""
        return (
            self.announce is None
            and not self.inject
            and self.expected_announcements == 0
            and self.expected_replies == 0
            and self.expected_relays == 0
            and self.expected_edges == 0
        )


@dataclass
class ClusterProtocolPlan:
    """A compiled per-cluster protocol: topology plus per-vertex plans.

    Attributes:
        graph: the communication graph the engine executes on (the
            cluster's working graph, or the induced residual neighbourhood
            for fallback passes).
        plans: per-vertex plans; vertices without an entry stay idle.
        p: clique size.
        listers: number of vertices running the 2-hop exhaustive pass.
        demands: number of routed edge-learning packets.
    """

    graph: nx.Graph
    plans: dict[int, VertexPlan]
    p: int
    listers: int = 0
    demands: int = 0

    def factory(self):
        """A vertex factory for :func:`repro.engine.runner.run_algorithm`."""
        plans = self.plans
        p = self.p

        def make(vertex: Hashable, neighbors: Iterable[Hashable], n: int) -> "ListingVertex":
            return make_listing_vertex(vertex, neighbors, n, plans.get(vertex), p)

        return make


def make_listing_vertex(vertex, neighbors, n, plan: VertexPlan | None, p: int) -> "ListingVertex":
    """Instantiate a :class:`ListingVertex` with a default-idle plan."""
    return ListingVertex(vertex, neighbors, n, plan=plan or VertexPlan(p=p))


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
    * edge learning — round 0: demand sources inject ``edge`` packets;
      relays forward them along their precomputed tables; owners collect
      them and finally list the cliques among the learned edges with
      :func:`~repro.graphs.cliques.cliques_in_edge_set`.

    Expected message counts are part of the plan, so every vertex can halt
    locally the moment its counters are met — there is no global
    termination detection, matching the CONGEST model.
    """

    def __init__(self, vertex, neighbors, n, plan: VertexPlan):
        super().__init__(vertex, neighbors, n)
        self.plan = plan
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
        plan = self.plan
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
                next_hop = plan.forward.get(demand_id)
                if next_hop is None:
                    self._edges.add(_canonical(u, w))
                    self._edges_received += 1
                else:
                    self._relayed += 1
                    outgoing.append(self.send(next_hop, "edge", (demand_id, u, w)))
        if not self._initial_sent:
            self._initial_sent = True
            if plan.announce is not None:
                outgoing.extend(
                    self.send(neighbor, "adj", plan.announce)
                    for neighbor in plan.announce
                )
            outgoing.extend(
                self.send(hop, "edge", (demand_id, u, w))
                for demand_id, u, w, hop in plan.inject
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
    plans: dict[int, VertexPlan] = {v: VertexPlan(p=p) for v in comm_graph.nodes}
    for vertex in lister_set:
        adjacency = tuple(sorted(comm_graph.neighbors(vertex)))
        plans[vertex].announce = adjacency
        plans[vertex].expected_replies = len(adjacency)
    for vertex in comm_graph.nodes:
        plans[vertex].expected_announcements = sum(
            1 for u in comm_graph.neighbors(vertex) if u in lister_set
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
    communication graph; the owner's expected count and every relay's
    forwarding entry are installed so all vertices can halt locally.
    """
    comm = plan.graph
    plans = plan.plans
    demand_id = 0
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
                source = u
            else:
                source = w
            path = [source]
            while path[-1] != owner:
                path.append(parents[path[-1]])
            plans[source].inject.append((demand_id, u, w, path[1]))
            for position in range(1, len(path) - 1):
                relay = path[position]
                plans[relay].forward[demand_id] = path[position + 1]
                plans[relay].expected_relays += 1
            plans[owner].expected_edges += 1
            plan.demands += 1
            demand_id += 1


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
        """Execute the full recursive listing pipeline on the engine."""
        self._session = (
            self.session if self.session is not None
            else Session(name="distributed-listing")
        )
        self._backend = resolve_backend(self.backend)
        self._scenario = (
            None if self.scenario is None else resolve_scenario(self.scenario)
        )
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
        view; the communication graph is the subgraph induced on the
        closed neighbourhood of the core, which contains that view.
        """
        core = sorted(task.core)
        closure = set(core)
        for vertex in core:
            closure.update(task.graph.neighbors(vertex))
        comm_graph = nx.Graph(task.graph.subgraph(closure))
        plan = plan_two_hop_protocol(comm_graph, core, p=self.p)
        predicted = self._new_accountant(task.graph.number_of_nodes())
        alpha = max((task.graph.degree(v) for v in core), default=1)
        charge_exhaustive_pass(
            task.graph, core, max(1, alpha), predicted,
            phase=f"level{task.level}-c{task.cluster_index}:core-exhaustive",
        )
        return plan, predicted

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
        closure = set(endpoints)
        for vertex in endpoints:
            closure.update(graph.neighbors(vertex))
        comm_graph = nx.Graph(graph.subgraph(closure))
        plan = plan_two_hop_protocol(comm_graph, endpoints, p=p)
        predicted = self._new_accountant(graph.number_of_nodes())
        alpha = max((graph.degree(v) for v in endpoints), default=1)
        charge_exhaustive_pass(
            graph, endpoints, max(1, alpha), predicted, phase="fallback-exhaustive"
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
