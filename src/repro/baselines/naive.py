"""Naive CONGEST baselines: listing by neighbourhood exchange + primitives.

Two listing flavours are provided:

* :class:`NeighborhoodExchangeTriangles` -- a genuine per-vertex CONGEST
  algorithm (run on the faithful simulator) in which every vertex announces
  its adjacency list to all neighbours over ``O(Δ)`` rounds and then reports
  the triangles it sees.  This is the textbook "exchange neighbourhoods"
  algorithm; it is exact and serves both as a simulator test case and as the
  baseline whose round complexity degrades linearly with the maximum degree.
* :func:`naive_listing` -- the cost-model version for arbitrary ``p``: every
  vertex learns its full induced neighbourhood (``O(Δ)`` rounds) and lists
  the cliques through it.

:func:`neighborhood_exchange_listing` drives the faithful algorithm through
the pluggable execution engine (:mod:`repro.engine`), so the same baseline
can be run on the reference or vectorized backend and under any delivery
scenario.

The module also hosts the textbook *per-vertex primitives* the engine's
workload suites are built from — :class:`FloodMinimum` (leader election by
flooding the minimum identifier) and :class:`BFSTreeLayers` (layered BFS
tree construction).  They are deliberately written to be independent of
within-round inbox ordering, so they run identically on every backend, and
each has a whole-network :class:`~repro.engine.vector.VectorAlgorithm` twin
in ``benchmarks/common.py``.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import networkx as nx

from repro.congest.cost import CostAccountant, RoutingOverhead, unit_overhead
from repro.congest.message import Message
from repro.congest.metrics import CongestMetrics
from repro.congest.vertex import VertexAlgorithm
from repro.graphs.cliques import Clique, canonical_clique
from repro.graphs.index import self_loop
from repro.listing.local import two_hop_exhaustive_listing
from repro.listing.recursion import ListingResult


class NeighborhoodExchangeTriangles(VertexAlgorithm):
    """Faithful-simulator triangle listing by neighbourhood exchange.

    Round 0: send the full adjacency list to every neighbour (the simulator
    fragments it, so delivery takes ``O(Δ)`` rounds).  When a neighbour's
    list arrives, record it; once all neighbours have reported, output every
    triangle ``{v, u, w}`` with ``u, w`` adjacent neighbours of ``v``.
    """

    def __init__(self, vertex: Hashable, neighbors: Iterable[Hashable], n: int):
        super().__init__(vertex, neighbors, n)
        self._neighbor_lists: dict[Hashable, tuple] = {}
        self.output: set[Clique] = set()

    def on_round(self, round_index: int, inbox: list[Message]) -> list[Message]:
        for message in inbox:
            if message.tag == "adj":
                self._neighbor_lists[message.sender] = tuple(message.payload)
        if round_index == 0:
            return self.send_to_all_neighbors("adj", tuple(self.neighbors))
        if len(self._neighbor_lists) == len(self.neighbors):
            my_neighbors = set(self.neighbors)
            for u, adjacency in self._neighbor_lists.items():
                for w in adjacency:
                    if w in my_neighbors and w != u:
                        self.output.add(canonical_clique((self.vertex, u, w)))
            self.halt()
        return []


def neighborhood_exchange_listing(
    graph: nx.Graph,
    backend="reference",
    scenario=None,
    max_rounds: int = 50_000,
) -> ListingResult:
    """Run :class:`NeighborhoodExchangeTriangles` on the execution engine.

    Unlike :func:`naive_listing` (which charges a cost model), this actually
    executes the per-vertex algorithm round by round, so its round count
    reflects real fragmentation of the adjacency-list payloads — and it can
    be pointed at any engine backend or delivery scenario.  A self-loop
    raises ``ValueError`` before any round.
    """
    from repro.engine.runner import run_algorithm

    if (loop := next(nx.selfloop_edges(graph), None)) is not None:
        raise self_loop(loop[0])

    run = run_algorithm(
        graph,
        NeighborhoodExchangeTriangles,
        backend=backend,
        scenario=scenario,
        max_rounds=max_rounds,
        phase="naive-exchange",
    )
    return ListingResult.from_engine_run(run, p=3)


class FloodMinimum(VertexAlgorithm):
    """Leader election by flooding: every vertex learns the minimum id.

    A vertex re-broadcasts whenever its best-known identifier improves and
    halts (outputting the minimum) after ``n`` consecutive quiet rounds —
    long enough for any improvement to have crossed the network even under
    the engine's bounded-delay scenarios.  The min-fold is order-independent,
    so all backends agree exactly.
    """

    def __init__(self, vertex: Hashable, neighbors: Iterable[Hashable], n: int):
        super().__init__(vertex, neighbors, n)
        self.best = vertex
        self._changed = True
        self._quiet_rounds = 0

    def on_round(self, round_index: int, inbox: list[Message]) -> list[Message]:
        for message in inbox:
            if message.payload < self.best:
                self.best = message.payload
                self._changed = True
        if self._changed:
            self._changed = False
            self._quiet_rounds = 0
            return self.send_to_all_neighbors("min", self.best)
        self._quiet_rounds += 1
        if self._quiet_rounds > self.n:
            self.output = self.best
            self.halt()
        return []


class BFSTreeLayers(VertexAlgorithm):
    """Layered BFS-tree construction from a designated root.

    The root adopts distance 0 in round 0; every other vertex adopts
    ``min(d) + 1`` over the distance announcements in its inbox, choosing
    the smallest-id announcing neighbour as parent (deterministic under any
    within-round ordering), then announces its own distance and halts.
    Output is the ``(distance, parent)`` pair, or ``None`` for vertices the
    tree never reaches before the ``n``-round timeout.

    Because a vertex halts the moment it joins the tree, late duplicate
    announcements arrive at halted vertices and are dropped by the engine —
    this is the canonical workload for the halted-inbox rule.
    """

    root: Hashable = 0

    def __init__(self, vertex: Hashable, neighbors: Iterable[Hashable], n: int):
        super().__init__(vertex, neighbors, n)
        self.dist: int | None = None
        self.parent: Hashable | None = None

    def on_round(self, round_index: int, inbox: list[Message]) -> list[Message]:
        if round_index == 0 and self.vertex == self.root:
            self.dist, self.parent = 0, self.vertex
        elif inbox:
            d, sender = min((m.payload, m.sender) for m in inbox)
            self.dist, self.parent = d + 1, sender
        if self.dist is not None:
            self.output = (self.dist, self.parent)
            self.halt()
            return self.send_to_all_neighbors("bfs", self.dist)
        if round_index > self.n:
            self.halt()
        return []


def bfs_tree_workload(root: Hashable = 0) -> type[BFSTreeLayers]:
    """A :class:`BFSTreeLayers` subclass rooted at ``root``."""
    return type("BFSTreeLayersRooted", (BFSTreeLayers,), {"root": root})


class GossipMaximum(VertexAlgorithm):
    """Periodic max-label gossip: re-broadcast every ``period`` rounds.

    Every vertex folds the maximum label it has heard and re-announces it
    every ``period`` rounds until a fixed ``horizon``, then outputs and
    halts.  Unlike the silence-based termination of :class:`FloodMinimum`,
    the send schedule is *unconditional*: traffic flows at a constant,
    non-saturating rate for the whole run, which is the shape of
    self-stabilising protocols — and exactly what the robust compiler's
    ``heal=True`` mode needs from its inner algorithm, since seat-health
    detection convicts a replica of silence only while its group's
    survivors are still talking.  The max-fold is order-independent, so
    all backends agree exactly; the fixed horizon makes the round count a
    constant, so the compiled ``round_stretch`` is a clean comparison.
    """

    horizon: int = 120
    period: int = 4

    def __init__(self, vertex: Hashable, neighbors: Iterable[Hashable], n: int):
        super().__init__(vertex, neighbors, n)
        self.best = vertex

    def on_round(self, round_index: int, inbox: list[Message]) -> list[Message]:
        for message in inbox:
            if message.payload > self.best:
                self.best = message.payload
        if round_index >= self.horizon:
            self.output = self.best
            self.halt()
            return []
        if round_index % self.period == 0:
            return self.send_to_all_neighbors("max", self.best)
        return []


def gossip_max_workload(
    horizon: int = 120, period: int = 4
) -> type[GossipMaximum]:
    """A :class:`GossipMaximum` subclass with a fixed schedule."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1; got {horizon}")
    if period < 1:
        raise ValueError(f"period must be >= 1; got {period}")
    return type(
        "GossipMaximumScheduled",
        (GossipMaximum,),
        {"horizon": horizon, "period": period},
    )


def naive_listing(graph: nx.Graph, p: int = 3,
                  overhead: RoutingOverhead | None = None) -> ListingResult:
    """Cost-model naive listing: every vertex exhausts its neighbourhood.

    Round complexity is ``O(Δ)`` — linear in the maximum degree — which is
    the curve the sophisticated algorithms are measured against in
    experiments E3 and E8.
    """
    metrics = CongestMetrics()
    accountant = CostAccountant(
        n=graph.number_of_nodes(),
        overhead=overhead or unit_overhead(),
        metrics=metrics,
    )
    outcome = two_hop_exhaustive_listing(
        graph, graph.nodes, p=p, accountant=accountant, phase="naive-exchange"
    )
    return ListingResult(
        cliques=outcome.cliques,
        p=p,
        rounds=metrics.rounds,
        levels=1,
        metrics=metrics,
        reports=len(outcome.cliques),
        fallback_edges=0,
    )
