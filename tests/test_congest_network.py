"""Tests of the faithful synchronous CONGEST simulator."""

import networkx as nx
import pytest

from repro.congest.message import Message
from repro.congest.network import CongestNetwork
from repro.congest.vertex import VertexAlgorithm
from repro.engine import run_algorithm
from repro.baselines.naive import NeighborhoodExchangeTriangles
from repro.graphs.cliques import enumerate_cliques


class FloodMin(VertexAlgorithm):
    """Every vertex learns the minimum identifier by flooding (diameter rounds)."""

    def __init__(self, vertex, neighbors, n):
        super().__init__(vertex, neighbors, n)
        self.best = vertex
        self._changed = True
        self._quiet_rounds = 0

    def on_round(self, round_index, inbox):
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


class TestCongestNetwork:
    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            CongestNetwork(nx.empty_graph(0))

    def test_flood_min_on_path(self):
        graph = nx.path_graph(8)
        run = run_algorithm(graph, FloodMin, max_rounds=200)
        assert run.halted
        assert all(value == 0 for value in run.outputs.values())

    def test_flood_min_rounds_at_least_diameter(self):
        graph = nx.path_graph(10)
        run = run_algorithm(graph, FloodMin, max_rounds=500)
        assert run.rounds >= nx.diameter(graph)

    def test_forged_sender_rejected(self):
        class Forger(VertexAlgorithm):
            def on_round(self, round_index, inbox):
                self.halt()
                return [Message(sender=99999, receiver=self.neighbors[0], payload=1)] \
                    if self.neighbors else []

        graph = nx.path_graph(3)
        with pytest.raises(ValueError):
            run_algorithm(graph, Forger, max_rounds=5)

    def test_non_neighbor_send_rejected(self):
        class BadSender(VertexAlgorithm):
            def on_round(self, round_index, inbox):
                self.halt()
                if self.vertex == 0:
                    return [Message(sender=0, receiver=2, payload=1)]
                return []

        graph = nx.path_graph(3)  # 0-1-2: vertex 0 is not adjacent to 2
        with pytest.raises(ValueError):
            run_algorithm(graph, BadSender, max_rounds=5)

    def test_bandwidth_fragmentation_slows_large_payloads(self):
        """A payload of w words over one edge needs at least w rounds."""

        class BigSend(VertexAlgorithm):
            def on_round(self, round_index, inbox):
                if self.vertex == 0 and round_index == 0:
                    return [self.send(1, "big", tuple(range(50)))]
                if inbox:
                    self.output = inbox[0].payload
                    self.halt()
                if self.vertex == 0 and round_index > 0:
                    self.halt()
                return []

        graph = nx.path_graph(2)
        run = run_algorithm(graph, BigSend, max_rounds=500)
        assert run.outputs[1] == tuple(range(50))
        assert run.rounds >= 50

    def test_message_accounting(self):
        graph = nx.complete_graph(5)
        run = run_algorithm(graph, FloodMin, max_rounds=100)
        assert run.metrics.messages > 0
        assert run.metrics.rounds == run.rounds


class TestNeighborhoodExchangeOnSimulator:
    def test_lists_all_triangles(self, tiny_triangle_graph):
        run = run_algorithm(tiny_triangle_graph, NeighborhoodExchangeTriangles, max_rounds=200)
        assert run.halted
        assert run.combined_output() == enumerate_cliques(tiny_triangle_graph, 3)

    def test_lists_all_triangles_on_dense_graph(self, small_dense_graph):
        run = run_algorithm(small_dense_graph, NeighborhoodExchangeTriangles, max_rounds=2000)
        assert run.combined_output() == enumerate_cliques(small_dense_graph, 3)

    def test_rounds_scale_with_max_degree(self):
        sparse = nx.cycle_graph(30)
        dense = nx.complete_graph(30)
        sparse_run = run_algorithm(sparse, NeighborhoodExchangeTriangles, max_rounds=5000)
        dense_run = run_algorithm(dense, NeighborhoodExchangeTriangles, max_rounds=5000)
        assert dense_run.rounds > sparse_run.rounds
