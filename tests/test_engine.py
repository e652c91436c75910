"""Tests of the pluggable execution engine: backends, scenarios, accounting."""

import networkx as nx
import pytest

from repro.congest.message import Message, words_for_payload
from repro.congest.network import CongestNetwork
from repro.congest.vertex import VertexAlgorithm
from repro.engine import (
    AdversarialDelayScenario,
    Backend,
    CleanSynchronous,
    DeliveryScenario,
    LinkDropScenario,
    ReferenceBackend,
    ShardedBackend,
    VectorizedBackend,
    available_backends,
    resolve_backend,
    resolve_scenario,
    run_algorithm,
)

ALL_BACKENDS = ["reference", "vectorized", "sharded"]


class SendOnce(VertexAlgorithm):
    """Vertex 0 sends one multi-word payload to vertex 1, then both halt."""

    payload = tuple(range(9))  # 10 CONGEST words

    def on_round(self, round_index, inbox):
        if self.vertex == 0 and round_index == 0:
            return [self.send(1, "blob", self.payload)]
        if inbox:
            self.output = inbox[0].payload
            self.halt()
        if self.vertex == 0 and round_index > 0:
            self.halt()
        return []


class Chatter(VertexAlgorithm):
    """Exchanges single-word pings for a fixed number of rounds."""

    rounds = 6

    def on_round(self, round_index, inbox):
        if round_index >= self.rounds:
            self.output = round_index
            self.halt()
            return []
        return self.send_to_all_neighbors("ping", round_index)


class TestBackendResolution:
    def test_registry_names(self):
        assert available_backends() == sorted(ALL_BACKENDS)

    def test_resolve_by_name_instance_class_and_none(self):
        assert isinstance(resolve_backend("vectorized"), VectorizedBackend)
        assert isinstance(resolve_backend(None), ReferenceBackend)
        assert isinstance(resolve_backend(ShardedBackend), ShardedBackend)
        configured = ShardedBackend(num_workers=2)
        assert resolve_backend(configured) is configured

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu")

    def test_unknown_backend_error_lists_sorted_registry_names(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_backend("gpu")
        assert str(available_backends()) in str(excinfo.value)

    def test_registered_backend_resolves_by_name(self):
        from repro.engine import register_backend
        from repro.engine.registry import backend_registry

        @register_backend("unit-echo")
        class EchoBackend(ReferenceBackend):
            pass

        try:
            assert "unit-echo" in available_backends()
            assert isinstance(resolve_backend("unit-echo"), EchoBackend)
        finally:
            backend_registry.entries.pop("unit-echo")

    def test_non_backend_rejected(self):
        with pytest.raises(TypeError):
            resolve_backend(42)

    def test_backend_is_abstract(self):
        with pytest.raises(TypeError):
            Backend()


class TestScenarioResolution:
    def test_resolve_by_name_and_none(self):
        assert resolve_scenario(None).is_clean
        assert resolve_scenario("clean").is_clean
        assert isinstance(resolve_scenario("link-drop"), LinkDropScenario)
        assert isinstance(
            resolve_scenario("adversarial-delay"), AdversarialDelayScenario
        )

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            resolve_scenario("solar-flare")

    def test_unknown_scenario_error_lists_sorted_registry_names(self):
        from repro.engine import available_scenarios

        with pytest.raises(ValueError) as excinfo:
            resolve_scenario("solar-flare")
        message = str(excinfo.value)
        assert str(available_scenarios()) in message
        for name in ("bursty", "clean", "heterogeneous-bandwidth", "link-drop"):
            assert name in message

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LinkDropScenario(drop_probability=1.0)
        with pytest.raises(ValueError):
            AdversarialDelayScenario(stall_period=1)

    def test_adversarial_delay_is_bandwidth_bounded(self):
        scenario = AdversarialDelayScenario(stall_period=4, seed=1)
        words = 12
        # The rounds in which a 12-word transfer starting at round 0 crosses.
        schedule = []
        round_index = 0
        while len(schedule) < words:
            if scenario.transmits(("x", "y"), round_index):
                schedule.append(round_index)
            round_index += 1
        # Bounded stretch: at most one stall per period.
        assert schedule[-1] + 1 <= words * 4 / 3 + scenario.stall_period


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestBackendContract:
    def test_empty_graph_rejected(self, backend):
        with pytest.raises(ValueError):
            run_algorithm(nx.empty_graph(0), Chatter, backend=backend)

    def test_forged_sender_rejected(self, backend):
        class Forger(VertexAlgorithm):
            def on_round(self, round_index, inbox):
                self.halt()
                if self.neighbors:
                    return [Message(sender=99999, receiver=self.neighbors[0])]
                return []

        with pytest.raises(ValueError, match="forge"):
            run_algorithm(nx.path_graph(3), Forger, backend=backend, max_rounds=5)

    def test_non_neighbor_send_rejected(self, backend):
        class BadSender(VertexAlgorithm):
            def on_round(self, round_index, inbox):
                self.halt()
                if self.vertex == 0:
                    return [Message(sender=0, receiver=2)]
                return []

        with pytest.raises(ValueError, match="non-neighbour"):
            run_algorithm(nx.path_graph(3), BadSender, backend=backend, max_rounds=5)

    def test_fragmented_payload_words_are_fully_charged(self, backend):
        """Regression: placeholder fragments must count toward the word total."""
        graph = nx.path_graph(2)
        run = run_algorithm(graph, SendOnce, backend=backend, max_rounds=100)
        expected_words = words_for_payload(SendOnce.payload, 2)
        assert expected_words == 10
        assert run.metrics.messages == 1
        assert run.metrics.words == expected_words
        assert run.outputs[1] == SendOnce.payload
        assert run.rounds >= expected_words

    def test_link_drop_stretches_rounds_not_output(self, backend):
        graph = nx.path_graph(2)
        clean = run_algorithm(graph, SendOnce, backend=backend, max_rounds=500)
        faulty = run_algorithm(
            graph,
            SendOnce,
            backend=backend,
            scenario=LinkDropScenario(drop_probability=0.4, seed=13),
            max_rounds=500,
        )
        assert faulty.outputs == clean.outputs
        assert faulty.rounds > clean.rounds
        assert faulty.metrics.words == clean.metrics.words

    def test_permanently_blocked_edge_honours_max_rounds(self, backend):
        """Regression: a scenario that never transmits must not hang the
        batch schedulers; every backend stops at max_rounds with identical
        (zero-delivery) accounting."""

        class Blackout(DeliveryScenario):
            def transmits(self, edge, round_index):
                return False

        graph = nx.path_graph(3)
        run = run_algorithm(
            graph, Chatter, backend=backend, scenario=Blackout(), max_rounds=25
        )
        assert run.rounds == 25
        assert run.halted  # vertices halt locally; their words never arrive
        assert run.metrics.messages == 0
        assert run.metrics.words == 0

    def test_scenario_by_name(self, backend):
        run = run_algorithm(
            nx.path_graph(4),
            Chatter,
            backend=backend,
            scenario="adversarial-delay",
            max_rounds=200,
        )
        assert run.halted


class TestReferenceNetworkInternals:
    def test_drained_edge_queues_are_pruned(self):
        """Regression: long runs must not accumulate empty deques."""
        graph = nx.complete_graph(6)
        network = CongestNetwork(graph)
        network.run(Chatter, max_rounds=100)
        assert network._edge_queues == {}

    def test_blocked_edges_keep_their_queue(self):
        class Stalled(DeliveryScenario):
            def transmits(self, edge, round_index):
                return round_index > 3

        graph = nx.path_graph(2)
        network = CongestNetwork(graph, scenario=Stalled())
        run = network.run(Chatter, max_rounds=50)
        assert run.halted
        assert network._edge_queues == {}


class TestShardedConfigurations:
    def test_inline_single_worker_matches_reference(self):
        graph = nx.cycle_graph(9)
        reference = run_algorithm(graph, Chatter, backend="reference")
        inline = ShardedBackend(num_workers=1).run(graph, Chatter)
        assert inline.rounds == reference.rounds
        assert inline.outputs == reference.outputs
        assert inline.metrics.words == reference.metrics.words

    def test_unavailable_start_method_falls_back_inline(self):
        graph = nx.cycle_graph(9)
        backend = ShardedBackend(num_workers=3, start_method="no-such-method")
        run = backend.run(graph, Chatter)
        assert run.halted

    def test_worker_count_capped_by_vertices(self):
        graph = nx.path_graph(2)
        run = ShardedBackend(num_workers=8).run(graph, SendOnce, max_rounds=100)
        assert run.halted
        assert run.outputs[1] == SendOnce.payload
