"""Tests of partial-pass streaming: streams, budgets, chains, simulation."""

import math

import numpy as np
import pytest

from repro.congest.cost import CostAccountant, unit_overhead
from repro.decomposition.cluster import build_communication_cluster
from repro.decomposition.routing import ClusterRouter
from repro.graphs import erdos_renyi
from repro.streaming import (
    MainToken,
    PartialPassAlgorithm,
    SimulationPlan,
    Stream,
    StreamBudgetError,
    StreamingParameters,
    VertexChain,
    build_vertex_chain,
    charge_simulation,
    disjoint_chains,
    simulate_in_cluster,
    simulate_leader_with_queries,
    simulate_state_passing,
)
from repro.streaming.simulation import AlgorithmInstance


def _tokens(values, owners=None, aux=None):
    owners = owners or list(range(len(values)))
    aux = aux or [()] * len(values)
    return [
        MainToken(index=i, owner=owners[i], summary=values[i], auxiliary=tuple(aux[i]))
        for i in range(len(values))
    ]


class SummingAlgorithm(PartialPassAlgorithm):
    """Reads every main token and writes the running sum (no GET-AUX)."""

    def __init__(self, n_in):
        self.n_in = n_in

    def parameters(self):
        return StreamingParameters(token_bits=64, n_in=self.n_in, n_out=self.n_in,
                                   b_aux=0, b_write=1)

    def process(self, stream):
        total = 0
        while True:
            token = stream.read()
            if token is None:
                break
            total += token.summary
            stream.write(total)


class ThresholdZoom(PartialPassAlgorithm):
    """Zooms into auxiliary tokens whenever the main summary exceeds a threshold."""

    def __init__(self, n_in, threshold, b_aux):
        self.n_in = n_in
        self.threshold = threshold
        self.b_aux = b_aux

    def parameters(self):
        return StreamingParameters(token_bits=64, n_in=self.n_in, n_out=4 * self.n_in,
                                   b_aux=self.b_aux, b_write=4 * self.n_in)

    def process(self, stream):
        while True:
            token = stream.read()
            if token is None:
                break
            if token.summary > self.threshold:
                stream.get_aux()
                for _ in range(token.num_auxiliary):
                    aux = stream.read()
                    stream.write(("aux", aux))
            else:
                stream.write(("main", token.summary))


class TestStream:
    def test_read_returns_tokens_in_order_then_none(self):
        stream = Stream(_tokens([10, 20, 30]))
        assert [stream.read().summary for _ in range(3)] == [10, 20, 30]
        assert stream.read() is None
        assert stream.exhausted

    def test_tokens_must_be_consecutively_numbered(self):
        bad = [MainToken(index=0, owner=0, summary=1), MainToken(index=2, owner=1, summary=2)]
        with pytest.raises(ValueError):
            Stream(bad)

    def test_get_aux_prepends_auxiliary_tokens(self):
        stream = Stream(_tokens([5, 7], aux=[("a", "b"), ()]))
        stream.read()
        stream.get_aux()
        assert stream.read() == "a"
        assert stream.read() == "b"
        assert stream.read().summary == 7

    def test_get_aux_before_read_fails(self):
        stream = Stream(_tokens([1]))
        with pytest.raises(StreamBudgetError):
            stream.get_aux()

    def test_get_aux_twice_on_same_token_fails(self):
        stream = Stream(_tokens([1], aux=[("x",)]))
        stream.read()
        stream.get_aux()
        with pytest.raises(StreamBudgetError):
            stream.get_aux()

    def test_b_aux_budget_enforced(self):
        stream = Stream(_tokens([1, 2], aux=[("x",), ("y",)]), b_aux=1)
        stream.read()
        stream.get_aux()
        stream.read()
        stream.read()
        with pytest.raises(StreamBudgetError):
            stream.get_aux()

    def test_b_write_budget_enforced(self):
        stream = Stream(_tokens([1, 2]), b_write=1)
        stream.read()
        stream.write("one")
        with pytest.raises(StreamBudgetError):
            stream.write("two")

    def test_access_log_counts(self):
        stream = Stream(_tokens([3, 9], aux=[(), ("a",)]))
        stream.read()
        stream.write("w1")
        stream.read()
        stream.get_aux()
        stream.read()
        log = stream.log
        assert log.main_reads == 2
        assert log.auxiliary_reads == 1
        assert log.get_aux_calls == 1
        assert log.writes == 1

    @pytest.mark.parametrize("pending", [0, 1, 4])
    def test_max_writes_between_reads_follows_the_history(self, pending):
        """The running maximum equals the recorded history's, the writes
        after the last read included, for uneven writes."""
        stream = Stream(_tokens([1, 2, 3, 4, 5]))
        stream.write("before")
        for writes in (3, 0, 2, 1):
            stream.read()
            for _ in range(writes):
                stream.write("x")
        stream.read()
        for _ in range(pending):
            stream.write("y")
        log = stream.log
        assert log.writes_between_reads == [1, 3, 0, 2, 1]
        assert log.max_writes_between_reads() == max(
            log.writes_between_reads + [pending]
        )


class TestStreamingParameters:
    def test_validate_log_flags_violations(self):
        params = StreamingParameters(token_bits=8, n_in=3, n_out=1, b_aux=0, b_write=1)
        stream = Stream(_tokens([1, 2, 3]))
        stream.read()
        stream.write("a")
        stream.read()
        stream.write("b")
        with pytest.raises(AssertionError):
            params.validate_log(stream.log)


class TestVertexChain:
    def test_block_assignment_contiguous(self):
        chain = build_vertex_chain(range(10), beta=3)
        chain.validate()
        assert len(chain) == 4
        assert chain.block(1) == (0, 1, 2)
        assert chain.block(4) == (9,)
        assert chain.responsible_for(5) == chain[2]

    def test_assignment_covers_universe(self):
        chain = build_vertex_chain(range(17), beta=5)
        assignment = chain.assignment()
        assert set(assignment) == set(range(17))

    def test_out_of_range_access(self):
        chain = build_vertex_chain(range(6), beta=2)
        with pytest.raises(IndexError):
            chain.block(0)
        with pytest.raises(KeyError):
            chain.responsible_for(99)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            build_vertex_chain(range(4), beta=0)

    def test_disjoint_chains_are_disjoint(self):
        chains = disjoint_chains(range(30), beta=10, num_chains=3)
        members = [set(chain.members) for chain in chains]
        assert not (members[0] & members[1])
        assert not (members[1] & members[2])

    def test_disjoint_chains_infeasible(self):
        with pytest.raises(ValueError):
            disjoint_chains(range(10), beta=2, num_chains=5)


def _make_cluster(n=60, avg_degree=12.0, delta=3):
    graph = erdos_renyi(n, avg_degree, seed=4)
    cluster = build_communication_cluster(graph, graph.edges, delta=delta)
    accountant = CostAccountant(n=n, overhead=unit_overhead())
    router = ClusterRouter(cluster=cluster, accountant=accountant)
    return cluster, router


class TestSimulation:
    def test_simulated_output_matches_reference(self):
        cluster, router = _make_cluster()
        members = cluster.ordered_members()
        values = list(range(len(members)))
        tokens = _tokens(values, owners=members)
        algorithm = SummingAlgorithm(n_in=len(tokens))
        reference = algorithm.run_reference(Stream(list(tokens)))
        plan = SimulationPlan(cluster=cluster, t_max=1)
        result = simulate_in_cluster(
            [AlgorithmInstance(algorithm=SummingAlgorithm(len(tokens)), tokens=tokens)],
            plan, router=router,
        )
        assert result.outputs[0] == reference
        assert result.rounds > 0

    def test_input_contiguity_enforced(self):
        cluster, router = _make_cluster()
        members = cluster.ordered_members()
        tokens = _tokens([1, 2], owners=[members[1], members[0]])
        plan = SimulationPlan(cluster=cluster, t_max=1)
        with pytest.raises(ValueError):
            simulate_in_cluster(
                [AlgorithmInstance(algorithm=SummingAlgorithm(2), tokens=tokens)],
                plan, router=router,
            )

    def test_get_aux_excursions_counted_and_outputs_stored(self):
        cluster, router = _make_cluster()
        members = cluster.ordered_members()
        values = [1, 100, 1, 100]
        aux = [(), ("a1", "a2"), (), ("b1",)]
        tokens = _tokens(values, owners=members[:4], aux=aux)
        algorithm = ThresholdZoom(n_in=4, threshold=50, b_aux=4)
        plan = SimulationPlan(cluster=cluster, t_max=1)
        result = simulate_in_cluster(
            [AlgorithmInstance(algorithm=algorithm, tokens=tokens)], plan, router=router
        )
        assert result.aux_excursions == 2
        assert ("aux", "a1") in result.outputs[0]  # aux payloads preserved verbatim
        assert ("main", 1) in result.outputs[0]
        # Every output token is stored at some V^- vertex.
        for holders in result.output_holders:
            for vertex in holders.values():
                assert vertex in cluster.v_minus

    def test_parallel_instances_all_complete(self):
        cluster, router = _make_cluster()
        members = cluster.ordered_members()
        instances = []
        for shift in range(3):
            values = [v + shift for v in range(len(members))]
            tokens = _tokens(values, owners=members)
            instances.append(AlgorithmInstance(algorithm=SummingAlgorithm(len(tokens)), tokens=tokens))
        plan = SimulationPlan(cluster=cluster, t_max=1)
        result = simulate_in_cluster(instances, plan, router=router)
        assert result.zeta == 3
        assert len(result.outputs) == 3
        assert all(len(out) == len(members) for out in result.outputs)

    def test_an_owner_outside_the_members_ships_by_token_index(self):
        """λ = 4, β = 15: member 20's token lives at chain member 1, and the
        two tokens of owner 1000, no member, at chain member
        ``index // (β T_max) = 0``; each output is held where its token is."""
        cluster, router = _make_cluster()
        members = cluster.ordered_members()
        tokens = _tokens([1, 2, 3], owners=[members[20], 1000, 1000])
        result = simulate_in_cluster(
            [AlgorithmInstance(algorithm=SummingAlgorithm(3), tokens=tokens)],
            SimulationPlan(cluster=cluster, t_max=2), router=router,
        )
        assert result.outputs == [[1, 3, 6]]
        assert result.output_holders == [{0: members[1], 1: members[0], 2: members[0]}]
        assert result.state_passes == 1

    def test_theoretical_bound_positive(self):
        cluster, router = _make_cluster()
        members = cluster.ordered_members()
        tokens = _tokens(list(range(len(members))), owners=members)
        plan = SimulationPlan(cluster=cluster, t_max=1)
        result = simulate_in_cluster(
            [AlgorithmInstance(algorithm=SummingAlgorithm(len(tokens)), tokens=tokens)],
            plan, router=router,
        )
        assert result.theoretical_round_bound() > 0


class TestChargeSimulation:
    """Theorem 11's charges from owner arrays, on a 60-vertex cluster whose
    members all have degree >= δ = 3 (one routed word per round each)."""

    def _charge(self, owners, aux_calls=(), lam=None, t_max=1):
        cluster, router = _make_cluster()
        assert cluster.k == 60
        plan = SimulationPlan(cluster=cluster, t_max=t_max, lam=lam)
        charge = charge_simulation(plan, router, owners, aux_calls)
        return cluster.ordered_members(), charge, router.accountant.metrics

    def test_homes_follow_the_vertex_chains(self):
        """λ = 4 (60^{1/3} rounded), so β = 15 and algorithm ``j`` runs on
        the ``j``-th block of 4 members, as ``disjoint_chains`` assigns; an
        algorithm without tokens hands no state on."""
        owners = [np.arange(60)] * 3 + [np.arange(0)]
        members, charge, metrics = self._charge(owners, aux_calls=(0, 2, 1, 0))
        chains = disjoint_chains(members, beta=15, num_chains=3)
        for chain, homes in zip(chains, charge.homes):
            assert [members[h] for h in homes] == [chain.responsible_for(v) for v in members]
        assert charge.homes[3].size == 0
        assert (charge.lam, charge.state_passes) == (4, 9)
        # Phase 1: a member receives 15 tokens; Phase 2: 3 steps of 4 + 2.
        assert dict(metrics.phase_rounds) == {
            "cluster:phase1-tokens": 5, "streaming:phase2-steps": 18,
        }
        assert dict(metrics.phase_messages) == {
            "cluster:phase1-tokens": 180, "streaming:phase2-state": 8 * (9 + 2 * 3),
        }

    @pytest.mark.parametrize("t_max, split_at", [(1, 30), (2, 42)])
    def test_an_owner_outside_the_universe_goes_by_token_index(self, t_max, split_at):
        """λ = 2, β = 30: the owners 0 and 59 map to chain members 0 and 1;
        40 tokens of one owner outside the members go to chain member
        ``index // (β T_max)``, capped at the last."""
        owners = np.concatenate(([0, 59], np.full(40, 60)))
        members, charge, metrics = self._charge([owners], lam=2, t_max=t_max)
        chain = disjoint_chains(members, beta=30, num_chains=1)[0]
        outsider_homes = [
            chain.members[min(len(chain) - 1, index // (30 * t_max))] for index in range(2, 42)
        ]
        assert [members[h] for h in charge.homes[0]] == (
            [chain.responsible_for(members[0]), chain.responsible_for(members[59])]
            + outsider_homes
        )
        assert charge.homes[0].tolist() == [0, 1] + [0] * (split_at - 2) + [1] * (42 - split_at)
        # The outside owner sends 40 tokens, more than any member receives.
        assert metrics.phase_rounds["cluster:phase1-tokens"] == math.ceil(40 / 3)
        assert charge.state_passes == 1

    def test_more_algorithms_than_members_share_the_first_chain(self):
        """ζ = 61 > k: λ = 1, every algorithm runs on member 0 alone, which
        receives every token; no state moves."""
        members, charge, metrics = self._charge([np.arange(60)] * 61)
        assert charge.lam == 1
        assert all(homes.tolist() == [0] * 60 for homes in charge.homes)
        assert charge.state_passes == 0
        assert dict(metrics.phase_rounds) == {
            "cluster:phase1-tokens": math.ceil(61 * 60 / 3),
            "streaming:phase2-steps": 1 + math.ceil(61 / 3),
        }
        assert metrics.phase_messages["streaming:phase2-state"] == 0


class TestExtremeApproaches:
    """Section 1.2: the combined approach beats both extremes on their weak axis."""

    def _instances(self, cluster, copies=4):
        members = cluster.ordered_members()
        instances = []
        for shift in range(copies):
            tokens = _tokens([v + shift for v in range(len(members))], owners=members)
            instances.append(AlgorithmInstance(algorithm=SummingAlgorithm(len(tokens)), tokens=tokens))
        return instances

    def test_all_three_produce_identical_outputs(self):
        cluster, router = _make_cluster()
        plan = SimulationPlan(cluster=cluster, t_max=1)
        instances = self._instances(cluster)
        combined = simulate_in_cluster(instances, plan, router=router)
        state = simulate_state_passing(instances, plan)
        leader = simulate_leader_with_queries(instances, plan)
        assert combined.outputs == state.outputs == leader.outputs

    def test_state_passing_uses_many_hand_offs(self):
        cluster, _ = _make_cluster()
        plan = SimulationPlan(cluster=cluster, t_max=1)
        instances = self._instances(cluster)
        combined = simulate_in_cluster(
            instances, plan,
            router=ClusterRouter(cluster=cluster,
                                 accountant=CostAccountant(n=cluster.n, overhead=unit_overhead())),
        )
        state = simulate_state_passing(instances, plan)
        assert state.state_passes > combined.state_passes

    def test_leader_concentrates_messages(self):
        cluster, _ = _make_cluster()
        plan = SimulationPlan(cluster=cluster, t_max=1)
        instances = self._instances(cluster)
        leader = simulate_leader_with_queries(instances, plan)
        combined = simulate_in_cluster(
            instances, plan,
            router=ClusterRouter(cluster=cluster,
                                 accountant=CostAccountant(n=cluster.n, overhead=unit_overhead())),
        )
        # The leader personally stores every non-aux output token.
        leader_vertex = cluster.ordered_members()[0]
        assert all(
            holder == leader_vertex
            for holders in leader.output_holders for holder in holders.values()
        )
        assert combined.max_output_tokens_per_vertex() < sum(
            len(out) for out in leader.outputs
        )
