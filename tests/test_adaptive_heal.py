"""Adaptive adversaries and the self-healing robust runtime.

Three layers of PR-10 behaviour, pinned independently:

* **Adaptive scenarios** — fault placement as a deterministic function of
  observed traffic: budgets respected, decisions replayable (bind resets),
  policies target what they claim to target, and all three backends agree
  because they feed the adversary identical pre-drop delivery counters.
* **Self-healing runtime** — ``compile_robust(..., heal=True)`` survives
  cumulative fault sequences exceeding the static ``f``: silent seats are
  detected within a window, re-seated from a :class:`RobustState` snapshot
  (traced as ``replica_reseated``), and group votes exclude reported-dead
  replicas.  Static compilation demonstrably breaks on the same schedule.
* **LDC-style local decoding** — ``decode="local"`` reads strictly fewer
  shares on the clean path and falls back to full reconstruction under
  corruption, with bit-identical outputs either way.

The composed-fault property tests (crash overlay link-drop, adaptive
Byzantine overlay bursty) close the loop: compiled executions stay
backend-identical even when vertex faults, adaptive corruption, and link
faults stack in one scenario tree.
"""

from __future__ import annotations

import json

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest.vertex import VertexAlgorithm
from repro.engine import ShardedBackend
from repro.engine.runner import run_algorithm
from repro.engine.scenarios import (
    BurstyFaultScenario,
    ComposedScenario,
    LinkDropScenario,
    RoundStats,
)
from repro.experiments import ExperimentSpec
from repro.graphs import erdos_renyi
from repro.obs import RecordingTracer
from repro.robust import (
    AdaptiveByzantineScenario,
    AdaptiveCrashScenario,
    ErasureCodingStrategy,
    RobustState,
    compile_robust,
)
from repro.robust.coding import CodecError
from repro.robust.scenarios import ByzantineVertexScenario

# Forked shards: fault decisions are made in the parent and reach the
# workers only through the per-round crash tokens.
FORKED = ShardedBackend(num_workers=2)
BACKENDS = ["reference", "vectorized", FORKED]

POLICIES = ["hottest", "cut-critical", "round-robin"]


class PeriodicGossip(VertexAlgorithm):
    """Re-broadcast the best-known label every few rounds until a horizon.

    The healing tests need an inner algorithm that (a) keeps every replica
    group *active* — seat-health detection only convicts silence next to
    talking siblings — and (b) does not saturate edges, so control
    messages (flags, re-seat announcements) arrive while survivors are
    still running.  Periodic re-broadcast is exactly the send pattern of
    self-stabilising protocols, and both properties hold by construction.
    """

    HORIZON = 120
    PERIOD = 4

    def __init__(self, vertex, neighbors, n):
        super().__init__(vertex, neighbors, n)
        self.best = int(vertex)

    def on_round(self, round_index, inbox):
        for message in inbox:
            if message.payload > self.best:
                self.best = message.payload
        if round_index >= self.HORIZON:
            self.output = self.best
            self.halt()
            return []
        if round_index % self.PERIOD == 0:
            return [self.send(u, "max", self.best) for u in self.neighbors]
        return []


def hub_ring_graph(leaves: int = 12) -> nx.Graph:
    """A hub plus a ring of leaves: vertex 0 is unambiguously hottest."""
    graph = nx.Graph()
    for i in range(1, leaves + 1):
        graph.add_edge(0, i)
    for i in range(1, leaves):
        graph.add_edge(i, i + 1)
    return graph


# -- adaptive scenarios ------------------------------------------------------


def test_adaptive_parameters_validated():
    with pytest.raises(ValueError, match="policy"):
        AdaptiveCrashScenario(policy="loudest")
    with pytest.raises(ValueError, match="period"):
        AdaptiveCrashScenario(period=0)
    with pytest.raises(ValueError, match="first_round"):
        AdaptiveCrashScenario(first_round=-1)
    with pytest.raises(ValueError, match="start_round"):
        AdaptiveByzantineScenario(start_round=-1)
    with pytest.raises(ValueError, match="max_faulty"):
        AdaptiveCrashScenario(max_faulty=-1)


@pytest.mark.parametrize("policy", POLICIES)
def test_adaptive_crash_budget_and_monotone_schedule(policy):
    graph = erdos_renyi(24, 4.0, seed=7)
    scenario = AdaptiveCrashScenario(
        max_faulty=3, policy=policy, first_round=1, period=2, seed=11
    )
    run_algorithm(graph, PeriodicGossip, scenario=scenario, max_rounds=300)
    crashes = scenario.crash_rounds()
    assert 1 <= len(crashes) <= 3
    assert all(round_index >= 1 for round_index in crashes.values())
    history = [scenario.faulty_vertices(r) for r in range(0, 40, 5)]
    for earlier, later in zip(history, history[1:]):
        assert earlier <= later


def test_adaptive_scenario_replays_identically_across_runs():
    graph = erdos_renyi(20, 4.0, seed=3)
    scenario = AdaptiveCrashScenario(max_faulty=2, period=3, seed=5)
    first = run_algorithm(
        graph, PeriodicGossip, scenario=scenario, max_rounds=300
    )
    schedule = scenario.crash_rounds()
    second = run_algorithm(
        graph, PeriodicGossip, scenario=scenario, max_rounds=300
    )
    assert scenario.crash_rounds() == schedule  # bind_nodes resets state
    assert second.outputs == first.outputs
    assert second.rounds == first.rounds


def test_hottest_policy_targets_the_hub():
    graph = hub_ring_graph()
    scenario = AdaptiveCrashScenario(
        max_faulty=1, policy="hottest", first_round=3, period=4, seed=0
    )
    run_algorithm(graph, PeriodicGossip, scenario=scenario, max_rounds=300)
    assert set(scenario.crash_rounds()) == {0}


def test_round_robin_policy_spreads_decisions():
    graph = hub_ring_graph()
    scenario = AdaptiveCrashScenario(
        max_faulty=4, policy="round-robin", first_round=3, period=4, seed=0
    )
    run_algorithm(graph, PeriodicGossip, scenario=scenario, max_rounds=300)
    assert len(scenario.crash_rounds()) == 4  # four distinct victims


def test_adaptive_byzantine_retargets_but_never_crashes():
    graph = hub_ring_graph()
    scenario = AdaptiveByzantineScenario(
        max_faulty=2, policy="cut-critical", start_round=2, period=5, seed=1
    )
    run = run_algorithm(
        graph, PeriodicGossip, scenario=scenario, max_rounds=300
    )
    assert scenario.faulty_vertices(50) == frozenset()
    assert len(scenario.byzantine_vertices(50)) == 2
    clean = run_algorithm(graph, PeriodicGossip, max_rounds=300)
    assert run.rounds == clean.rounds  # corruption never reschedules words


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize(
    "builder",
    [
        lambda policy: AdaptiveCrashScenario(
            max_faulty=3, policy=policy, first_round=1, period=3, seed=9
        ),
        lambda policy: AdaptiveByzantineScenario(
            max_faulty=3, policy=policy, start_round=1, period=3, seed=9
        ),
    ],
    ids=["adaptive-crash", "adaptive-byzantine"],
)
def test_adaptive_scenarios_agree_across_backends(builder, policy):
    graph = erdos_renyi(22, 4.0, seed=2)
    runs = {
        backend: run_algorithm(
            graph,
            PeriodicGossip,
            backend=backend,
            scenario=builder(policy),
            max_rounds=300,
        )
        for backend in BACKENDS
    }
    base = runs["reference"]
    for backend, run in runs.items():
        assert run.rounds == base.rounds, backend
        assert run.outputs == base.outputs, backend
        assert run.metrics.words == base.metrics.words, backend
        assert run.metrics.dropped == base.metrics.dropped, backend


def test_adaptive_spec_params_round_trip_through_experiment_json():
    spec = ExperimentSpec(
        name="adaptive-roundtrip",
        graph_params={"n": 16, "avg_degree": 4.0, "seed": 0},
        workload="flood-min",
        scenario="adaptive-crash",
        scenario_params={
            "max_faulty": 2, "policy": "cut-critical", "period": 7, "seed": 3,
        },
    )
    restored = ExperimentSpec.from_json(json.loads(json.dumps(spec.to_json())))
    assert restored.to_json() == spec.to_json()
    concrete = AdaptiveCrashScenario(**restored.scenario_params)
    assert concrete.policy == "cut-critical"
    # spec_params itself round-trips: rebuild from the instance's own params.
    rebuilt = AdaptiveCrashScenario(**concrete.spec_params())
    assert rebuilt.spec_params() == concrete.spec_params()
    assert json.dumps(concrete.spec_params())  # JSON-safe (REP008)
    assert type(concrete).is_adaptive is True


def test_observe_round_accumulates_pre_drop_deliveries():
    scenario = AdaptiveCrashScenario(max_faulty=1, policy="hottest", seed=0)
    scenario.bind_nodes(["a", "b", "c"])
    import numpy as np

    scenario.observe_round(RoundStats(0, np.array([0, 5, 1], dtype=np.int64)))
    scenario.observe_round(RoundStats(1, np.array([0, 2, 0], dtype=np.int64)))
    assert scenario._pick_targets(1, set()) == [1]  # b is hottest


# -- the self-healing runtime ------------------------------------------------


def adaptive_assault(budget=3):
    # Cumulative budget beyond the static f=1, but below the replica count
    # k=3 — a group that loses *every* seat is unrecoverable by design.
    return AdaptiveCrashScenario(
        max_faulty=budget, policy="hottest", first_round=2, period=20, seed=2
    )


@pytest.mark.parametrize(
    "strategy,params,budget",
    [
        ("replication", {"f": 1}, 2),
        ("erasure-coding", {"d": 2, "f": 1}, 3),
    ],
)
def test_heal_recovers_where_static_compilation_breaks(
    strategy, params, budget
):
    graph = hub_ring_graph()
    clean = run_algorithm(graph, PeriodicGossip, max_rounds=3000)

    static = compile_robust(PeriodicGossip, strategy=strategy, **params)
    static_run = static.run(
        graph, backend="vectorized", scenario=adaptive_assault(budget),
        max_rounds=3000,
    )
    assert static_run.outputs != clean.outputs  # budget > static f=1
    assert static_run.reseats is None

    tracer = RecordingTracer()
    healed = compile_robust(
        PeriodicGossip, strategy=strategy, heal=True, heal_window=3, **params
    )
    healed_run = healed.run(
        graph, backend="vectorized", scenario=adaptive_assault(budget),
        max_rounds=3000, tracer=tracer,
    )
    assert healed_run.outputs == clean.outputs
    assert healed_run.reseats >= 1
    events = [e for e in tracer.events if e["kind"] == "replica_reseated"]
    assert len(events) == healed_run.reseats
    for event in events:
        seated_by = event["seated_by"]
        vertex = event["vertex"]
        assert seated_by[0] == vertex[0]  # an adopter covers its own group
        assert seated_by[1] != vertex[1]
    assert healed_run.round_stretch >= 1.0


def test_heal_is_backend_identical():
    graph = hub_ring_graph()
    runs = {}
    for backend in BACKENDS:
        compiled = compile_robust(
            PeriodicGossip, strategy="erasure-coding", d=2, f=1,
            heal=True, heal_window=3,
        )
        run = compiled.run(
            graph, backend=backend, scenario=adaptive_assault(),
            max_rounds=3000,
        )
        runs[backend] = (run.rounds, run.outputs, run.reseats)
    assert runs["vectorized"] == runs["reference"]
    assert runs[FORKED] == runs["reference"]
    assert runs["reference"][2] >= 1


def test_heal_is_a_noop_on_clean_runs():
    graph = hub_ring_graph(leaves=6)
    clean = run_algorithm(graph, PeriodicGossip, max_rounds=3000)
    compiled = compile_robust(
        PeriodicGossip, strategy="replication", f=1, heal=True
    )
    run = compiled.run(graph, backend="vectorized", max_rounds=3000)
    assert run.outputs == clean.outputs
    assert run.reseats == 0


def test_heal_window_validated():
    with pytest.raises(ValueError, match="heal_window"):
        compile_robust(
            PeriodicGossip, strategy="replication", f=1,
            heal=True, heal_window=0,
        )


def test_robust_state_snapshot_round_trips():
    inner = PeriodicGossip(4, [1, 2], 8)
    inner.best = 77
    snapshot = RobustState.capture(inner)
    symbols = snapshot.encode()
    restored = RobustState.decode(symbols).restore(PeriodicGossip, [1, 2], 8)
    assert restored.vertex == 4
    assert restored.best == 77
    assert not restored.halted
    # Restoration deep-copies: mutating the clone leaves the snapshot alone.
    restored.best = 0
    assert RobustState.decode(symbols).state["best"] == 77


def test_robust_state_rejects_corrupt_and_foreign_payloads():
    snapshot = tuple(RobustState.capture(PeriodicGossip(1, [0], 4)).encode())
    corrupted = (snapshot[0] ^ 0x1F1F,) + snapshot[1:]
    with pytest.raises(CodecError):
        RobustState.decode(corrupted)
    from repro.robust.coding import encode_payload

    with pytest.raises(CodecError, match="RobustState"):
        RobustState.decode(encode_payload(("not-a-state", 1, {})))


# -- LDC-style local decoding ------------------------------------------------


def test_local_decode_reads_strictly_fewer_shares_on_the_clean_path():
    graph = hub_ring_graph(leaves=8)
    results = {}
    for mode in ("full", "local"):
        strategy = ErasureCodingStrategy(d=2, f=2, decode=mode)
        compiled = compile_robust(PeriodicGossip, strategy=strategy)
        run = compiled.run(graph, backend="vectorized", max_rounds=3000)
        results[mode] = (
            run.rounds, run.outputs, strategy.share_reads,
            strategy.decode_calls,
        )
    full, local = results["full"], results["local"]
    assert local[0] == full[0] and local[1] == full[1]
    assert local[3] == full[3]  # same number of logical decodes ...
    assert local[2] < full[2]  # ... examining strictly fewer shares


def test_local_decode_falls_back_under_byzantine_corruption():
    graph = hub_ring_graph(leaves=8)
    outputs = {}
    for mode in ("full", "local"):
        compiled = compile_robust(
            PeriodicGossip,
            strategy=ErasureCodingStrategy(d=2, f=2, decode=mode),
        )
        run = compiled.run(
            graph,
            backend="vectorized",
            scenario=ByzantineVertexScenario(max_faulty=2, seed=3),
            max_rounds=3000,
        )
        outputs[mode] = (run.rounds, run.outputs)
    assert outputs["local"] == outputs["full"]


def test_local_decode_mode_validated_and_content_addressed():
    with pytest.raises(ValueError, match="decode"):
        ErasureCodingStrategy(decode="eager")
    assert "decode" not in ErasureCodingStrategy(d=2, f=1).spec_params()
    assert (
        ErasureCodingStrategy(d=2, f=1, decode="local").spec_params()["decode"]
        == "local"
    )


# -- composed faults through the compiler ------------------------------------


@given(seed=st.integers(min_value=0, max_value=2**20))
@settings(max_examples=4, deadline=None)
def test_compiled_run_is_backend_identical_under_crash_plus_link_drop(seed):
    graph = erdos_renyi(10, 3.0, seed=4)
    def scenario():
        return ComposedScenario.overlay(
            AdaptiveCrashScenario(max_faulty=1, period=5, seed=seed),
            LinkDropScenario(drop_probability=0.15, seed=seed),
        )
    runs = {}
    for backend in BACKENDS:
        compiled = compile_robust(PeriodicGossip, strategy="replication", f=1)
        run = compiled.run(
            graph, backend=backend, scenario=scenario(), max_rounds=3000
        )
        runs[backend] = (run.rounds, run.outputs)
    assert runs["vectorized"] == runs["reference"]
    assert runs[FORKED] == runs["reference"]


@given(seed=st.integers(min_value=0, max_value=2**20))
@settings(max_examples=4, deadline=None)
def test_compiled_run_is_backend_identical_under_adaptive_byzantine_bursty(
    seed,
):
    graph = erdos_renyi(10, 3.0, seed=8)
    def scenario():
        return ComposedScenario.overlay(
            AdaptiveByzantineScenario(max_faulty=2, period=4, seed=seed),
            BurstyFaultScenario(burst_probability=0.2, seed=seed),
        )
    runs = {}
    for backend in BACKENDS:
        compiled = compile_robust(
            PeriodicGossip, strategy="erasure-coding", d=2, f=1
        )
        run = compiled.run(
            graph, backend=backend, scenario=scenario(), max_rounds=3000
        )
        runs[backend] = (run.rounds, run.outputs)
    assert runs["vectorized"] == runs["reference"]
    assert runs[FORKED] == runs["reference"]
