"""Simulation of partial-pass streaming algorithms in CONGEST (Theorem 11).

Given a streaming input cluster (a communication cluster whose ``V_C^-``
vertices hold contiguous intervals of at most ``T_max`` main tokens each, in
identifier order), Theorem 11 simulates ``ζ`` partial-pass streaming
algorithms in parallel in

``( T_max/δ · (ζ + k/λ)  +  (B_aux + 1) · (λ + ζ/δ) ) · n^{o(1)}``

rounds, leaving each output token at some ``V_C^-`` vertex.

The executor here performs the simulation plan faithfully at the data level
(token distribution to simulator chains, chain hand-offs, GET-AUX excursions
back to token owners, local storage of output tokens) while the round cost of
every communication step is charged through the cluster router, using the
*actual* loads incurred rather than the worst-case formula.  The worst-case
bound is also computed (:meth:`SimulationResult.theoretical_round_bound`) so
experiments can compare measured against predicted.

For the ablation experiment (E4) the module also provides the two extreme
approaches sketched in Section 1.2:

* :func:`simulate_state_passing` -- Approach 1, state passed vertex to
  vertex (``~k`` hand-offs, few messages, many rounds),
* :func:`simulate_leader_with_queries` -- Approach 2, a single leader learns
  every main token (few hand-offs, ``~N_in`` messages into one vertex).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.congest.cost import CostAccountant
from repro.decomposition.cluster import CommunicationCluster
from repro.decomposition.routing import ClusterRouter
from repro.streaming.algorithm import PartialPassAlgorithm
from repro.streaming.chains import VertexChain, disjoint_chains
from repro.streaming.stream import MainToken


@dataclass
class AlgorithmInstance:
    """One algorithm to simulate together with its input stream.

    Attributes:
        algorithm: the partial-pass streaming algorithm ``A_j``.
        tokens: its input main tokens; ``token.owner`` must be a ``V_C^-``
            vertex and owners must appear in non-decreasing identifier order
            (the *input contiguity* condition of Definition 9).
    """

    algorithm: PartialPassAlgorithm
    tokens: Sequence[MainToken]

    def validate_input_contiguity(self, t_max: int) -> None:
        owners = [token.owner for token in self.tokens]
        if owners != sorted(owners):
            raise ValueError(
                "input contiguity violated: main-token owners must be ordered "
                "by vertex identifier"
            )
        counts: dict[int, int] = {}
        for owner in owners:
            counts[owner] = counts.get(owner, 0) + 1
        worst = max(counts.values(), default=0)
        if worst > t_max:
            raise ValueError(
                f"a vertex holds {worst} main tokens, exceeding T_max={t_max}"
            )


@dataclass
class SimulationPlan:
    """Parameters of one invocation of Theorem 11.

    Attributes:
        cluster: the streaming input cluster.
        t_max: ``T_max`` -- maximum number of main tokens per vertex.
        lam: ``λ`` -- number of simulator-chain members per algorithm
            (``1 <= λ <= k/ζ``).  ``None`` selects the balanced choice used
            in the paper's corollaries, ``λ = ceil(k^{1/3})`` capped by
            ``k/ζ``.
    """

    cluster: CommunicationCluster
    t_max: int
    lam: int | None = None

    def resolved_lambda(self, zeta: int) -> int:
        k = max(1, self.cluster.k)
        upper = max(1, k // max(1, zeta))
        if self.lam is not None:
            return max(1, min(self.lam, upper))
        return max(1, min(int(round(k ** (1.0 / 3.0))) or 1, upper))


@dataclass
class SimulationResult:
    """Outcome of simulating a batch of algorithms in a cluster.

    Attributes:
        outputs: per-algorithm list of output tokens (identical to the
            reference centralized execution).
        output_holders: per-algorithm map ``token index -> V_C^- vertex``
            recording which cluster vertex stores each output token at the
            end of the simulation.
        rounds: CONGEST rounds charged for the whole simulation.
        messages: words transferred.
        lam: the simulator-chain length used.
        zeta: number of algorithms simulated in parallel.
        state_passes: total number of state hand-offs performed.
        aux_excursions: total number of GET-AUX round trips performed.
    """

    outputs: list[list[object]]
    output_holders: list[dict[int, int]]
    rounds: int
    messages: int
    lam: int
    zeta: int
    state_passes: int
    aux_excursions: int
    plan: SimulationPlan

    def max_output_tokens_per_vertex(self) -> int:
        counts: dict[int, int] = {}
        for holders in self.output_holders:
            for vertex in holders.values():
                counts[vertex] = counts.get(vertex, 0) + 1
        return max(counts.values(), default=0)

    def theoretical_round_bound(self) -> float:
        """The Theorem 11 bound with the actual parameters (overhead excluded)."""
        cluster = self.plan.cluster
        delta = max(1.0, cluster.delta)
        k = max(1, cluster.k)
        # B_aux of the batch, as the mean excursions per algorithm.
        b_aux = self.aux_excursions / max(1, self.zeta)
        t_max = self.plan.t_max
        lam = self.lam
        zeta = self.zeta
        return (t_max / delta) * (zeta + k / lam) + (b_aux + 1) * (lam + zeta / delta)


def simulate_in_cluster(
    instances: Sequence[AlgorithmInstance],
    plan: SimulationPlan,
    router: ClusterRouter | None = None,
    accountant: CostAccountant | None = None,
) -> SimulationResult:
    """Simulate ``ζ`` partial-pass streaming algorithms in a cluster (Theorem 11).

    Args:
        instances: the algorithms ``A_1..A_ζ`` with their input token streams.
        plan: cluster / ``T_max`` / ``λ`` parameters.
        router: cluster router used to charge communication (built from
            ``accountant`` if omitted).
        accountant: cost accountant used when ``router`` is omitted.

    Returns:
        A :class:`SimulationResult`; ``outputs[j]`` equals the output stream
        of the reference execution of ``A_j``.
    """
    cluster = plan.cluster
    zeta = len(instances)
    if zeta == 0:
        raise ValueError("nothing to simulate")
    if router is None:
        accountant = accountant or CostAccountant(n=cluster.n)
        router = ClusterRouter(cluster=cluster, accountant=accountant, phase_prefix="streaming")
    metrics_before = router.accountant.metrics.snapshot()

    lam = plan.resolved_lambda(zeta)
    members = cluster.ordered_members()
    if not members:
        raise ValueError("cluster has no V^- vertices; cannot host a simulation")
    for instance in instances:
        instance.validate_input_contiguity(plan.t_max)

    # Phase 0: assign disjoint simulator chains (zero rounds -- deterministic
    # local computation from identifiers alone).
    beta = math.ceil(len(members) / lam)
    chains: list[VertexChain] = disjoint_chains(members, beta=beta, num_chains=zeta) \
        if zeta * lam <= len(members) else [
            # Degenerate small clusters: all algorithms share one chain layout.
            disjoint_chains(members, beta=beta, num_chains=1)[0] for _ in range(zeta)
        ]

    # Phase 1: ship main tokens to the simulator chains.
    per_vertex_sent: dict[int, int] = {}
    per_vertex_received: dict[int, int] = {}
    token_home: list[dict[int, int]] = []  # per algorithm: token index -> chain member
    for instance, chain in zip(instances, chains):
        homes: dict[int, int] = {}
        for token in instance.tokens:
            target = chain.responsible_for(token.owner) if chain.covers(token.owner) \
                else chain.members[min(len(chain.members) - 1, token.index // max(1, beta * plan.t_max))]
            homes[token.index] = target
            per_vertex_sent[token.owner] = per_vertex_sent.get(token.owner, 0) + 1
            per_vertex_received[target] = per_vertex_received.get(target, 0) + 1
        token_home.append(homes)
    max_sent = max(per_vertex_sent.values(), default=0)
    max_received = max(per_vertex_received.values(), default=0)
    total_phase1 = sum(per_vertex_sent.values())
    router.route(
        max_words_per_vertex=max(max_sent, max_received),
        total_words=total_phase1,
        phase="phase1-tokens",
    )

    # Phase 2: run the algorithms, tracking state hand-offs and GET-AUX
    # excursions, and record which vertex stores each output token.
    outputs: list[list[object]] = []
    output_holders: list[dict[int, int]] = []
    total_state_passes = 0
    total_excursions = 0
    per_instance_excursions: list[int] = []
    state_words = 8  # polylog-size state: a handful of counters
    for instance, chain, homes in zip(instances, chains, token_home):
        stream = instance.algorithm.enforce_budgets(list(instance.tokens))
        out = instance.algorithm.run_reference(stream)
        outputs.append(out)
        log = stream.log
        total_excursions += log.get_aux_calls
        per_instance_excursions.append(log.get_aux_calls)

        # Chain hand-offs: the state passes from chain member i to i+1 for
        # every chain member that holds at least one token (lam - 1 at most).
        active_members = sorted({homes[t.index] for t in instance.tokens})
        passes = max(0, len(active_members) - 1)
        total_state_passes += passes

        # Output holders: tokens written while main token tau_i was current
        # live at the chain member hosting tau_i, unless written during an
        # aux excursion, in which case they live at tau_i's original owner.
        holders: dict[int, int] = {}
        owner_of_index = {t.index: t.owner for t in instance.tokens}
        for out_index, (main_index, in_aux) in enumerate(log.write_contexts):
            if main_index < 0:
                holders[out_index] = active_members[0] if active_members else members[0]
            elif in_aux:
                holders[out_index] = owner_of_index.get(main_index, members[0])
            else:
                holders[out_index] = homes.get(main_index, members[0])
        output_holders.append(holders)

    # Charge Phase 2: the (B_aux + 1) steps of the theorem.  The zeta
    # algorithms progress in parallel; each step costs lambda rounds of state
    # propagation along a chain plus zeta/delta rounds to deliver the
    # simultaneous GET-AUX requests and responses — NOT one round per state
    # hand-off, which is the whole point of the batching argument in the
    # proof of Theorem 11.
    max_excursions = max(per_instance_excursions, default=0)
    steps = max_excursions + 1
    sequential_depth = steps * max(1, lam)
    parallel_delivery = steps * math.ceil(zeta / max(1.0, cluster.delta))
    router.accountant.local_rounds(
        (sequential_depth + parallel_delivery) * router.accountant.overhead(cluster.n),
        phase="streaming:phase2-steps",
    )
    # Message accounting for the actual state transfers performed.
    router.accountant.metrics.add_messages(
        (total_state_passes + 2 * total_excursions) * state_words,
        phase="streaming:phase2-state",
        words=(total_state_passes + 2 * total_excursions) * state_words,
    )

    metrics_after = router.accountant.metrics.snapshot()
    return SimulationResult(
        outputs=outputs,
        output_holders=output_holders,
        rounds=metrics_after["rounds"] - metrics_before["rounds"],
        messages=metrics_after["words"] - metrics_before["words"],
        lam=lam,
        zeta=zeta,
        state_passes=total_state_passes,
        aux_excursions=total_excursions,
        plan=plan,
    )


# ---------------------------------------------------------------------------
# The two extreme approaches of Section 1.2 (ablation baselines)
# ---------------------------------------------------------------------------


def simulate_state_passing(
    instances: Sequence[AlgorithmInstance],
    plan: SimulationPlan,
    accountant: CostAccountant | None = None,
) -> SimulationResult:
    """Approach 1: pass the algorithm state through every token owner in order.

    Uses ``~Θ(k)`` state hand-offs per algorithm: round complexity grows
    linearly with the number of participating vertices, while the message
    complexity stays low.
    """
    cluster = plan.cluster
    accountant = accountant or CostAccountant(n=cluster.n)
    router = ClusterRouter(cluster=cluster, accountant=accountant, phase_prefix="state-passing")
    before = accountant.metrics.snapshot()

    outputs: list[list[object]] = []
    output_holders: list[dict[int, int]] = []
    total_passes = 0
    for instance in instances:
        stream = instance.algorithm.enforce_budgets(list(instance.tokens))
        out = instance.algorithm.run_reference(stream)
        outputs.append(out)
        owners = sorted({t.owner for t in instance.tokens})
        passes = max(0, len(owners) - 1)
        total_passes += passes
        owner_of_index = {t.index: t.owner for t in instance.tokens}
        holders = {
            i: owner_of_index.get(main_index, owners[0] if owners else 0)
            for i, (main_index, _) in enumerate(stream.log.write_contexts)
        }
        output_holders.append(holders)
    # Every hand-off crosses the cluster: one routing unit per pass.
    router.chain_passes(passes=total_passes, state_words=8, phase="hand-offs")
    after = accountant.metrics.snapshot()
    return SimulationResult(
        outputs=outputs,
        output_holders=output_holders,
        rounds=after["rounds"] - before["rounds"],
        messages=after["words"] - before["words"],
        lam=max(1, plan.cluster.k),
        zeta=len(instances),
        state_passes=total_passes,
        aux_excursions=0,
        plan=plan,
    )


def simulate_leader_with_queries(
    instances: Sequence[AlgorithmInstance],
    plan: SimulationPlan,
    accountant: CostAccountant | None = None,
) -> SimulationResult:
    """Approach 2: a single leader learns every main token and queries owners.

    The leader receives all ``N_in`` main tokens (a ``Θ(N_in)`` word load on
    one vertex) and performs one round trip per GET-AUX.
    """
    cluster = plan.cluster
    accountant = accountant or CostAccountant(n=cluster.n)
    router = ClusterRouter(cluster=cluster, accountant=accountant, phase_prefix="leader")
    before = accountant.metrics.snapshot()
    members = cluster.ordered_members()
    leader = members[0] if members else 0

    outputs: list[list[object]] = []
    output_holders: list[dict[int, int]] = []
    total_excursions = 0
    total_tokens = 0
    for instance in instances:
        stream = instance.algorithm.enforce_budgets(list(instance.tokens))
        out = instance.algorithm.run_reference(stream)
        outputs.append(out)
        total_excursions += stream.log.get_aux_calls
        total_tokens += len(instance.tokens)
        owner_of_index = {t.index: t.owner for t in instance.tokens}
        holders = {}
        for i, (main_index, in_aux) in enumerate(stream.log.write_contexts):
            holders[i] = owner_of_index.get(main_index, leader) if in_aux else leader
        output_holders.append(holders)

    # All main tokens converge on the leader: the leader's receive load is
    # the whole input, moved over its delta incident edges.
    router.route(max_words_per_vertex=total_tokens, total_words=total_tokens,
                 phase="gather-at-leader")
    router.chain_passes(passes=2 * total_excursions, state_words=8, phase="queries")
    after = accountant.metrics.snapshot()
    return SimulationResult(
        outputs=outputs,
        output_holders=output_holders,
        rounds=after["rounds"] - before["rounds"],
        messages=after["words"] - before["words"],
        lam=1,
        zeta=len(instances),
        state_passes=0,
        aux_excursions=total_excursions,
        plan=plan,
    )
