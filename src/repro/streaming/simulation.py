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
*actual* loads incurred rather than the worst-case formula.  Those charges
depend only on who owns each main token and on how many GET-AUX excursions
each algorithm makes, so one function charges them from per-algorithm owner
arrays (:func:`charge_simulation`): :func:`simulate_in_cluster` calls it
after running its streams, and a caller that knows its owners and outputs
without a stream (the K3 layers of Lemma 17) calls it directly.  The
worst-case bound is also computed
(:meth:`SimulationResult.theoretical_round_bound`) so experiments can compare
measured against predicted.

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

import numpy as np

from repro.congest.cost import CostAccountant
from repro.decomposition.cluster import CommunicationCluster
from repro.decomposition.routing import ClusterRouter
from repro.graphs.index import sorted_distinct
from repro.streaming.algorithm import PartialPassAlgorithm
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
            in the paper's corollaries, ``k^{1/3}`` rounded to the nearest
            integer (``k = 40`` gives 3) and capped by ``k/ζ``.
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


@dataclass(frozen=True)
class SimulationCharge:
    """The simulator chains :func:`charge_simulation` charged.

    Attributes:
        lam: the simulator-chain length ``λ``.
        homes: per algorithm, the chain member hosting each main token, as a
            position in ``cluster.ordered_members()``.
        state_passes: total number of state hand-offs.
    """

    lam: int
    homes: list[np.ndarray]
    state_passes: int


def charge_simulation(
    plan: SimulationPlan,
    router: ClusterRouter,
    owners: Sequence[np.ndarray],
    aux_calls: Sequence[int] = (),
) -> SimulationCharge:
    """Charge Theorem 11's Phases 1 and 2 for ``ζ = len(owners)`` algorithms.

    ``owners[j]`` lists the owner of each main token of algorithm ``j``, in
    stream order, as a position in ``cluster.ordered_members()``; a number
    ``>= k`` stands for an owner outside that universe (distinct owners,
    distinct numbers).  ``aux_calls[j]`` is the number of GET-AUX
    excursions algorithm ``j`` made (none when empty).

    Phase 0 takes no rounds: algorithm ``j`` is simulated by the ``j``-th
    block of members (every algorithm by the first block when ``ζλ > k``),
    and block member ``i // β`` hosts the token of member ``i``; a token
    whose owner is outside the universe goes to block member
    ``index // (β T_max)``, capped at the block's last.  Phase 1 ships every
    token from its owner to its home, routed by the larger of the most
    tokens one vertex sends and one receives.  Phase 2 charges ``B_aux + 1``
    steps of ``λ`` chain rounds plus ``ζ/δ`` delivery rounds each (the ``ζ``
    algorithms advance in parallel, which is the point of the batching in
    the proof of Theorem 11), and the words of every state hand-off (one
    fewer than the distinct homes of an algorithm) and GET-AUX round trip.
    """
    cluster = plan.cluster
    accountant = router.accountant
    zeta = len(owners)
    k = cluster.k
    lam = plan.resolved_lambda(zeta)
    beta = math.ceil(k / lam)
    per_chain = math.ceil(k / beta)
    homes = []
    for j, owner in enumerate(owners):
        outside = np.minimum(per_chain - 1, np.arange(owner.size) // max(1, beta * plan.t_max))
        start = 0 if zeta * lam > k else j * per_chain
        homes.append(start + np.where(owner < k, owner // beta, outside))
    sent, received = np.concatenate(owners), np.concatenate(homes)
    router.route(
        max_words_per_vertex=int(max(
            np.bincount(sent).max(initial=0), np.bincount(received).max(initial=0)
        )),
        total_words=int(sent.size),
        phase="phase1-tokens",
    )

    algorithm = np.repeat(np.arange(zeta), [home.size for home in homes])
    active = np.bincount(sorted_distinct(algorithm * k + received) // k, minlength=zeta)
    state_passes = int(np.maximum(active - 1, 0).sum())
    excursions = sum(aux_calls)
    steps = max(aux_calls, default=0) + 1
    sequential_depth = steps * max(1, lam)
    parallel_delivery = steps * math.ceil(zeta / max(1.0, cluster.delta))
    accountant.local_rounds(
        (sequential_depth + parallel_delivery) * accountant.overhead(cluster.n),
        phase="streaming:phase2-steps",
    )
    state_words = 8 * (state_passes + 2 * excursions)  # a handful of counters each
    accountant.metrics.add_messages(
        state_words, phase="streaming:phase2-state", words=state_words
    )
    return SimulationCharge(lam=lam, homes=homes, state_passes=state_passes)


def simulate_in_cluster(
    instances: Sequence[AlgorithmInstance],
    plan: SimulationPlan,
    router: ClusterRouter | None = None,
    accountant: CostAccountant | None = None,
) -> SimulationResult:
    """Simulate ``ζ`` partial-pass streaming algorithms in a cluster (Theorem 11).

    Runs every algorithm over its stream, then charges the simulation with
    :func:`charge_simulation` and records which vertex stores each output
    token: the chain member hosting the main token read last, or that
    token's owner for a token written during a GET-AUX excursion.

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

    members = cluster.ordered_members()
    if not members:
        raise ValueError("cluster has no V^- vertices; cannot host a simulation")
    for instance in instances:
        instance.validate_input_contiguity(plan.t_max)

    outputs: list[list[object]] = []
    logs = []
    for instance in instances:
        stream = instance.algorithm.enforce_budgets(list(instance.tokens))
        outputs.append(instance.algorithm.run_reference(stream))
        logs.append(stream.log)
    # Owners as member positions; an owner outside the members gets the
    # next free number.
    position = dict(zip(members, range(len(members))))
    owners = [
        np.array([position.setdefault(t.owner, len(position)) for t in instance.tokens],
                 dtype=np.int64)
        for instance in instances
    ]
    charge = charge_simulation(plan, router, owners, [log.get_aux_calls for log in logs])

    # A token written before the first read lives at the first active chain
    # member.
    output_holders: list[dict[int, int]] = []
    for instance, log, homes in zip(instances, logs, charge.homes):
        first = members[int(homes.min()) if homes.size else 0]
        output_holders.append({
            out_index: (
                first if main_index < 0
                else instance.tokens[main_index].owner if in_aux
                else members[homes[main_index]]
            )
            for out_index, (main_index, in_aux) in enumerate(log.write_contexts)
        })

    metrics_after = router.accountant.metrics.snapshot()
    return SimulationResult(
        outputs=outputs,
        output_holders=output_holders,
        rounds=metrics_after["rounds"] - metrics_before["rounds"],
        messages=metrics_after["words"] - metrics_before["words"],
        lam=charge.lam,
        zeta=zeta,
        state_passes=charge.state_passes,
        aux_excursions=sum(log.get_aux_calls for log in logs),
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
