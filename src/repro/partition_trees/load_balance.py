"""Load-balancing primitives inside communication clusters (Lemmas 19, 20, 27).

* :func:`broadcast_messages` -- Lemma 27: make ``O(n)`` messages known to
  every ``V_C^-`` vertex in ``n^{1/2+o(1)}`` rounds (gather at the
  lowest-numbered vertex, then doubling).
* :func:`amplifier_broadcast` -- Lemma 19: make ``O(k^{2/3})`` messages,
  each initially held by a unique vertex, known to every ``V_C^-`` vertex in
  ``k^{1/3} * n^{o(1)}`` rounds using amplifier chains.
* :func:`balance_by_communication_degree` -- Lemma 20 / Algorithm 1: a
  partial-pass streaming algorithm that assigns numbered messages to the
  high-degree vertices ``V_C^*`` proportionally to their communication
  degree, so each receives ``O(deg_C(v)/μ)`` messages;
  :func:`assign_leaf_parts` numbers a tree's leaf parts as those messages.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Sequence

from repro.decomposition.cluster import CommunicationCluster
from repro.decomposition.routing import ClusterRouter
from repro.partition_trees.tree import LeafAssignment, PartitionTree
from repro.streaming.algorithm import PartialPassAlgorithm, StreamingParameters
from repro.streaming.simulation import AlgorithmInstance, SimulationPlan, simulate_in_cluster
from repro.streaming.stream import MainToken, Stream


# ---------------------------------------------------------------------------
# Lemma 27: full broadcast via gather + doubling
# ---------------------------------------------------------------------------


def broadcast_messages(
    cluster: CommunicationCluster,
    router: ClusterRouter | None,
    num_messages: int,
) -> int:
    """Charge the Lemma 27 broadcast of ``num_messages`` messages; return rounds."""
    if router is None or num_messages <= 0:
        return 0
    return router.broadcast(total_words=num_messages, phase="lemma27-broadcast")


# ---------------------------------------------------------------------------
# Lemma 19: amplifier-chain broadcast of O(k^{2/3}) messages
# ---------------------------------------------------------------------------


def amplifier_broadcast(
    cluster: CommunicationCluster,
    router: ClusterRouter | None,
    message_holders: dict[Hashable, int],
) -> dict[Hashable, set[int]]:
    """Distribute messages to all ``V_C^-`` vertices via amplifier chains.

    Args:
        cluster: the communication cluster.
        router: router used for cost charging (``None`` skips charging).
        message_holders: map ``message id -> initial holder`` (a ``V_C^-``
            vertex).  Lemma 19 assumes ``O(k^{2/3})`` messages with each
            vertex initially holding ``O(k^{1/3})``.

    Returns:
        Map ``message id -> set of vertices that know it`` (all of ``V_C^-``).
    """
    members = cluster.ordered_members()
    if not members:
        return {}
    k = len(members)
    beta = max(1, math.ceil(k ** (2.0 / 3.0)))
    messages = sorted(message_holders, key=lambda m: str(m))

    # Deterministic amplifier chain per message: chain j uses the block of
    # members starting at (j * chain_len) mod k, so each vertex lands in O(1)
    # chains when |messages| = O(k^{2/3}).
    chain_len = max(1, math.ceil(k / beta))
    per_vertex_phase1_send: dict[int, int] = {}
    per_vertex_phase2_send: dict[int, int] = {}
    for index, message in enumerate(messages):
        holder = message_holders[message]
        start = (index * chain_len) % k
        chain_members = [members[(start + offset) % k] for offset in range(chain_len)]
        per_vertex_phase1_send[holder] = per_vertex_phase1_send.get(holder, 0) + len(chain_members)
        for member in chain_members:
            per_vertex_phase2_send[member] = per_vertex_phase2_send.get(member, 0) + beta

    if router is not None:
        router.route(
            max_words_per_vertex=max(per_vertex_phase1_send.values(), default=0),
            total_words=sum(per_vertex_phase1_send.values()),
            phase="lemma19-phase1",
        )
        router.route(
            max_words_per_vertex=max(
                max(per_vertex_phase2_send.values(), default=0), len(messages)
            ),
            total_words=sum(per_vertex_phase2_send.values()),
            phase="lemma19-phase2",
        )
    return {message: set(members) for message in messages}


# ---------------------------------------------------------------------------
# Lemma 20 / Algorithm 1: balance messages by communication degree
# ---------------------------------------------------------------------------


class MessageBalancer(PartialPassAlgorithm):
    """Algorithm 1 of the paper: assign message ranges by communication degree.

    The input stream has one main token per ``V_C^-`` vertex (in identifier
    order) carrying ``(v, deg_C(v))``.  Vertices below half the average
    communication degree receive the empty range; every other vertex receives
    the next ``2 * ceil(M * deg_C(v) / m)`` message numbers.
    """

    def __init__(self, num_messages: int, total_comm_degree: int, mu: float, n: int, k: int):
        self.num_messages = num_messages
        self.total_comm_degree = max(1, total_comm_degree)
        self.mu = mu
        self.n = n
        self.k = max(1, k)

    def parameters(self) -> StreamingParameters:
        return StreamingParameters(
            token_bits=4 * max(8, math.ceil(math.log2(max(2, self.n)))),
            n_in=self.k,
            n_out=self.k,
            b_aux=0,
            b_write=1,
        )

    def process(self, stream: Stream) -> None:
        leaf = 0
        while True:
            token = stream.read()
            if token is None:
                break
            vertex, degree = token.summary
            if degree < self.mu / 2.0:
                stream.write((vertex, None))
                continue
            length = 2 * math.ceil(self.num_messages * degree / self.total_comm_degree)
            stream.write((vertex, (leaf + 1, leaf + length)))
            leaf += length


@dataclass
class DegreeBalancedAssignment:
    """Result of Lemma 20: which message numbers each vertex is responsible for.

    ``ranges`` follows the balancer's output: vertex by vertex, each range
    starting after the previous one, so the upper ends never decrease.
    """

    ranges: dict[int, tuple[int, int] | None]
    rounds: int

    @cached_property
    def _by_upper_end(self) -> tuple[list[int], list[tuple[int, int]]]:
        """The upper ends of the ranges, in order, and ``(lower end, vertex)``
        of each; vertices without a range are skipped."""
        ranged = [(interval, v) for v, interval in self.ranges.items() if interval is not None]
        return [hi for (_, hi), _ in ranged], [(lo, v) for (lo, _), v in ranged]

    def owner_of_message(self, message_number: int) -> int | None:
        """The vertex whose range contains ``message_number`` (1-based): the
        first range whose upper end reaches it, found by binary search."""
        upper, lower = self._by_upper_end
        position = bisect.bisect_left(upper, message_number)
        if position < len(lower) and lower[position][0] <= message_number:
            return lower[position][1]
        return None

    def messages_of(self, vertex: int, num_messages: int) -> list[int]:
        interval = self.ranges.get(vertex)
        if interval is None:
            return []
        lo, hi = interval
        return [m for m in range(lo, min(hi, num_messages) + 1)]


def balance_by_communication_degree(
    cluster: CommunicationCluster,
    router: ClusterRouter | None,
    num_messages: int,
    lam: int | None = None,
) -> DegreeBalancedAssignment:
    """Run Lemma 20: distribute ``num_messages`` messages across ``V_C^*``.

    The assignment is produced by simulating Algorithm 1 as a partial-pass
    streaming algorithm (Theorem 11) in the cluster and then charging the
    redistribution steps; the returned ranges satisfy the
    ``O(deg_C(v)/μ)``-messages-per-vertex guarantee checked by the tests.
    """
    members = cluster.ordered_members()
    if not members:
        return DegreeBalancedAssignment(ranges={}, rounds=0)
    total_comm_degree = sum(cluster.communication_degree(v) for v in members)
    mu = cluster.mu
    n = cluster.n
    balancer = MessageBalancer(
        num_messages=num_messages,
        total_comm_degree=total_comm_degree,
        mu=mu,
        n=n,
        k=len(members),
    )
    tokens = [
        MainToken(index=i, owner=v, summary=(v, cluster.communication_degree(v)))
        for i, v in enumerate(members)
    ]
    plan = SimulationPlan(cluster=cluster, t_max=1, lam=lam)
    rounds_before = router.accountant.metrics.rounds if router is not None else 0
    if router is not None:
        result = simulate_in_cluster(
            [AlgorithmInstance(algorithm=balancer, tokens=tokens)], plan, router=router
        )
        outputs = result.outputs[0]
        # Redistribution: each vertex learns its own range (O(k^{2/3}) tokens
        # spread out, O(1) received per vertex), then fetches its messages.
        router.direct(
            max_sent=math.ceil(len(members) ** (2.0 / 3.0)),
            max_received=max(1, math.ceil(num_messages / max(1, len(members)))),
            total_words=len(members),
            phase="lemma20-redistribute",
        )
        max_fetch = 0
        for vertex, interval in outputs:
            if interval is not None:
                max_fetch = max(max_fetch, interval[1] - interval[0] + 1)
        router.direct(
            max_sent=max_fetch,
            max_received=max_fetch,
            total_words=num_messages,
            phase="lemma20-fetch",
        )
    else:
        stream = balancer.enforce_budgets(tokens)
        outputs = balancer.run_reference(stream)
    rounds_after = router.accountant.metrics.rounds if router is not None else 0
    ranges = {vertex: interval for vertex, interval in outputs}
    return DegreeBalancedAssignment(ranges=ranges, rounds=rounds_after - rounds_before)


def assign_leaf_parts(
    cluster: CommunicationCluster, router: ClusterRouter | None, tree: PartitionTree
) -> LeafAssignment:
    """Lemma 20 for a partition tree's leaf layer: leaf part number ``i``
    (from 1, in ``tree.leaf_parts()`` order) goes to the ``V_C^*`` vertex
    whose range holds ``i``; a number past every range goes to ``V_C^*``
    vertex ``i mod |V_C^*|`` (to a ``V_C^-`` vertex when ``V_C^*`` is empty,
    to ``-1`` when there is none)."""
    leaf_parts = tree.leaf_parts()
    balanced = balance_by_communication_degree(cluster, router, num_messages=len(leaf_parts))
    fallback = sorted(cluster.v_star) or cluster.ordered_members()
    assignment = LeafAssignment()
    for number, (node, part_index) in enumerate(leaf_parts, start=1):
        owner = balanced.owner_of_message(number)
        if owner is None:
            owner = fallback[number % len(fallback)] if fallback else -1
        assignment.assign(node.path, part_index, owner)
    return assignment
