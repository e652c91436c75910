"""The fault-tolerant compiler: wrap any algorithm to survive vertex faults.

:func:`compile_robust` takes an arbitrary per-vertex algorithm (or a
:class:`~repro.engine.vector.VectorAlgorithm` with a ``per_vertex`` twin)
and a :class:`~repro.robust.strategies.RobustStrategy`, and produces a
*compiled* protocol that executes the same logical computation on a
replicated topology:

* every logical vertex ``v`` becomes a group of ``k`` physical replicas
  ``(v, 0) .. (v, k-1)``, every logical edge the complete bipartite bundle
  between the two groups (:func:`replica_graph`);
* each replica runs the unmodified inner algorithm, but the wrapper
  intercepts its mailbox in both directions: outgoing logical messages are
  spread over the group per the strategy (full copies for replication, code
  shares for erasure coding), incoming physical messages are grouped by
  sending group and voted/decoded back into at most one logical message;
* logical outputs are recovered by majority vote across each group.

Because the inner algorithm is deterministic and every replica of a group
receives the identical decoded mailbox, all live replicas trace the *same*
logical execution — the bare algorithm's clean run — even while crash-stop
faults silence replicas and Byzantine faults corrupt wire payloads
(:mod:`repro.robust.scenarios`).  The grouping step relies on a CONGEST
invariant the engine enforces: one word per edge per round means at most
one message completes per directed edge per round, and all replicas of a
sender share identical queue histories, so everything that arrives from one
group in one round belongs to one logical message.

The compiled run reports its cost as ``round_stretch`` on the returned
:class:`~repro.congest.network.SynchronousRun`: physical rounds over the
bare clean run's rounds (replication ~1.0; erasure coding a small constant
from the per-share checksum/framing overhead).

Self-healing mode
-----------------

``compile_robust(..., heal=True)`` arms a wrapper-level repair protocol on
top of the same replica topology, for adversaries whose *cumulative* fault
count exceeds the strategy's static budget ``f`` (e.g. the adaptive
scenarios of :mod:`repro.robust.scenarios` walking through one hot replica
group).  Three mechanisms compose, all riding the existing edge bundles:

* **detection** — every replica monitors the *seats* of each neighbouring
  group: a seat that contributes no checksum-valid share for
  ``heal_window`` consecutive rounds in which its group was otherwise
  active is flagged (persistently silent = crashed; persistently
  checksum-failing = Byzantine), and the detector notifies the flagged
  group over the bundle edges;
* **re-seating** — the lowest-indexed live replica of the notified group
  adopts each dead seat: it captures a :class:`RobustState` snapshot of
  its inner algorithm, ships the codec-encoded snapshot to every
  physical neighbour as proof the seat is re-seated on coherent state
  (receivers decode it and re-arm detection), and from then on emits the
  adopted seat's strategy share alongside its own, so decoders keep
  seeing at least ``d`` valid shares;
* **vote repair** — logical outputs exclude seats the group's survivors
  reported dead, so replicas frozen mid-computation cannot outvote the
  live ones.

The guarantee mirrors self-stabilising composition: the compiled run
recovers the bare clean digest under any fault sequence, of any cumulative
size, as long as at most ``f`` faults overlap one detection window — each
window leaves ``>= d`` shares decodable (erasure coding) resp. an honest
majority of live copies (replication) while the re-seat completes.
"""

from __future__ import annotations

import copy

from typing import Any, Hashable, Iterable

import networkx as nx

from repro.congest.message import Message
from repro.congest.metrics import CongestMetrics
from repro.congest.network import SynchronousRun
from repro.congest.vertex import VertexAlgorithm, VertexFactory
from repro.engine.backend import Backend
from repro.engine.runner import resolve_backend, run_algorithm
from repro.engine.scenarios import DeliveryScenario
from repro.engine.vector import as_vertex_factory, is_vector_algorithm
from repro.obs.tracer import Tracer
from repro.robust.coding import CodecError, decode_payload, encode_payload
from repro.robust.strategies import (
    RobustStrategy,
    majority_vote,
    resolve_strategy,
)

__all__ = ["RobustCompiled", "RobustState", "compile_robust", "replica_graph"]

# Reserved wrapper-level tags (the "\x00" prefix keeps them disjoint from
# any inner algorithm's tag namespace).  In heal mode every share travels
# as "\x00shr:<seat>:<seq>\x00<tag>": the explicit seat index lets an
# adopter emit a covered seat's share from its own physical vertex, and
# the per-(receiver, tag) sequence number lets receivers reassemble one
# logical message across rounds when an adopter's doubled edge traffic
# skews arrival times.  Tags cost no words, so the clean path pays nothing.
_HEAL_TAG = "\x00heal"
_RESEAT_TAG = "\x00reseat"
_SHARE_PREFIX = "\x00shr:"
_HEAL_OUTPUT = "\x00robust-heal"


class RobustState:
    """A codec-encodable snapshot of a replica's inner algorithm state.

    The healing protocol's transferable unit: :meth:`capture` deep-copies
    the inner algorithm's attribute dict, :meth:`encode` serialises it
    through the robust codec (:func:`repro.robust.coding.encode_payload`,
    so it ships as ordinary 16-bit symbols over existing bundles), and
    :meth:`decode` / :meth:`restore` rebuild a working inner instance on
    the other side.  A corrupted snapshot fails :meth:`decode` with
    :class:`~repro.robust.coding.CodecError` — receivers treat that as
    "no announcement" rather than accepting a poisoned re-seat.
    """

    __slots__ = ("vertex", "state")

    def __init__(self, vertex: Hashable, state: dict[str, Any]):
        self.vertex = vertex
        self.state = state

    @classmethod
    def capture(cls, algorithm: VertexAlgorithm) -> "RobustState":
        return cls(algorithm.vertex, copy.deepcopy(dict(vars(algorithm))))

    def encode(self) -> tuple[int, ...]:
        return encode_payload(("robust-state", self.vertex, self.state))

    @classmethod
    def decode(cls, symbols: Iterable[int]) -> "RobustState":
        decoded = decode_payload(tuple(symbols))
        if (
            type(decoded) is not tuple
            or len(decoded) != 3
            or decoded[0] != "robust-state"
            or type(decoded[2]) is not dict
        ):
            raise CodecError("not a RobustState payload")
        return cls(decoded[1], decoded[2])

    def restore(
        self,
        factory: VertexFactory,
        neighbors: Iterable[Hashable],
        n: int,
    ) -> VertexAlgorithm:
        """Rebuild an inner algorithm seated on this snapshot's state."""
        inner = factory(self.vertex, list(neighbors), n)
        vars(inner).update(copy.deepcopy(self.state))
        return inner


def replica_graph(graph: nx.Graph, k: int) -> nx.Graph:
    """The replicated topology: ``k`` replicas per vertex, bundled edges.

    Nodes are ``(v, i)`` pairs; each logical edge ``{u, v}`` becomes the
    complete bipartite bundle between the two groups.  Groups need no
    internal edges: replicas never talk to their siblings — they stay in
    agreement by determinism, not by communication.
    """
    if k < 1:
        raise ValueError(f"replica count must be >= 1; got {k}")
    physical = nx.Graph()
    for v in graph.nodes:
        for i in range(k):
            physical.add_node((v, i))
    for u, v in graph.edges:
        for i in range(k):
            for j in range(k):
                physical.add_edge((u, i), (v, j))
    return physical


class _RobustReplica(VertexAlgorithm):
    """One physical replica: the inner algorithm behind a coding mailbox."""

    def __init__(
        self,
        inner_factory: VertexFactory,
        strategy: RobustStrategy,
        vertex: tuple[Hashable, int],
        neighbors: Iterable[Hashable],
        n: int,
        *,
        heal: bool = False,
        heal_window: int = 3,
        tracer: Tracer | None = None,
    ):
        super().__init__(vertex, neighbors, n)
        self._strategy = strategy
        self._logical, self._index = vertex
        logical_neighbors = sorted(
            {u for u, _ in self.neighbors if u != self._logical}
        )
        self._inner = inner_factory(
            self._logical, logical_neighbors, n // strategy.k
        )
        self._heal = heal
        if heal:
            self._window = heal_window
            self._tracer = tracer
            # Seat health of every neighbouring group: consecutive
            # active-round misses per (group, seat), flags already sent,
            # seats known to be served by an adopter (exempt from
            # monitoring — their timing is skewed by design), seats of
            # *this* group that neighbours reported dead, and the seats
            # this replica currently covers / has announced.
            self._misses: dict[tuple[Hashable, int], int] = {}
            self._flagged: set[tuple[Hashable, int]] = set()
            self._served: set[tuple[Hashable, int]] = set()
            self._reported: set[int] = set()
            self._announced: set[int] = set()
            self._covering: frozenset = frozenset()
            self._reseats = 0
            # Logical-message sequencing: send side counts per
            # (receiver, tag); receive side reassembles per
            # (group, tag, seq) across rounds and remembers what decoded.
            self._send_seq: dict[tuple[Hashable, str], int] = {}
            self._pending: dict[
                tuple[Hashable, str, int], dict[int, Any]
            ] = {}
            self._done: set[tuple[Hashable, str, int]] = set()
            members: dict[Hashable, list] = {}
            for physical in self.neighbors:
                group = physical[0]
                if group != self._logical:
                    members.setdefault(group, []).append(physical)
            self._group_members = {
                group: sorted(seats) for group, seats in members.items()
            }

    def on_round(self, round_index: int, inbox: list[Message]) -> list[Message]:
        if self._heal:
            return self._on_round_heal(round_index, inbox)
        strategy = self._strategy
        groups: dict[tuple[Hashable, str], list[tuple[int, Any]]] = {}
        for message in inbox:
            sender, index = message.sender
            groups.setdefault((sender, message.tag), []).append(
                (index, message.payload)
            )
        logical_inbox = []
        for (sender, tag), entries in sorted(
            groups.items(), key=lambda item: (repr(item[0][0]), item[0][1])
        ):
            ok, payload = strategy.decode(entries, sender=sender, tag=tag)
            if ok:
                logical_inbox.append(
                    Message(
                        sender=sender,
                        receiver=self._logical,
                        tag=tag,
                        payload=payload,
                    )
                )
        sent = self._inner.on_round(round_index, logical_inbox)
        outgoing = []
        for message in sent:
            shares = strategy.shares(
                message.payload, sender=self._logical, tag=message.tag
            )
            mine = shares[self._index]
            for j in range(strategy.k):
                outgoing.append(
                    Message(
                        sender=self.vertex,
                        receiver=(message.receiver, j),
                        tag=message.tag,
                        payload=mine,
                    )
                )
        # Mirror the inner state every round, so a crash freezes this
        # replica's vote at the inner algorithm's latest local output.
        self.output = self._inner.output
        if self._inner.halted:
            self.halt()
        return outgoing

    # -- healing path --------------------------------------------------------

    def _on_round_heal(
        self, round_index: int, inbox: list[Message]
    ) -> list[Message]:
        strategy = self._strategy
        k = strategy.k
        outgoing: list[Message] = []
        arrivals: dict[Hashable, set[int]] = {}
        for message in inbox:
            group = message.sender[0]
            tag = message.tag
            if tag == _HEAL_TAG:
                # A neighbour reports one of *our* seats dead.  A replica
                # never convicts itself: a live, wrongly flagged seat just
                # keeps sending (its shares are dedup-safe next to an
                # adopter's covers), which is the self-stabilising out.
                seat = message.payload
                if type(seat) is int and 0 <= seat < k and seat != self._index:
                    self._reported.add(seat)
                continue
            if tag == _RESEAT_TAG:
                seat = self._accept_reseat(group, message.payload)
                if seat is not None:
                    # The seat is served by an adopter now: its copies ride
                    # a doubled edge and arrive late, so exempt it from
                    # silence monitoring.  The adopter's own seat remains
                    # monitored — its death restarts the cycle.
                    self._misses.pop((group, seat), None)
                    self._flagged.discard((group, seat))
                    self._served.add((group, seat))
                continue
            if not tag.startswith(_SHARE_PREFIX):
                continue
            head, _, tag = tag[len(_SHARE_PREFIX):].partition("\x00")
            try:
                seat_text, seq_text = head.split(":")
                seat, seq = int(seat_text), int(seq_text)
            except ValueError:
                continue
            if not 0 <= seat < k or seq < 0:
                continue
            if strategy.share_valid(
                message.payload, sender=group, tag=tag, index=seat
            ):
                arrivals.setdefault(group, set()).add(seat)
            key = (group, tag, seq)
            if key in self._done:
                continue
            entry = self._pending.setdefault(key, {})
            entry.setdefault(seat, message.payload)
        logical_inbox = self._drain_pending()
        outgoing.extend(self._monitor_seats(arrivals))
        outgoing.extend(self._adopt_seats(round_index))
        sent = self._inner.on_round(round_index, logical_inbox)
        covering = self._covering
        for message in sent:
            shares = strategy.shares(
                message.payload, sender=self._logical, tag=message.tag
            )
            seq_key = (message.receiver, message.tag)
            seq = self._send_seq.get(seq_key, 0)
            self._send_seq[seq_key] = seq + 1
            for j in range(k):
                receiver = (message.receiver, j)
                for seat in (self._index, *covering):
                    outgoing.append(
                        Message(
                            sender=self.vertex,
                            receiver=receiver,
                            tag=f"{_SHARE_PREFIX}{seat}:{seq}\x00{message.tag}",
                            payload=shares[seat],
                        )
                    )
        self.output = (
            _HEAL_OUTPUT,
            self._inner.output,
            tuple(sorted(self._reported)),
            self._reseats,
        )
        if self._inner.halted:
            self.halt()
        return outgoing

    def _drain_pending(self) -> list[Message]:
        """Decode every reassembled logical message that is ready.

        A message decodes once every seat expected *on time* has
        contributed — dead-and-unserved seats are excused outright, and
        adopter-served seats are excused because their copies trail on a
        doubled edge (decoding from the on-time shares is exactly the
        local-decode economy; stragglers land in ``_done`` and drop).  So
        a single early copy cannot be accepted while honest siblings are
        still in flight — the replication majority stays meaningful.
        Re-attempting *all* pending keys every round lets a message that
        was waiting on a seat unblock the moment that seat gets flagged.
        """
        strategy = self._strategy
        k = strategy.k
        logical_inbox: list[Message] = []
        for key in sorted(
            self._pending,
            key=lambda item: (repr(item[0]), item[1], item[2]),
        ):
            group, tag, seq = key
            entries = sorted(self._pending[key].items())
            expected = k - sum(
                1
                for seat in range(k)
                if (group, seat) in self._served
                or (group, seat) in self._flagged
            )
            if len(entries) < max(1, expected):
                continue
            ok, payload = strategy.decode(entries, sender=group, tag=tag)
            if not ok:
                continue
            self._done.add(key)
            del self._pending[key]
            logical_inbox.append(
                Message(
                    sender=group,
                    receiver=self._logical,
                    tag=tag,
                    payload=payload,
                )
            )
        return logical_inbox

    def _accept_reseat(self, group: Hashable, payload: Any) -> int | None:
        """Validate a re-seat announcement; returns the seat, or None."""
        if (
            type(payload) is not tuple
            or len(payload) < 2
            or type(payload[0]) is not int
            or not 0 <= payload[0] < self._strategy.k
        ):
            return None
        try:
            state = RobustState.decode(payload[2:])
        except CodecError:
            return None
        if state.vertex != group:
            return None
        return payload[0]

    def _monitor_seats(self, arrivals: dict[Hashable, set[int]]) -> list[Message]:
        """Advance per-seat miss counters; flag and notify on expiry.

        A seat only accrues misses in rounds where its group was otherwise
        *active* (some sibling produced a valid share), so a quiescent
        group never looks faulty — silence is only damning next to
        siblings that are talking.
        """
        notifications: list[Message] = []
        for group, valid_seats in arrivals.items():
            if not valid_seats:
                continue
            for seat in range(self._strategy.k):
                key = (group, seat)
                if seat in valid_seats:
                    self._misses[key] = 0
                    self._flagged.discard(key)
                    continue
                if key in self._served:
                    # Adopter-served seats ride doubled edges: their
                    # timing is skewed by design, not suspicious.
                    continue
                misses = self._misses.get(key, 0) + 1
                self._misses[key] = misses
                if misses >= self._window and key not in self._flagged:
                    self._flagged.add(key)
                    self._misses[key] = 0
                    for member in self._group_members[group]:
                        notifications.append(
                            Message(
                                sender=self.vertex,
                                receiver=member,
                                tag=_HEAL_TAG,
                                payload=seat,
                            )
                        )
        return notifications

    def _adopt_seats(self, round_index: int) -> list[Message]:
        """Re-seat reported-dead seats if this replica is the adopter.

        Every survivor hears the same notifications, so the deterministic
        rule — the lowest-indexed seat nobody reported dead covers dead
        seats, lowest first, until the group serves ``strategy.min_live``
        seats again — needs no intra-group coordination.  Covering only
        down to the decode floor keeps repair bandwidth (and the arrival
        skew it causes) off groups that can still decode on their own.
        Each adoption ships a :class:`RobustState` snapshot announcement
        to every physical neighbour and is counted/traced exactly once.
        """
        strategy = self._strategy
        live = [i for i in range(strategy.k) if i not in self._reported]
        if not live or live[0] != self._index:
            self._covering = frozenset()
            return []
        needed = max(0, strategy.min_live - len(live))
        self._covering = frozenset(sorted(self._reported)[:needed])
        announcements: list[Message] = []
        newly = sorted(self._covering - self._announced)
        if not newly:
            return []
        snapshot = RobustState.capture(self._inner).encode()
        for seat in newly:
            self._announced.add(seat)
            self._reseats += 1
            tracer = self._tracer
            if tracer is not None and tracer.enabled:
                tracer.replica_reseated(
                    round_index, (self._logical, seat), self.vertex
                )
            payload = (seat, self._index, *snapshot)
            for neighbor in self.neighbors:
                announcements.append(
                    Message(
                        sender=self.vertex,
                        receiver=neighbor,
                        tag=_RESEAT_TAG,
                        payload=payload,
                    )
                )
        return announcements


def _heal_vote(group_outputs: list[Any]) -> tuple[Any, int]:
    """Vote one group's healed outputs: ``(logical output, reseat events)``.

    Each live replica's output is the ``(_HEAL_OUTPUT, inner, reported,
    reseats)`` wrapper.  Reports accumulate monotonically, so the union
    over the group recovers the survivors' complete dead-seat set even
    when crashed replicas froze a stale subset; seats in the union are
    excluded from the vote so their mid-computation state cannot outvote
    live replicas.  Reseat counters are per-replica (only adopters count
    an adoption, exactly once), so their sum is the group's event total.
    """
    reported: set[int] = set()
    reseats = 0
    inner_outputs: dict[int, Any] = {}
    for seat, output in enumerate(group_outputs):
        if (
            type(output) is tuple
            and len(output) == 4
            and output[0] == _HEAL_OUTPUT
        ):
            inner_outputs[seat] = output[1]
            reported.update(output[2])
            reseats += output[3]
        else:
            # A replica crashed before its first on_round: no wrapper,
            # no reports, an inner output of None.
            inner_outputs[seat] = None
    candidates = [
        output for seat, output in inner_outputs.items() if seat not in reported
    ]
    if not candidates:
        # The whole group was reported dead: nothing better than a plain
        # majority over the frozen states exists.
        candidates = list(inner_outputs.values())
    return majority_vote(candidates), reseats


class RobustCompiled:
    """A compiled protocol: run the inner algorithm on a replicated topology.

    Produced by :func:`compile_robust`; :meth:`run` mirrors the backend
    ``run`` signature and returns a logical-level
    :class:`~repro.congest.network.SynchronousRun` whose outputs are the
    group-voted logical outputs and whose ``round_stretch`` compares the
    compiled execution against the bare algorithm's clean round count.
    """

    def __init__(
        self,
        algorithm: VertexFactory,
        strategy: RobustStrategy,
        *,
        heal: bool = False,
        heal_window: int = 3,
    ):
        if heal_window < 1:
            raise ValueError(f"heal_window must be >= 1; got {heal_window}")
        self.algorithm = algorithm
        self.strategy = strategy
        self.heal = heal
        self.heal_window = heal_window
        self.inner_factory = (
            as_vertex_factory(algorithm)
            if is_vector_algorithm(algorithm)
            else algorithm
        )

    def factory(self, vertex, neighbors, n) -> _RobustReplica:
        """The physical-vertex factory the engine backends drive."""
        return _RobustReplica(
            self.inner_factory,
            self.strategy,
            vertex,
            neighbors,
            n,
            heal=self.heal,
            heal_window=self.heal_window,
        )

    def _runtime_factory(self, tracer: Tracer | None) -> VertexFactory:
        """Like :meth:`factory`, with the run's tracer threaded into the
        replicas so adopters can emit ``replica_reseated`` events."""
        if tracer is None or not self.heal:
            return self.factory
        return lambda vertex, neighbors, n: _RobustReplica(
            self.inner_factory,
            self.strategy,
            vertex,
            neighbors,
            n,
            heal=self.heal,
            heal_window=self.heal_window,
            tracer=tracer,
        )

    def run(
        self,
        graph: nx.Graph,
        *,
        backend: Backend | str | None = None,
        scenario: DeliveryScenario | None = None,
        max_rounds: int = 10_000,
        phase: str = "simulated",
        metrics: CongestMetrics | None = None,
        tracer: Tracer | None = None,
        baseline_rounds: int | None = None,
    ) -> SynchronousRun:
        """Execute the compiled protocol on ``graph`` under ``scenario``.

        ``baseline_rounds`` (the bare algorithm's clean round count, the
        stretch denominator) is measured with a clean run on the same
        backend when not supplied.
        """
        engine = resolve_backend(backend)
        if baseline_rounds is None:
            baseline_rounds = run_algorithm(
                graph, self.algorithm, engine,
                max_rounds=max_rounds, phase=phase,
            ).rounds
        physical = run_algorithm(
            replica_graph(graph, self.strategy.k),
            self._runtime_factory(tracer),
            engine,
            max_rounds=max_rounds,
            phase=phase,
            metrics=metrics,
            scenario=scenario,
            tracer=tracer,
        )
        outputs = {}
        reseats: int | None = None
        if self.heal:
            reseats = 0
            for v in graph.nodes:
                group = [
                    physical.outputs[(v, i)] for i in range(self.strategy.k)
                ]
                outputs[v], group_reseats = _heal_vote(group)
                reseats += group_reseats
        else:
            for v in graph.nodes:
                outputs[v] = majority_vote(
                    [physical.outputs[(v, i)] for i in range(self.strategy.k)]
                )
        stretch = (
            physical.rounds / baseline_rounds if baseline_rounds else None
        )
        return SynchronousRun(
            rounds=physical.rounds,
            metrics=physical.metrics,
            outputs=outputs,
            halted=physical.halted,
            round_stretch=stretch,
            reseats=reseats,
        )

    def describe(self) -> str:
        return (
            f"RobustCompiled(strategy={self.strategy.describe()}, "
            f"k={self.strategy.k})"
        )


def compile_robust(
    algorithm: VertexFactory,
    *,
    strategy: RobustStrategy | str,
    heal: bool = False,
    heal_window: int = 3,
    **strategy_params: Any,
) -> RobustCompiled:
    """Wrap ``algorithm`` so it survives vertex and link failures.

    Args:
        algorithm: a per-vertex factory, or a
            :class:`~repro.engine.vector.VectorAlgorithm` subclass (its
            ``per_vertex`` twin runs inside the replicas).
        strategy: a :class:`~repro.robust.strategies.RobustStrategy`
            instance, or a name (``"replication"`` / ``"erasure-coding"``)
            resolved with ``strategy_params``.
        heal: arm the self-healing runtime (seat-health detection,
            :class:`RobustState` re-seating, vote repair), which survives
            fault sequences whose cumulative size exceeds the strategy's
            static ``f`` as long as at most ``f`` faults overlap any
            detection window.  Strictly opt-in: ``heal=False`` runs are
            bit-identical to previous releases.
        heal_window: consecutive silent/checksum-failing active rounds
            before a seat is flagged dead.

    Returns:
        A :class:`RobustCompiled` whose :meth:`~RobustCompiled.run` executes
        the replicated protocol and decodes logical outputs (and reports
        ``reseats`` on the returned run when healing).
    """
    return RobustCompiled(
        algorithm,
        resolve_strategy(strategy, **strategy_params),
        heal=heal,
        heal_window=heal_window,
    )
