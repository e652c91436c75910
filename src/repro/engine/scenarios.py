"""Pluggable delivery scenarios for the execution engine.

A :class:`DeliveryScenario` decides, independently for every directed edge
and every round, whether the word at the head of that edge's queue crosses
this round.  The clean synchronous CONGEST model always transmits; faulty
models may hold a word back, which stretches a ``w``-word transfer beyond
``w`` rounds exactly the way a lossy or adversarially scheduled link would.

Scenarios are *stateless pure functions* of ``(edge, round_index)``: every
decision is derived from a seeded cryptographic hash rather than from a
shared mutable RNG.  This is what makes the same scenario reproducible
across all engine backends — the reference simulator queries the decision
edge-by-edge while the batch schedulers consume the identical decisions in
bulk, and both see the same world.

Every scenario exposes the decision function twice:

* :meth:`DeliveryScenario.transmits` — the scalar form the reference
  simulator queries per ``(edge, round)``;
* :meth:`DeliveryScenario.transmit_mask` — the batch form
  (``edge_ids x rounds`` boolean matrix, each row read from its own start
  round) the :class:`~repro.engine.delivery.WordScheduler` consumes when
  computing completion rounds by prefix sums.

The built-in scenarios override the batch form with native numpy kernels:
the per-``(edge, round)`` decision is a
`splitmix64 <https://prng.di.unimi.it/splitmix64.c>`_ finalizer applied to a
per-edge blake2b base hash combined with the round (or burst window) index,
computable as pure ``uint64`` array arithmetic.  The scalar ``transmits``
evaluates the *same* integer formula, so both forms agree call-for-call —
a guarantee pinned by the property suite (``tests/test_scenario_kernels.py``).
User scenarios only need to implement ``transmits``: the default
``transmit_mask`` replays it cell by cell, so the scheduler takes the same
prefix-sum path at one Python ``transmits`` call per mask cell (see the
README's Performance section for how to add a kernel).

Batch queries address a directed edge by its id, its slot in the run's
:class:`~repro.engine.delivery.GraphIndex`; :meth:`DeliveryScenario.bind_edges`
associates those ids with the directed edge tuples the hashes are derived
from.  The scheduler binds automatically, so users never call it directly.
"""

from __future__ import annotations

import hashlib
import inspect
import math
from abc import ABC
from typing import Any, Hashable, Iterable, Sequence

import numpy as np

from repro.engine.registry import (
    available_scenarios,
    register_scenario,
    scenario_registry,
)

Edge = tuple[Hashable, Hashable]

_HASH_DENOM = float(2**64)
_MASK64 = (1 << 64) - 1
# Weyl-sequence increment (golden-ratio constant) of splitmix64: mixing
# ``base + _GOLDEN * index`` decorrelates consecutive indices.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
# Odd multipliers combining two per-vertex hashes into a directed-edge base
# (asymmetric, so (u, v) and (v, u) draw independently).
_EDGE_U = 0x9E3779B97F4A7C15
_EDGE_V = 0xC2B2AE3D27D4EB4F


def _stable_hash(*parts: object) -> int:
    """A 64-bit hash of ``parts`` that is stable across processes and runs.

    ``hash()`` is randomized per-process for strings, which would make a
    scenario disagree with itself between the experiment service's forked
    workers, and between a run and its replay in a later process; blake2b
    of the ``repr`` is deterministic everywhere.
    """
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _mix64(value: int) -> int:
    """The splitmix64 finalizer on a 64-bit integer (scalar form)."""
    value &= _MASK64
    value = ((value ^ (value >> 30)) * _MIX_A) & _MASK64
    value = ((value ^ (value >> 27)) * _MIX_B) & _MASK64
    return value ^ (value >> 31)


def _mix64_array(values: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer on a ``uint64`` array (bit-equal to scalar).

    Mixes **in place** when handed a ``uint64`` array — callers pass freshly
    allocated combination arrays, and the hot path is memory-bound, so the
    avoided copy is a full pass over the matrix.
    """
    v = values.astype(np.uint64, copy=False)
    v ^= v >> np.uint64(30)
    v *= np.uint64(_MIX_A)
    v ^= v >> np.uint64(27)
    v *= np.uint64(_MIX_B)
    v ^= v >> np.uint64(31)
    return v


class _VertexHashMixin:
    """Per-edge 64-bit hash bases derived from per-*vertex* blake2b hashes.

    Hashing each directed edge with blake2b is a per-edge Python cost paid
    at every kernel bind (``O(m)`` digests).  Deriving the edge base as an
    asymmetric uint64 combination of two per-vertex hashes needs only
    ``O(n)`` digests, memoised across binds, and the per-edge combination
    vectorises.  Subclasses define ``_hash_label`` (the salt that makes
    scenarios draw independently of each other) and call
    :meth:`_vertex_hash` / :meth:`_edge_base_arrays`.
    """

    _hash_label: str = ""
    seed: int = 0

    def _vertex_hash(self, vertex: Hashable) -> int:
        cache = self.__dict__.setdefault("_vertex_hashes", {})
        value = cache.get(vertex)
        if value is None:
            value = _stable_hash(self._hash_label, self.seed, vertex)
            cache[vertex] = value
        return value

    def _edge_base(self, edge: Edge, salt: int = 0) -> int:
        # Memoised: the scalar hot path (the reference simulator queries
        # per edge per round) must cost one dict lookup, not three mults.
        cache = self.__dict__.setdefault("_edge_base_cache", {})
        key = (edge, salt)
        value = cache.get(key)
        if value is None:
            u, v = edge
            value = _mix64(
                self._vertex_hash(u) * _EDGE_U
                + self._vertex_hash(v) * _EDGE_V
                + salt
            )
            cache[key] = value
        return value

    def _edge_base_arrays(self, edges: list[Edge]) -> tuple[np.ndarray, np.ndarray]:
        """Per-vertex hash columns (``uint64``) of the bound edge list."""
        count = len(edges)
        hash_of = self._vertex_hash
        head = np.fromiter(
            (hash_of(u) for u, _ in edges), dtype=np.uint64, count=count
        )
        tail = np.fromiter(
            (hash_of(v) for _, v in edges), dtype=np.uint64, count=count
        )
        return head, tail

    def _combine_bases(
        self, head: np.ndarray, tail: np.ndarray, salt: int = 0
    ) -> np.ndarray:
        return _mix64_array(
            head * np.uint64(_EDGE_U)
            + tail * np.uint64(_EDGE_V)
            + np.uint64(salt)
        )


class RoundStats:
    """One round's observed delivery traffic, fed to adaptive scenarios.

    ``delivered`` holds per-vertex delivered-message counts indexed by the
    dense vertex ids of :meth:`DeliveryScenario.bind_nodes`'s node list,
    measured *before* halted/crashed receiver drops — the same pre-drop
    delivery set every backend's ``messages_delivered`` tracer event
    reports, so the feedback is bit-identical across backends.
    """

    __slots__ = ("round_index", "delivered")

    def __init__(self, round_index: int, delivered: np.ndarray) -> None:
        self.round_index = round_index
        self.delivered = delivered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoundStats(round_index={self.round_index}, "
            f"delivered_total={int(self.delivered.sum())})"
        )


def _row_starts(first_round: int | np.ndarray, rows: int) -> np.ndarray:
    """``first_round`` as one ``int64`` start round per mask row.

    A scalar broadcasts to every row; an array must hold one start per row.
    """
    return np.broadcast_to(np.asarray(first_round, dtype=np.int64), (rows,))


def _probability_threshold(probability: float) -> int:
    """The integer threshold of a uniform-[0,1) draw compared against ``p``.

    A 64-bit draw ``bits`` is below probability ``p`` exactly when
    ``bits < int(p * 2**64)``; comparing integers keeps the scalar and
    array forms bit-identical (float division of a 64-bit integer rounds).
    """
    return min(int(probability * _HASH_DENOM), _MASK64)


class DeliveryScenario(ABC):
    """Decides per (directed edge, round) whether a word crosses.

    Attributes:
        is_clean: ``True`` when ``transmits`` is constantly ``True``; lets
            batch schedulers skip the transmit mask entirely and compute
            delivery rounds arithmetically.
        name: registry key when the class is registered via
            :func:`repro.engine.registry.register_scenario`; registered
            classes are selectable by name wherever a scenario is accepted.
    """

    is_clean: bool = False
    # Link faults: whether ``transmits`` can ever say no.  Scenarios whose
    # faults live entirely at the vertices (crash-stop, Byzantine) set this
    # ``False`` so the schedulers keep the clean arithmetic fast path.
    has_link_faults: bool = True
    # Vertex faults: whether ``faulty_vertices`` / ``corrupt_payload`` can
    # ever act.  The round driver skips the per-round fault bookkeeping
    # entirely when this stays ``False``.
    has_vertex_faults: bool = False
    # Adaptive adversaries: whether :meth:`observe_round` carries state the
    # scenario's later fault decisions depend on.  The round driver only pays
    # the per-round statistics feedback when this is ``True``.
    is_adaptive: bool = False
    name: str = ""
    _bound_edges: list[Edge] | None = None

    def transmits(self, edge: Edge, round_index: int) -> bool:
        """Whether ``edge`` moves its head-of-queue word in ``round_index``."""
        return True

    # -- batch form -----------------------------------------------------------

    def bind_edges(self, edges: Sequence[Edge]) -> None:
        """Associate edge ids ``0..len(edges)-1`` with edge tuples.

        Batch queries (:meth:`transmit_mask`) address edges by id; binding
        tells the scenario which directed edge each id denotes and lets
        kernel scenarios precompute per-edge hash bases / rates / phases as
        dense arrays.  The :class:`~repro.engine.delivery.WordScheduler`
        binds its :class:`~repro.engine.delivery.GraphIndex`'s ``edges`` (by
        slot) automatically; re-binding (a new run, a different graph)
        replaces the previous association.
        """
        self._bound_edges = list(edges)
        self._bind_kernel(self._bound_edges)

    def _bind_kernel(self, edges: list[Edge]) -> None:
        """Hook for kernels to precompute dense per-edge arrays."""

    def transmit_mask(
        self, edge_ids: np.ndarray, first_round: int | np.ndarray, num_rounds: int
    ) -> np.ndarray:
        """Boolean matrix: ``[i, j]`` is ``transmits(edge_ids[i], first_round[i] + j)``.

        ``first_round`` is one start round per row, or one int shared by
        every row; each row is a window of ``num_rounds`` rounds from its
        own start.  The base implementation replays the scalar
        :meth:`transmits` per cell, so every scenario supports the batch
        form; kernels override it with array arithmetic.  Requires
        :meth:`bind_edges` to have associated ids with edges.
        """
        edges = self._bound_edges
        if edges is None:
            raise RuntimeError(
                f"{type(self).__name__}.transmit_mask needs bind_edges() first "
                f"(the WordScheduler binds automatically)"
            )
        ids = np.asarray(edge_ids, dtype=np.int64)
        starts = _row_starts(first_round, ids.size).tolist()
        mask = np.empty((ids.size, num_rounds), dtype=bool)
        for i, edge_id in enumerate(ids):
            edge = edges[int(edge_id)]
            row = mask[i]
            for j in range(num_rounds):
                row[j] = self.transmits(edge, starts[i] + j)
        return mask

    # -- vertex-fault interface ----------------------------------------------
    #
    # Link faults act on edges; vertex faults act on the processors
    # themselves.  A scenario with ``has_vertex_faults = True`` marks
    # vertices crashed (they stop computing and sending; their in-flight
    # words are dropped at delivery and counted) and/or corrupts the
    # payloads faulty senders emit (Byzantine behaviour).  Decisions are
    # pure functions of ``(seed, vertex, round)`` like the link decisions,
    # so all backends observe the identical fault pattern.

    def bind_nodes(self, nodes: Sequence[Hashable]) -> None:
        """Associate the run's vertex labels (in dense-id order) with the scenario.

        Vertex-fault scenarios use the node list to draw their
        deterministic fault set and to precompute per-dense-id kernels for
        the batch forms; link-only scenarios ignore it.  Backends bind
        automatically before round 0, like the schedulers bind edges.
        """

    def faulty_vertices(self, round_index: int) -> frozenset:
        """The vertices faulty *as of* ``round_index``.

        For crash-stop faults the set is monotone in time: backends
        accumulate it anyway (once crashed, always crashed), so a scenario
        only needs to report who is down in each round.  The default — no
        vertex is ever faulty — keeps every link-fault scenario unchanged.
        """
        return frozenset()

    def corrupt_payload(
        self, sender: Hashable, receiver: Hashable, round_index: int, payload: Any
    ) -> Any:
        """The payload ``receiver`` observes from ``sender`` (Byzantine faults).

        Applied sender-side at *send* time (``round_index`` is the round
        the message was scheduled), before word accounting, so every
        backend sizes, schedules, and delivers the identical corrupted
        value.  Must never mutate ``payload`` in place — senders may share
        one payload object across receivers.  The default is the identity.
        """
        return payload

    def corrupt_values(
        self,
        senders: np.ndarray,
        receivers: np.ndarray,
        round_index: int,
        values: np.ndarray,
    ) -> np.ndarray:
        """Batch form of :meth:`corrupt_payload` for the vector fast path.

        ``senders`` / ``receivers`` are dense vertex ids (the positions of
        :meth:`bind_nodes`'s node list); ``values`` is the integer payload
        column.  Returns the corrupted column (a new array when anything
        changes).  The default replays nothing and returns ``values``.
        """
        return values

    def observe_round(self, stats: "RoundStats") -> None:
        """Feed back one round's observed delivery traffic (adaptive faults).

        Called by the round driver after the deliveries of
        ``stats.round_index`` have been computed (before halted/crashed
        drops, matching the cross-backend ``messages_delivered`` tracer
        contract), but only when ``is_adaptive`` is ``True``.  ``stats``
        carries per-vertex delivered-message counters in dense-id order
        (the order of :meth:`bind_nodes`'s node list), so an adaptive
        adversary can target traffic hot spots while staying a
        deterministic function of ``(seed, observed history)`` — identical
        on every backend.  The default ignores the feedback.
        """

    def spec_params(self) -> dict[str, Any]:
        """Constructor parameters as a plain-JSON dict (for experiment specs).

        Together with the class's registry ``name`` this makes a scenario
        instance portable: ``{"name": s.name, "params": s.spec_params()}``
        reconstructs an equivalent instance.  Scenarios holding
        non-serialisable state raise :class:`ValueError`.
        """
        return {}

    def describe(self) -> str:
        return type(self).__name__

    def __and__(self, other: "DeliveryScenario") -> "ComposedScenario":
        """Overlay composition: ``a & b`` transmits iff both ``a`` and ``b`` do."""
        return ComposedScenario.overlay(self, other)


@register_scenario("clean")
class CleanSynchronous(DeliveryScenario):
    """The standard fault-free synchronous CONGEST model."""

    is_clean = True
    has_link_faults = False

    def transmits(self, edge: Edge, round_index: int) -> bool:
        return True

    def transmit_mask(
        self, edge_ids: np.ndarray, first_round: int | np.ndarray, num_rounds: int
    ) -> np.ndarray:
        return np.ones((np.asarray(edge_ids).size, num_rounds), dtype=bool)


@register_scenario("link-drop")
class LinkDropScenario(_VertexHashMixin, DeliveryScenario):
    """Each directed edge independently drops its word with fixed probability.

    A dropped word is *retransmitted*: it simply does not cross this round
    and stays at the head of the queue, so a ``w``-word payload needs ``w``
    successful rounds rather than ``w`` rounds.  This is the smooth-faults
    regime studied for robust congested-clique computation (arXiv:2508.08740):
    bandwidth is still one word per edge per round, but an expected
    ``1/(1-q)`` stretch is paid on every transfer.

    The per-``(edge, round)`` draw is ``splitmix64(base(edge) + GOLDEN *
    round)`` over a per-edge base combined from seeded per-vertex blake2b
    hashes — integer arithmetic shared by the scalar and kernel forms,
    deterministic across processes and backends.
    """

    _hash_label = "link-drop"

    def __init__(self, drop_probability: float = 0.1, seed: int = 0):
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError(
                f"drop probability must be in [0, 1); got {drop_probability}"
            )
        self.drop_probability = drop_probability
        self.seed = seed
        self._threshold = _probability_threshold(drop_probability)
        self._base_by_id: np.ndarray | None = None

    def _bind_kernel(self, edges: list[Edge]) -> None:
        head, tail = self._edge_base_arrays(edges)
        self._base_by_id = self._combine_bases(head, tail)

    def transmits(self, edge: Edge, round_index: int) -> bool:
        bits = _mix64(self._edge_base(edge) + _GOLDEN * round_index)
        return bits >= self._threshold

    def transmit_mask(
        self, edge_ids: np.ndarray, first_round: int | np.ndarray, num_rounds: int
    ) -> np.ndarray:
        ids = np.asarray(edge_ids, dtype=np.int64)
        golden = np.uint64(_GOLDEN)
        # base + GOLDEN * (start + j) splits into a per-row term and a
        # per-column term (uint64 arithmetic wraps like the scalar form).
        starts = _row_starts(first_round, ids.size).astype(np.uint64)
        row = self._base_by_id[ids] + golden * starts
        column = golden * np.arange(num_rounds, dtype=np.uint64)
        bits = _mix64_array(row[:, None] + column[None, :])
        return bits >= np.uint64(self._threshold)

    def spec_params(self) -> dict[str, Any]:
        return {"drop_probability": self.drop_probability, "seed": self.seed}

    def describe(self) -> str:
        return f"LinkDropScenario(q={self.drop_probability}, seed={self.seed})"


@register_scenario("adversarial-delay")
class AdversarialDelayScenario(_VertexHashMixin, DeliveryScenario):
    """A deterministic adversary stalls each edge one round in every period.

    The adversary may reorder work in time but cannot exceed the model's
    bandwidth: every edge still carries at most one word per round, and a
    ``w``-word transfer finishes within ``ceil(w * period / (period - 1)) + 1``
    rounds — a bounded stretch.  Each edge's stall phase is derived from a
    seeded hash so different edges stall in different rounds, which is the
    worst case for algorithms that rely on lockstep arrival.
    """

    _hash_label = "adv-delay"

    def __init__(self, stall_period: int = 4, seed: int = 0):
        if stall_period < 2:
            raise ValueError(f"stall period must be >= 2; got {stall_period}")
        self.stall_period = stall_period
        self.seed = seed
        # The stall phase is a pure function of (seed, edge); memoise it so
        # the per-round hot path costs one dict lookup, not a blake2b hash.
        self._phases: dict[Edge, int] = {}
        self._phase_by_id: np.ndarray | None = None

    def _phase(self, edge: Edge) -> int:
        phase = self._phases.get(edge)
        if phase is None:
            phase = self._edge_base(edge) % self.stall_period
            self._phases[edge] = phase
        return phase

    def _bind_kernel(self, edges: list[Edge]) -> None:
        head, tail = self._edge_base_arrays(edges)
        self._phase_by_id = (
            self._combine_bases(head, tail) % np.uint64(self.stall_period)
        ).astype(np.int64)

    def transmits(self, edge: Edge, round_index: int) -> bool:
        return round_index % self.stall_period != self._phase(edge)

    def transmit_mask(
        self, edge_ids: np.ndarray, first_round: int | np.ndarray, num_rounds: int
    ) -> np.ndarray:
        ids = np.asarray(edge_ids, dtype=np.int64)
        # (start + j) % period == phase  <=>  j % period == (phase - start) % period
        shifted = (
            self._phase_by_id[ids] - _row_starts(first_round, ids.size)
        ) % self.stall_period
        offsets = np.arange(num_rounds, dtype=np.int64) % self.stall_period
        return offsets[None, :] != shifted[:, None]

    def spec_params(self) -> dict[str, Any]:
        return {"stall_period": self.stall_period, "seed": self.seed}

    def describe(self) -> str:
        return f"AdversarialDelayScenario(period={self.stall_period}, seed={self.seed})"


@register_scenario("bursty")
class BurstyFaultScenario(_VertexHashMixin, DeliveryScenario):
    """Correlated multi-round edge outages (bursty faults).

    The smooth-faults :class:`LinkDropScenario` loses each round's word
    independently; real links fail in *bursts* — once an edge goes down it
    stays down for several consecutive rounds.  This is the correlated-fault
    regime of the robust congested-clique model (arXiv:2508.08740), where
    retransmission alone no longer amortises: a burst stalls an entire
    pipelined transfer, so algorithms relying on lockstep pipelining see a
    super-linear round stretch.

    Time is divided into windows of ``period`` rounds.  Per (edge, window) a
    seeded hash decides whether a burst occurs (probability
    ``burst_probability``) and at which offset; during a burst the edge
    transmits nothing for ``burst_length`` consecutive rounds.  Requiring
    ``burst_length < period`` keeps every edge live infinitely often, so
    transfers always complete eventually.  Decisions are pure functions of
    ``(edge, round)``, reproducible across all backends.
    """


    def __init__(
        self,
        burst_probability: float = 0.25,
        burst_length: int = 3,
        period: int = 12,
        seed: int = 0,
    ):
        if not 0.0 <= burst_probability < 1.0:
            raise ValueError(
                f"burst probability must be in [0, 1); got {burst_probability}"
            )
        if burst_length < 1:
            raise ValueError(f"burst length must be >= 1; got {burst_length}")
        if period <= burst_length:
            raise ValueError(
                f"period must exceed burst length (got period={period}, "
                f"burst_length={burst_length}); otherwise an edge can be "
                f"down forever and transfers never complete"
            )
        self.burst_probability = burst_probability
        self.burst_length = burst_length
        self.period = period
        self.seed = seed
        self._threshold = _probability_threshold(burst_probability)
        self._span = period - burst_length + 1
        self._draw_base_by_id: np.ndarray | None = None
        self._start_base_by_id: np.ndarray | None = None

    _hash_label = "bursty"
    # Salts separating the two per-(edge, window) draws derived from the
    # same vertex hashes: whether a burst occurs, and where it starts.
    _DRAW_SALT = 0x243F6A8885A308D3
    _START_SALT = 0x13198A2E03707344

    def _bind_kernel(self, edges: list[Edge]) -> None:
        head, tail = self._edge_base_arrays(edges)
        self._draw_base_by_id = self._combine_bases(head, tail, self._DRAW_SALT)
        self._start_base_by_id = self._combine_bases(head, tail, self._START_SALT)

    def transmits(self, edge: Edge, round_index: int) -> bool:
        window, offset = divmod(round_index, self.period)
        bits = _mix64(self._edge_base(edge, self._DRAW_SALT) + _GOLDEN * window)
        if bits >= self._threshold:
            return True
        start = (
            _mix64(self._edge_base(edge, self._START_SALT) + _GOLDEN * window)
            % self._span
        )
        return not (start <= offset < start + self.burst_length)

    def transmit_mask(
        self, edge_ids: np.ndarray, first_round: int | np.ndarray, num_rounds: int
    ) -> np.ndarray:
        ids = np.asarray(edge_ids, dtype=np.int64)
        period = self.period
        first_window, offset = np.divmod(_row_starts(first_round, ids.size), period)
        # Hash each row's windows once, from the window holding its start;
        # the burst start is hashed only for the windows that burst.
        count = (int(offset.max(initial=0)) + num_rounds) // period + 1
        window_index = first_window[:, None] + np.arange(count)
        windows = np.uint64(_GOLDEN) * window_index.astype(np.uint64)
        burst = _mix64_array(
            self._draw_base_by_id[ids][:, None] + windows
        ) < np.uint64(self._threshold)
        row, window = np.nonzero(burst)
        start = _mix64_array(
            self._start_base_by_id[ids[row]] + windows[row, window]
        ) % np.uint64(self._span)
        # Each burst blocks columns [begin, begin + burst_length) of its row.
        # Mark both ends, clipped into the mask plus one sink column, and
        # a cell is blocked when an odd number of marks lie at or before it
        # (where one burst ends as the next begins, the two marks cancel).
        begin = window * period + start.astype(np.int64) - offset[row]
        marks = np.zeros((ids.size, num_rounds + 1), dtype=bool)
        marks[row, np.clip(begin, 0, num_rounds)] = True
        marks[row, np.clip(begin + self.burst_length, 0, num_rounds)] ^= True
        return ~np.logical_xor.accumulate(marks, axis=1)[:, :num_rounds]

    def spec_params(self) -> dict[str, Any]:
        return {
            "burst_probability": self.burst_probability,
            "burst_length": self.burst_length,
            "period": self.period,
            "seed": self.seed,
        }

    def describe(self) -> str:
        return (
            f"BurstyFaultScenario(p={self.burst_probability}, "
            f"len={self.burst_length}, period={self.period}, seed={self.seed})"
        )


@register_scenario("heterogeneous-bandwidth")
class HeterogeneousBandwidthScenario(_VertexHashMixin, DeliveryScenario):
    """Per-edge word capacity: slow links carry less than one word per round.

    The CONGEST model gives every edge the same one-word-per-round
    bandwidth; the robust congested-clique model (arXiv:2508.08740) relaxes
    this to heterogeneous per-edge capacities.  Here each undirected edge is
    assigned a rate ``c`` in ``(0, 1]`` words per round (both directions
    share it): an edge of rate ``c`` transmits in round ``r`` exactly when
    ``floor((r+1)*c) > floor(r*c)`` — a deterministic token schedule that
    crosses ``floor(r*c)`` words in any prefix of ``r`` rounds, so a
    ``w``-word transfer takes ``~w/c`` rounds.  The per-edge schedule feeds
    through :meth:`DeliveryScenario.transmit_mask` into the
    :class:`~repro.engine.delivery.WordScheduler`, so the batch backends
    replay the identical slow-link behaviour word-for-word.

    Capacities come from ``edge_capacities`` (explicit undirected-edge
    mapping, either orientation) when given, otherwise from a seeded hash
    choosing uniformly from ``capacities``.
    """


    def __init__(
        self,
        capacities: Sequence[float] = (1.0, 0.5, 0.25),
        seed: int = 0,
        edge_capacities: dict[Edge, float] | None = None,
    ):
        capacities = tuple(capacities)
        if not capacities:
            raise ValueError("capacities must be non-empty")
        for rate in list(capacities) + list((edge_capacities or {}).values()):
            if not 0.0 < rate <= 1.0:
                raise ValueError(f"edge capacity must be in (0, 1]; got {rate}")
        self.capacities = capacities
        self.seed = seed
        self.edge_capacities = dict(edge_capacities or {})
        self._rates: dict[Edge, float] = {}
        self._rate_by_id: np.ndarray | None = None

    _hash_label = "hetero-bw"

    def capacity(self, edge: Edge) -> float:
        """Words-per-round rate of ``edge`` (direction-independent)."""
        rate = self._rates.get(edge)
        if rate is None:
            u, v = edge
            rate = self.edge_capacities.get((u, v), self.edge_capacities.get((v, u)))
            if rate is None:
                # A commutative combination of the per-vertex hashes, so
                # both directions of an undirected link share one rate,
                # like a real cable.
                rate = self.capacities[
                    _mix64(self._vertex_hash(u) + self._vertex_hash(v))
                    % len(self.capacities)
                ]
            self._rates[edge] = rate
        return rate

    def _bind_kernel(self, edges: list[Edge]) -> None:
        if self.edge_capacities:
            self._rate_by_id = np.fromiter(
                (self.capacity(edge) for edge in edges),
                dtype=np.float64,
                count=len(edges),
            )
            return
        head, tail = self._edge_base_arrays(edges)
        choices = _mix64_array(head + tail) % np.uint64(len(self.capacities))
        self._rate_by_id = np.asarray(self.capacities, dtype=np.float64)[
            choices.astype(np.int64)
        ]

    def transmits(self, edge: Edge, round_index: int) -> bool:
        rate = self.capacity(edge)
        if rate >= 1.0:
            return True
        return math.floor((round_index + 1) * rate) > math.floor(round_index * rate)

    def transmit_mask(
        self, edge_ids: np.ndarray, first_round: int | np.ndarray, num_rounds: int
    ) -> np.ndarray:
        ids = np.asarray(edge_ids, dtype=np.int64)
        rounds = _row_starts(first_round, ids.size).astype(np.float64)[:, None] + (
            np.arange(num_rounds + 1, dtype=np.float64)[None, :]
        )
        # floor(r * c) at every round boundary of the window, compared with
        # its successor: the same IEEE-754 products and floors as the scalar
        # form (rounds below 2**53 convert exactly), so both agree bit-for-bit.
        tokens = np.floor(rounds * self._rate_by_id[ids][:, None])
        return tokens[:, 1:] > tokens[:, :-1]

    def spec_params(self) -> dict[str, Any]:
        if self.edge_capacities:
            raise ValueError(
                "explicit edge_capacities (keyed by edge tuples) do not "
                "serialise into spec params; use seeded capacities instead"
            )
        return {"capacities": list(self.capacities), "seed": self.seed}

    def describe(self) -> str:
        return (
            f"HeterogeneousBandwidthScenario(capacities={self.capacities}, "
            f"seed={self.seed})"
        )


class ComposedScenario(DeliveryScenario):
    """Combine scenarios without subclassing: overlay or sequential.

    * **Overlay** (:meth:`overlay`, or the ``&`` operator): a word crosses a
      round only if *every* part would transmit it — independent fault
      processes stack, e.g. bursty outages on top of smooth link drops on
      top of heterogeneous bandwidth.
    * **Sequential** (:meth:`sequential`): a timeline of phases — part
      ``i`` governs delivery for its ``durations[i]`` rounds, then hands
      over to the next; the last part runs forever.  Expresses regime
      changes (a clean network that degrades mid-run, a transient storm).

    Parts may be scenario instances or registry names.  Decisions remain
    pure functions of ``(edge, round)``, so composition preserves the
    cross-backend reproducibility guarantee of the leaf scenarios; when
    every part has a native batch kernel the composition does too (overlay
    ANDs the part masks, sequential splices them at the phase boundaries).

    A composed tree serialises into experiment specs: name the
    ``"composed"`` scenario with the nested parameter form produced by
    :meth:`spec_params` (``{"op": ..., "children": [...], ...}``) — see
    :func:`build_composed`.
    """

    def __init__(
        self,
        parts: Iterable[DeliveryScenario | str],
        mode: str = "overlay",
        durations: Sequence[int] | None = None,
    ):
        self.parts: tuple[DeliveryScenario, ...] = tuple(
            resolve_scenario(part) for part in parts
        )
        if not self.parts:
            raise ValueError("a composed scenario needs at least one part")
        if mode not in ("overlay", "sequential"):
            raise ValueError(
                f"composition mode must be 'overlay' or 'sequential'; got {mode!r}"
            )
        self.mode = mode
        if mode == "sequential":
            durations = tuple(durations or ())
            if len(durations) != len(self.parts) - 1:
                raise ValueError(
                    f"sequential composition of {len(self.parts)} parts needs "
                    f"{len(self.parts) - 1} durations (the last part runs "
                    f"forever); got {len(durations)}"
                )
            if any(d < 1 for d in durations):
                raise ValueError(f"phase durations must be >= 1; got {durations}")
            boundaries = []
            total = 0
            for duration in durations:
                total += duration
                boundaries.append(total)
            self.durations = durations
            self._boundaries = tuple(boundaries)
        else:
            if durations is not None:
                raise ValueError("durations only apply to sequential composition")
            self.durations = ()
            self._boundaries = ()
        self.is_clean = all(part.is_clean for part in self.parts)
        self.has_link_faults = any(part.has_link_faults for part in self.parts)
        self.has_vertex_faults = any(part.has_vertex_faults for part in self.parts)
        self.is_adaptive = any(part.is_adaptive for part in self.parts)

    @classmethod
    def overlay(cls, *parts: DeliveryScenario | str) -> "ComposedScenario":
        """All parts must transmit for a word to cross (faults stack)."""
        return cls(parts, mode="overlay")

    @classmethod
    def sequential(
        cls, *phases: tuple[DeliveryScenario | str, int | None]
    ) -> "ComposedScenario":
        """Time-sliced phases of ``(scenario, duration)``; last duration ignored.

        ``ComposedScenario.sequential(("clean", 100), ("bursty", None))``
        runs clean delivery for rounds 0-99, bursty faults afterwards.
        """
        if not phases:
            raise ValueError("a composed scenario needs at least one part")
        parts = [scenario for scenario, _ in phases]
        durations = [duration for _, duration in phases[:-1]]
        if any(duration is None for duration in durations):
            raise ValueError("only the last phase may leave its duration as None")
        return cls(parts, mode="sequential", durations=durations)

    def _bind_kernel(self, edges: list[Edge]) -> None:
        for part in self.parts:
            part.bind_edges(edges)

    def _active(self, round_index: int) -> DeliveryScenario:
        for i, boundary in enumerate(self._boundaries):
            if round_index < boundary:
                return self.parts[i]
        return self.parts[-1]

    def transmits(self, edge: Edge, round_index: int) -> bool:
        if self.mode == "overlay":
            return all(part.transmits(edge, round_index) for part in self.parts)
        return self._active(round_index).transmits(edge, round_index)

    def bind_nodes(self, nodes: Sequence[Hashable]) -> None:
        for part in self.parts:
            part.bind_nodes(nodes)

    def faulty_vertices(self, round_index: int) -> frozenset:
        if self.mode == "overlay":
            faulty: frozenset = frozenset()
            for part in self.parts:
                faulty |= part.faulty_vertices(round_index)
            return faulty
        return self._active(round_index).faulty_vertices(round_index)

    def corrupt_payload(
        self, sender: Hashable, receiver: Hashable, round_index: int, payload: Any
    ) -> Any:
        if self.mode == "overlay":
            for part in self.parts:
                payload = part.corrupt_payload(sender, receiver, round_index, payload)
            return payload
        return self._active(round_index).corrupt_payload(
            sender, receiver, round_index, payload
        )

    def corrupt_values(
        self,
        senders: np.ndarray,
        receivers: np.ndarray,
        round_index: int,
        values: np.ndarray,
    ) -> np.ndarray:
        if self.mode == "overlay":
            for part in self.parts:
                values = part.corrupt_values(senders, receivers, round_index, values)
            return values
        return self._active(round_index).corrupt_values(
            senders, receivers, round_index, values
        )

    def observe_round(self, stats: RoundStats) -> None:
        # Adaptive parts track traffic history continuously (a sequential
        # phase that activates later still needs the earlier observations),
        # so feedback reaches every part in both composition modes.
        for part in self.parts:
            if part.is_adaptive:
                part.observe_round(stats)

    def transmit_mask(
        self, edge_ids: np.ndarray, first_round: int | np.ndarray, num_rounds: int
    ) -> np.ndarray:
        if self.mode == "overlay":
            mask = self.parts[0].transmit_mask(edge_ids, first_round, num_rounds)
            for part in self.parts[1:]:
                mask &= part.transmit_mask(edge_ids, first_round, num_rounds)
            return mask
        # Sequential: each cell takes the mask of the part active in its own
        # round.  A part is queried for the rows whose window meets its phase.
        ids = np.asarray(edge_ids, dtype=np.int64)
        starts = _row_starts(first_round, ids.size)
        mask = np.zeros((ids.size, num_rounds), dtype=bool)
        lower = 0
        for part, upper in zip(self.parts, self._boundaries + (math.inf,)):
            rows = np.flatnonzero((starts + num_rounds > lower) & (starts < upper))
            if rows.size:
                part_mask = part.transmit_mask(ids[rows], starts[rows], num_rounds)
                rounds = starts[rows, None] + np.arange(num_rounds)
                mask[rows] |= part_mask & (rounds >= lower) & (rounds < upper)
            lower = upper
        return mask

    def spec_params(self) -> dict[str, Any]:
        """The nested JSON parameter form of :func:`build_composed`.

        Every part must be a *registered* scenario (or itself composed);
        the result round-trips: ``build_composed(**composed.spec_params())``
        reconstructs an equivalent tree, and an
        :class:`~repro.experiments.ExperimentSpec` naming ``"composed"``
        with these params serialises through ``to_json``/``from_json``.
        """
        children: list[dict[str, Any]] = []
        for part in self.parts:
            if isinstance(part, ComposedScenario):
                children.append(part.spec_params())
                continue
            if not part.name or part.name not in scenario_registry:
                raise ValueError(
                    f"composed part {part.describe()} is not a registered "
                    f"scenario; register it to serialise the tree"
                )
            children.append({"name": part.name, "params": part.spec_params()})
        params: dict[str, Any] = {"op": self.mode, "children": children}
        if self.mode == "sequential":
            params["durations"] = list(self.durations)
        return params

    def describe(self) -> str:
        if self.mode == "overlay":
            inner = " & ".join(part.describe() for part in self.parts)
        else:
            pieces = [
                f"{part.describe()}x{duration}"
                for part, duration in zip(self.parts, self.durations)
            ]
            pieces.append(self.parts[-1].describe())
            inner = " -> ".join(pieces)
        return f"Composed[{self.mode}]({inner})"


def _build_composed_child(child: Any, seed: int | None) -> DeliveryScenario:
    """One node of a composed-scenario JSON tree -> a scenario instance."""
    if isinstance(child, DeliveryScenario):
        return child
    if isinstance(child, str):
        child = {"name": child}
    if not isinstance(child, dict):
        raise ValueError(
            f"composed child must be a scenario, a registry name, a "
            f"{{'name', 'params'}} object, or a nested {{'op', 'children'}} "
            f"tree; got {child!r}"
        )
    if "op" in child:
        extra = set(child) - {"op", "children", "durations", "seed"}
        if extra:
            raise ValueError(
                f"unknown keys {sorted(extra)} in composed subtree {child!r}; "
                f"allowed: op, children, durations, seed"
            )
        nested = dict(child)
        nested_seed = nested.pop("seed", seed)
        return build_composed(seed=nested_seed, **nested)
    if "name" not in child:
        raise ValueError(f"composed child needs a 'name' or 'op' key: {child!r}")
    extra = set(child) - {"name", "params"}
    if extra:
        # A typo'd key ('parms', ...) must not silently yield a
        # default-configured scenario — specs validate eagerly.
        raise ValueError(
            f"unknown keys {sorted(extra)} in composed child {child!r}; "
            f"allowed: name, params"
        )
    cls = scenario_registry.get(child["name"])
    params = dict(child.get("params", {}))
    if seed is not None and "seed" not in params:
        try:
            if "seed" in inspect.signature(cls).parameters:
                params["seed"] = seed
        except (TypeError, ValueError):  # pragma: no cover - exotic classes
            pass
    return cls(**params)


@register_scenario("composed")
def build_composed(
    op: str = "overlay",
    children: Sequence[Any] = (),
    durations: Sequence[int] | None = None,
    seed: int | None = None,
) -> ComposedScenario:
    """Build a :class:`ComposedScenario` from its JSON parameter form.

    Registered as the ``"composed"`` scenario, so experiment specs
    serialise scenario *trees*: ``scenario="composed"`` with
    ``scenario_params={"op": "overlay", "children": [{"name": "link-drop",
    "params": {...}}, {"op": "sequential", ...}]}`` — children are
    ``{name, params}`` objects, bare registry names, or nested
    ``{op, children}`` trees.  ``seed`` (injected by multi-seed sweeps)
    propagates into every child that accepts one and does not pin its own,
    so composed scenarios sweep like any leaf scenario.

    Unlike every other registered scenario, ``"composed"`` *is* its
    parameters, so bare-name resolution cannot work; it raises with
    instructions rather than an opaque constructor error.
    """
    if not children:
        raise ValueError(
            "the 'composed' scenario is parameter-driven and cannot be "
            "resolved by bare name: pass scenario_params={'op': 'overlay' or "
            "'sequential', 'children': [{'name': ..., 'params': {...}}, ...]} "
            "(see repro.engine.build_composed)"
        )
    parts = [_build_composed_child(child, seed) for child in children]
    return ComposedScenario(parts, mode=op, durations=durations)


def link_projection(scenario: DeliveryScenario) -> DeliveryScenario:
    """The scenario's link-fault component, as seen by the word schedulers.

    A scenario whose faults live entirely at the vertices
    (``has_link_faults = False``) delivers words exactly like the clean
    model, so the schedulers get a :class:`CleanSynchronous` stand-in and
    keep their arithmetic fast path; anything with link faults is returned
    unchanged.
    """
    if scenario.has_link_faults:
        return scenario
    return CleanSynchronous()


def resolve_scenario(scenario: DeliveryScenario | str | None) -> DeliveryScenario:
    """Accept a scenario object, a registry name, or ``None`` (clean).

    Unknown names raise a :class:`ValueError` enumerating the sorted
    registry names, so typos are self-diagnosing; register new scenarios
    with :func:`repro.engine.registry.register_scenario`.
    """
    if scenario is None:
        return CleanSynchronous()
    if isinstance(scenario, DeliveryScenario):
        return scenario
    if isinstance(scenario, str):
        return scenario_registry.get(scenario)()
    raise TypeError(f"cannot interpret {scenario!r} as a delivery scenario")


__all__ = [
    "AdversarialDelayScenario",
    "BurstyFaultScenario",
    "CleanSynchronous",
    "ComposedScenario",
    "DeliveryScenario",
    "HeterogeneousBandwidthScenario",
    "LinkDropScenario",
    "RoundStats",
    "available_scenarios",
    "build_composed",
    "link_projection",
    "resolve_scenario",
]
