"""Vertex-level fault scenarios: crash-stop and Byzantine processors.

The link-fault scenarios (:mod:`repro.engine.scenarios`) perturb *edges*;
these two perturb the *processors* themselves, which is the fault model the
robust-computation compiler (:mod:`repro.robust.compiler`) is built to
survive:

* :class:`CrashStopVertexScenario` — a deterministic seeded subset of
  vertices dies at a seeded round and stays silent forever.  Crashed
  vertices stop computing and sending; words they queued before dying
  still consume bandwidth but are dropped at delivery (and counted in
  :class:`~repro.congest.metrics.CongestMetrics`), exactly like
  deliveries to halted vertices.
* :class:`ByzantineVertexScenario` — a deterministic seeded subset keeps
  running but *lies*: every integer word of every payload it sends is
  XOR-flipped with a per-``(sender, receiver, round)`` mask.  Word counts
  never change (an int is one CONGEST word regardless of value), so the
  corruption is invisible to bandwidth accounting and to the schedulers —
  only the receiving algorithm sees wrong values.

The *adaptive* pair reacts to the run instead of drawing everything up
front: :class:`AdaptiveCrashScenario` and :class:`AdaptiveByzantineScenario`
receive per-round delivered-message counters through
:meth:`~repro.engine.scenarios.DeliveryScenario.observe_round` and place
their faults where the traffic is — policy ``hottest`` targets cumulative
volume, ``cut-critical`` targets the most persistently active relays, and
``round-robin`` rotates through the observed-active set.  Placement is a
deterministic function of ``(seed, observed history)``, and the engine
feeds every backend the identical pre-drop delivery counters, so adaptive
runs stay backend-identical exactly like the oblivious pair.

All four follow the engine's determinism discipline: every decision is a
pure splitmix64/blake2b function of ``(seed, vertex, round)`` (plus, for
the adaptive pair, the deterministic observation stream), so all three
backends observe the identical fault pattern, pinned by the property
suite.  Links stay clean
(``has_link_faults = False``), which keeps the batch schedulers on their
arithmetic fast path; the explicit all-ones :meth:`transmit_mask` kernels
exist so the scenario contract (REP005) holds uniformly.
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

import numpy as np

from repro.engine.registry import register_scenario
from repro.engine.scenarios import (
    _EDGE_U,
    _EDGE_V,
    _GOLDEN,
    _MASK64,
    DeliveryScenario,
    Edge,
    RoundStats,
    _mix64,
    _mix64_array,
    _VertexHashMixin,
)

__all__ = [
    "AdaptiveByzantineScenario",
    "AdaptiveCrashScenario",
    "ByzantineVertexScenario",
    "CrashStopVertexScenario",
]

# Salts separating the independent per-vertex draws (who is faulty, when a
# crash fires) and the per-(sender, receiver, round) corruption mask.
_SELECT_SALT = 0x452821E638D01377
_ROUND_SALT = 0xBE5466CF34E90C6C
_FLIP_SALT = 0xC0AC29B7C97C50DD


class _VertexFaultBase(_VertexHashMixin, DeliveryScenario):
    """Shared machinery: seeded faulty-set selection over bound nodes."""

    has_link_faults = False
    has_vertex_faults = True

    def __init__(self, max_faulty: int, fraction: float | None, seed: int):
        if max_faulty < 0:
            raise ValueError(f"max_faulty must be >= 0; got {max_faulty}")
        if fraction is not None and not 0.0 <= fraction < 1.0:
            raise ValueError(f"fraction must be in [0, 1); got {fraction}")
        self.max_faulty = max_faulty
        self.fraction = fraction
        self.seed = seed
        self._bound_nodes: list[Hashable] | None = None

    def _fault_count(self, n: int) -> int:
        if self.fraction is not None:
            return min(int(round(self.fraction * n)), n)
        return min(self.max_faulty, n)

    def _select_faulty(self, nodes: list[Hashable]) -> list[Hashable]:
        """The ``count`` smallest-hash vertices: a seeded, order-independent
        budgeted draw (ties broken by repr, so exotic labels stay stable)."""
        count = self._fault_count(len(nodes))
        if count == 0:
            return []
        scored = sorted(
            nodes,
            key=lambda v: (_mix64(self._vertex_hash(v) + _SELECT_SALT), repr(v)),
        )
        return scored[:count]

    def transmits(self, edge: Edge, round_index: int) -> bool:
        return True

    def transmit_mask(
        self, edge_ids: np.ndarray, first_round: int | np.ndarray, num_rounds: int
    ) -> np.ndarray:
        # Links are clean under vertex faults, whatever each row's start;
        # the schedulers normally bypass this via the link projection.
        return np.ones((np.asarray(edge_ids).size, num_rounds), dtype=bool)

    def _require_bound(self) -> None:
        if self._bound_nodes is None:
            raise RuntimeError(
                f"{type(self).__name__} needs bind_nodes() first "
                f"(the engine backends bind automatically)"
            )


@register_scenario("crash-vertices")
class CrashStopVertexScenario(_VertexFaultBase):
    """A seeded subset of vertices crash-stops at a seeded round.

    Each faulty vertex ``v`` dies at ``first_round +
    splitmix64(hash(v) + salt) % window`` and stays silent forever: it is
    no longer stepped, sends nothing, and every word still in flight to or
    from it is dropped at delivery (after consuming bandwidth), mirroring
    the halted-receiver rule.  The faulty subset is the budgeted seeded
    draw of :class:`_VertexFaultBase`: ``max_faulty`` vertices (or
    ``round(fraction * n)`` when ``fraction`` is given), chosen purely from
    per-vertex hashes so every backend agrees.
    """

    _hash_label = "crash-vertices"

    def __init__(
        self,
        max_faulty: int = 1,
        fraction: float | None = None,
        first_round: int = 1,
        window: int = 8,
        seed: int = 0,
    ):
        super().__init__(max_faulty, fraction, seed)
        if first_round < 0:
            raise ValueError(f"first_round must be >= 0; got {first_round}")
        if window < 1:
            raise ValueError(f"window must be >= 1; got {window}")
        self.first_round = first_round
        self.window = window
        self._crash_rounds: dict[Hashable, int] | None = None

    def bind_nodes(self, nodes: Sequence[Hashable]) -> None:
        self._bound_nodes = list(nodes)
        self._crash_rounds = {
            v: self.first_round
            + _mix64(self._vertex_hash(v) + _ROUND_SALT) % self.window
            for v in self._select_faulty(self._bound_nodes)
        }

    def crash_rounds(self) -> dict[Hashable, int]:
        """Faulty vertex -> the round it dies at (requires bound nodes)."""
        self._require_bound()
        return dict(self._crash_rounds)

    def faulty_vertices(self, round_index: int) -> frozenset:
        self._require_bound()
        return frozenset(
            v for v, r in self._crash_rounds.items() if r <= round_index
        )

    def spec_params(self) -> dict[str, Any]:
        return {
            "max_faulty": self.max_faulty,
            "fraction": self.fraction,
            "first_round": self.first_round,
            "window": self.window,
            "seed": self.seed,
        }

    def describe(self) -> str:
        budget = (
            f"fraction={self.fraction}"
            if self.fraction is not None
            else f"max_faulty={self.max_faulty}"
        )
        return (
            f"CrashStopVertexScenario({budget}, first_round={self.first_round}, "
            f"window={self.window}, seed={self.seed})"
        )


@register_scenario("byzantine-vertices")
class ByzantineVertexScenario(_VertexFaultBase):
    """A seeded subset of vertices keeps running but corrupts every payload.

    From ``start_round`` on, every integer word a faulty sender emits is
    XOR-flipped with ``splitmix64(hash(sender) * U + hash(receiver) * V +
    GOLDEN * round + salt)`` masked to 31 bits (low bit forced, so a
    corrupted int always differs).  The same mask applies to every int of
    one payload; tuples and lists are rebuilt recursively, other payload
    types pass through untouched.  Because an int costs one CONGEST word
    regardless of value, corruption never changes word counts — bandwidth
    accounting and scheduling are identical to the clean run, only the
    *values* lie.  Byzantine vertices never crash, so
    :meth:`faulty_vertices` stays empty.
    """

    _hash_label = "byzantine-vertices"

    def __init__(
        self,
        max_faulty: int = 1,
        fraction: float | None = None,
        start_round: int = 0,
        seed: int = 0,
    ):
        super().__init__(max_faulty, fraction, seed)
        if start_round < 0:
            raise ValueError(f"start_round must be >= 0; got {start_round}")
        self.start_round = start_round
        self._faulty: frozenset | None = None
        self._faulty_mask: np.ndarray | None = None
        self._vhash_by_id: np.ndarray | None = None

    def bind_nodes(self, nodes: Sequence[Hashable]) -> None:
        self._bound_nodes = list(nodes)
        self._faulty = frozenset(self._select_faulty(self._bound_nodes))
        n = len(self._bound_nodes)
        # Dense-id kernels for the vector fast path's batch corruption.
        self._vhash_by_id = np.fromiter(
            (self._vertex_hash(v) for v in self._bound_nodes),
            dtype=np.uint64,
            count=n,
        )
        self._faulty_mask = np.fromiter(
            (v in self._faulty for v in self._bound_nodes), dtype=bool, count=n
        )

    def byzantine_vertices(self) -> frozenset:
        """The corrupting subset (requires bound nodes)."""
        self._require_bound()
        return self._faulty

    def _flip_mask(self, sender: Hashable, receiver: Hashable, round_index: int) -> int:
        bits = _mix64(
            self._vertex_hash(sender) * _EDGE_U
            + self._vertex_hash(receiver) * _EDGE_V
            + _GOLDEN * round_index
            + _FLIP_SALT
        )
        return (bits & 0x7FFFFFFF) | 1

    def _corrupt_value(self, value: Any, mask: int) -> Any:
        # ``type(x) is int`` deliberately excludes bool: flipping a bool
        # into an int would change payload *shape*, not just its value.
        if type(value) is int:
            return value ^ mask
        if type(value) is tuple:
            items = tuple(self._corrupt_value(v, mask) for v in value)
            if all(a is b for a, b in zip(items, value)):
                return value
            return items
        if type(value) is list:
            items = [self._corrupt_value(v, mask) for v in value]
            if all(a is b for a, b in zip(items, value)):
                return value
            return items
        return value

    def corrupt_payload(
        self, sender: Hashable, receiver: Hashable, round_index: int, payload: Any
    ) -> Any:
        self._require_bound()
        if round_index < self.start_round or sender not in self._faulty:
            return payload
        return self._corrupt_value(
            payload, self._flip_mask(sender, receiver, round_index)
        )

    def corrupt_values(
        self,
        senders: np.ndarray,
        receivers: np.ndarray,
        round_index: int,
        values: np.ndarray,
    ) -> np.ndarray:
        self._require_bound()
        if round_index < self.start_round:
            return values
        rows = self._faulty_mask[senders]
        if not rows.any():
            return values
        vhash = self._vhash_by_id
        # The identical integer formula as _flip_mask, in uint64 array
        # arithmetic (wrapping multiplication == the scalar's mod-2**64).
        bits = _mix64_array(
            vhash[senders] * np.uint64(_EDGE_U)
            + vhash[receivers] * np.uint64(_EDGE_V)
            + np.uint64((_GOLDEN * round_index) & _MASK64)
            + np.uint64(_FLIP_SALT)
        )
        masks = (bits & np.uint64(0x7FFFFFFF)) | np.uint64(1)
        out = values.copy()
        out[rows] ^= masks[rows].astype(np.int64)
        return out

    def spec_params(self) -> dict[str, Any]:
        return {
            "max_faulty": self.max_faulty,
            "fraction": self.fraction,
            "start_round": self.start_round,
            "seed": self.seed,
        }

    def describe(self) -> str:
        budget = (
            f"fraction={self.fraction}"
            if self.fraction is not None
            else f"max_faulty={self.max_faulty}"
        )
        return (
            f"ByzantineVertexScenario({budget}, "
            f"start_round={self.start_round}, seed={self.seed})"
        )


_ADAPTIVE_POLICIES = ("hottest", "cut-critical", "round-robin")


class _AdaptiveVertexFaultBase(_VertexFaultBase):
    """Traffic-observing fault placement shared by the adaptive pair.

    The engine hands every backend the identical pre-drop per-receiver
    delivered-message counters after each round (dense-id order, int64);
    :meth:`observe_round` accumulates them and the targeting policies rank
    vertices purely on that history plus seeded hashes:

    * ``hottest`` — highest cumulative delivered volume.
    * ``cut-critical`` — most *persistently* active: ranked first by the
      number of rounds with at least one delivery, then by volume.  A
      vertex relaying across a communication cut receives every round; a
      burst-hot vertex spikes once — persistence is the observable
      signature of cut membership when the adversary sees traffic only.
    * ``round-robin`` — rotates through the observed-active vertices in
      seeded-hash order (falling back to all candidates before any
      traffic exists), advancing one slot per decision.

    Ties break by ``(splitmix64(vertex_hash + salt), dense id)``, and
    dense ids come from the shared ``graph.nodes`` order, so every backend
    picks the identical victims.  Decision state resets on
    :meth:`bind_nodes`, which every backend calls at run start, so one
    scenario instance replays identically across runs.
    """

    is_adaptive = True

    def __init__(
        self,
        max_faulty: int,
        fraction: float | None,
        policy: str,
        seed: int,
    ):
        super().__init__(max_faulty, fraction, seed)
        if policy not in _ADAPTIVE_POLICIES:
            raise ValueError(
                f"policy must be one of {_ADAPTIVE_POLICIES}; got {policy!r}"
            )
        self.policy = policy
        self._traffic: np.ndarray | None = None
        self._active_rounds: np.ndarray | None = None
        self._hash_mix: list[int] | None = None
        self._decisions_made = 0

    def bind_nodes(self, nodes: Sequence[Hashable]) -> None:
        self._bound_nodes = list(nodes)
        n = len(self._bound_nodes)
        self._traffic = np.zeros(n, dtype=np.int64)
        self._active_rounds = np.zeros(n, dtype=np.int64)
        self._hash_mix = [
            _mix64(self._vertex_hash(v) + _SELECT_SALT)
            for v in self._bound_nodes
        ]
        self._decisions_made = 0

    def observe_round(self, stats: RoundStats) -> None:
        self._traffic += stats.delivered
        self._active_rounds += stats.delivered > 0

    def _pick_targets(self, count: int, exclude: set[int]) -> list[int]:
        """The next ``count`` victim ids under the configured policy."""
        n = len(self._bound_nodes)
        alive = [i for i in range(n) if i not in exclude]
        if not alive or count <= 0:
            return []
        if self.policy == "round-robin":
            seen = [i for i in alive if self._traffic[i] > 0] or alive
            ordered = sorted(seen, key=lambda i: (self._hash_mix[i], i))
            start = self._decisions_made % len(ordered)
            return [
                ordered[(start + j) % len(ordered)]
                for j in range(min(count, len(ordered)))
            ]
        if self.policy == "hottest":
            key = lambda i: (-int(self._traffic[i]), self._hash_mix[i], i)
        else:  # cut-critical
            key = lambda i: (
                -int(self._active_rounds[i]),
                -int(self._traffic[i]),
                self._hash_mix[i],
                i,
            )
        return sorted(alive, key=key)[:count]

    def _base_spec_params(self) -> dict[str, Any]:
        return {
            "max_faulty": self.max_faulty,
            "fraction": self.fraction,
            "policy": self.policy,
            "seed": self.seed,
        }

    def spec_params(self) -> dict[str, Any]:
        return self._base_spec_params()


@register_scenario("adaptive-crash")
class AdaptiveCrashScenario(_AdaptiveVertexFaultBase):
    """An adaptive adversary crash-stopping where the traffic is.

    Starting at ``first_round`` and every ``period`` rounds after, the
    adversary crashes one more live vertex chosen by ``policy`` from the
    traffic observed so far, until the budget (``max_faulty`` vertices, or
    ``round(fraction * n)``) is spent.  Decisions for round ``r`` use only
    observations through round ``r - 1`` — the engine queries
    :meth:`faulty_vertices` at round start and feeds
    :meth:`observe_round` at round end — so placement is a deterministic
    function of ``(seed, history)`` and all three backends agree.

    Crashed vertices keep *receiving* traffic in the adversary's counters
    (the feedback is pre-drop, and survivors keep sending to them), which
    is exactly what lets a ``hottest`` adversary walk through the replicas
    of one hot logical group — the behaviour the robust compiler's
    ``heal=True`` mode exists to survive.
    """

    _hash_label = "adaptive-crash"

    def __init__(
        self,
        max_faulty: int = 1,
        fraction: float | None = None,
        policy: str = "hottest",
        first_round: int = 1,
        period: int = 4,
        seed: int = 0,
    ):
        super().__init__(max_faulty, fraction, policy, seed)
        if first_round < 0:
            raise ValueError(f"first_round must be >= 0; got {first_round}")
        if period < 1:
            raise ValueError(f"period must be >= 1; got {period}")
        self.first_round = first_round
        self.period = period
        self._crashed_ids: set[int] = set()
        self._crash_rounds: dict[Hashable, int] = {}
        self._next_decision = first_round

    def bind_nodes(self, nodes: Sequence[Hashable]) -> None:
        super().bind_nodes(nodes)
        self._crashed_ids = set()
        self._crash_rounds = {}
        self._next_decision = self.first_round

    def _advance_to(self, round_index: int) -> None:
        budget = self._fault_count(len(self._bound_nodes))
        while self._next_decision <= round_index:
            if len(self._crashed_ids) < budget:
                picked = self._pick_targets(1, self._crashed_ids)
                if picked:
                    target = picked[0]
                    self._crashed_ids.add(target)
                    self._crash_rounds[self._bound_nodes[target]] = (
                        self._next_decision
                    )
                    self._decisions_made += 1
            self._next_decision += self.period

    def crash_rounds(self) -> dict[Hashable, int]:
        """Victims decided *so far* -> the round each died at."""
        self._require_bound()
        return dict(self._crash_rounds)

    def faulty_vertices(self, round_index: int) -> frozenset:
        self._require_bound()
        self._advance_to(round_index)
        return frozenset(
            v for v, r in self._crash_rounds.items() if r <= round_index
        )

    def spec_params(self) -> dict[str, Any]:
        params = self._base_spec_params()
        params["first_round"] = self.first_round
        params["period"] = self.period
        return params

    def describe(self) -> str:
        budget = (
            f"fraction={self.fraction}"
            if self.fraction is not None
            else f"max_faulty={self.max_faulty}"
        )
        return (
            f"AdaptiveCrashScenario({budget}, policy={self.policy!r}, "
            f"first_round={self.first_round}, period={self.period}, "
            f"seed={self.seed})"
        )


@register_scenario("adaptive-byzantine")
class AdaptiveByzantineScenario(_AdaptiveVertexFaultBase):
    """An adaptive adversary re-aiming its Byzantine budget at hot vertices.

    Every ``period`` rounds from ``start_round`` on, the adversary
    re-targets: the ``max_faulty`` top-ranked vertices under ``policy``
    become the corrupting set until the next decision.  Unlike crashes the
    target set *moves* — a vertex lies only while targeted.  Corruption
    reuses the oblivious scenario's XOR-flip kernel (31-bit mask, low bit
    forced, per ``(sender, receiver, round)``), so word counts and
    scheduling stay identical to a clean run.  Before the first decision
    round nothing is corrupted: the adversary needs observations first.
    """

    _hash_label = "adaptive-byzantine"

    def __init__(
        self,
        max_faulty: int = 1,
        fraction: float | None = None,
        policy: str = "hottest",
        start_round: int = 1,
        period: int = 4,
        seed: int = 0,
    ):
        super().__init__(max_faulty, fraction, policy, seed)
        if start_round < 0:
            raise ValueError(f"start_round must be >= 0; got {start_round}")
        if period < 1:
            raise ValueError(f"period must be >= 1; got {period}")
        self.start_round = start_round
        self.period = period
        self._targets: frozenset = frozenset()
        self._target_mask: np.ndarray | None = None
        self._vhash_by_id: np.ndarray | None = None
        self._next_decision = start_round

    def bind_nodes(self, nodes: Sequence[Hashable]) -> None:
        super().bind_nodes(nodes)
        n = len(self._bound_nodes)
        self._targets = frozenset()
        self._target_mask = np.zeros(n, dtype=bool)
        self._vhash_by_id = np.fromiter(
            (self._vertex_hash(v) for v in self._bound_nodes),
            dtype=np.uint64,
            count=n,
        )
        self._next_decision = self.start_round

    def _advance_to(self, round_index: int) -> None:
        budget = self._fault_count(len(self._bound_nodes))
        while self._next_decision <= round_index:
            picked = self._pick_targets(budget, set())
            self._decisions_made += 1
            self._targets = frozenset(self._bound_nodes[i] for i in picked)
            mask = np.zeros(len(self._bound_nodes), dtype=bool)
            mask[picked] = True
            self._target_mask = mask
            self._next_decision += self.period

    def byzantine_vertices(self, round_index: int) -> frozenset:
        """The set corrupting *as of* ``round_index`` (advances decisions)."""
        self._require_bound()
        self._advance_to(round_index)
        return self._targets

    def faulty_vertices(self, round_index: int) -> frozenset:
        # Queried by every backend at round start: the natural place to
        # advance the re-targeting clock.  Byzantine vertices never crash.
        self._require_bound()
        self._advance_to(round_index)
        return frozenset()

    def _flip_mask(self, sender: Hashable, receiver: Hashable, round_index: int) -> int:
        bits = _mix64(
            self._vertex_hash(sender) * _EDGE_U
            + self._vertex_hash(receiver) * _EDGE_V
            + _GOLDEN * round_index
            + _FLIP_SALT
        )
        return (bits & 0x7FFFFFFF) | 1

    _corrupt_value = ByzantineVertexScenario._corrupt_value

    def corrupt_payload(
        self, sender: Hashable, receiver: Hashable, round_index: int, payload: Any
    ) -> Any:
        self._require_bound()
        self._advance_to(round_index)
        if sender not in self._targets:
            return payload
        return self._corrupt_value(
            payload, self._flip_mask(sender, receiver, round_index)
        )

    def corrupt_values(
        self,
        senders: np.ndarray,
        receivers: np.ndarray,
        round_index: int,
        values: np.ndarray,
    ) -> np.ndarray:
        self._require_bound()
        self._advance_to(round_index)
        rows = self._target_mask[senders]
        if not rows.any():
            return values
        vhash = self._vhash_by_id
        bits = _mix64_array(
            vhash[senders] * np.uint64(_EDGE_U)
            + vhash[receivers] * np.uint64(_EDGE_V)
            + np.uint64((_GOLDEN * round_index) & _MASK64)
            + np.uint64(_FLIP_SALT)
        )
        masks = (bits & np.uint64(0x7FFFFFFF)) | np.uint64(1)
        out = values.copy()
        out[rows] ^= masks[rows].astype(np.int64)
        return out

    def spec_params(self) -> dict[str, Any]:
        params = self._base_spec_params()
        params["start_round"] = self.start_round
        params["period"] = self.period
        return params

    def describe(self) -> str:
        budget = (
            f"fraction={self.fraction}"
            if self.fraction is not None
            else f"max_faulty={self.max_faulty}"
        )
        return (
            f"AdaptiveByzantineScenario({budget}, policy={self.policy!r}, "
            f"start_round={self.start_round}, period={self.period}, "
            f"seed={self.seed})"
        )
