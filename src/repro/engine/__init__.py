"""Pluggable high-performance execution engine for CONGEST simulation.

The engine separates *what a distributed algorithm does* (the per-vertex
:class:`~repro.congest.vertex.VertexAlgorithm` code) from *how the rounds
are executed*.  The round itself is written once, in
:mod:`repro.engine.rounds`: one driver with two pluggable parts, a compute
step (per-vertex shards, in-process or forked, or one vector algorithm) and
a transport (the reference per-edge queues or the batch
:class:`~repro.engine.delivery.WordScheduler`).  Each backend is a short
set-up that picks the two parts:

* :mod:`repro.engine.backend` -- the :class:`Backend` strategy interface.
* :mod:`repro.engine.registry` -- open backend / scenario registries:
  ``@register_backend`` and ``@register_scenario`` make new implementations
  selectable by name everywhere without editing library internals.
* :mod:`repro.engine.reference` -- one in-process shard on
  :class:`~repro.congest.network.CongestNetwork`'s edge-by-edge queues; the
  semantic ground truth.
* :mod:`repro.engine.vectorized` -- one in-process shard on the batch
  scheduler; ~10-100x faster on fragmentation-heavy workloads.
* :mod:`repro.engine.vector` -- the vectorized per-vertex layer: a
  :class:`VectorAlgorithm` steps *all* vertices in one numpy ``on_round``
  call, eliminating the Python per-vertex loop entirely on the vectorized
  backend while still running per-vertex (via its ``per_vertex`` twin) on
  the reference and sharded backends.
* :mod:`repro.engine.sharded` -- per-vertex shards on the batch scheduler:
  one in-process shard by default, or ``num_workers=k`` shards in forked
  worker processes with per-round barriers, each round crossing every
  worker's pipe as one pickled columnar batch each way.
* :mod:`repro.engine.scenarios` -- pluggable, composable delivery models:
  clean synchronous, per-round link drops, adversarial bounded delay,
  correlated bursty outages, per-edge heterogeneous bandwidth, and the
  :class:`ComposedScenario` overlay/sequential combinator (JSON-serialisable
  via :func:`build_composed`).  The fast backends schedule every faulty
  scenario with per-edge prefix sums over its batch ``transmit_mask``, each
  row read from where that edge's traffic starts; every built-in ships a
  numpy kernel for it, and a ``transmits``-only scenario gets the base
  mask, which replays ``transmits`` cell by cell.
* :mod:`repro.engine.runner` -- :func:`run_algorithm`, the one entry point
  for a single execution (``Session().execute``); declarative sweeps and
  grids live one layer up in :mod:`repro.experiments`.

All backends are semantically equivalent: same outputs, same round counts,
same message/word accounting, under every scenario.
"""

from repro.engine.backend import Backend
from repro.engine.reference import ReferenceBackend
from repro.engine.registry import (
    available_backends,
    available_scenarios,
    backend_registry,
    register_backend,
    register_scenario,
    scenario_registry,
)
from repro.engine.runner import resolve_backend, run_algorithm
from repro.engine.scenarios import (
    AdversarialDelayScenario,
    BurstyFaultScenario,
    CleanSynchronous,
    ComposedScenario,
    DeliveryScenario,
    HeterogeneousBandwidthScenario,
    LinkDropScenario,
    RoundStats,
    build_composed,
    resolve_scenario,
)
from repro.engine.sharded import ShardedBackend
from repro.engine.vector import (
    VectorAlgorithm,
    VectorInbox,
    VectorSends,
    VectorTopology,
    as_vertex_factory,
    is_vector_algorithm,
    run_vector_algorithm,
)
from repro.engine.vectorized import VectorizedBackend

__all__ = [
    "VectorAlgorithm",
    "VectorInbox",
    "VectorSends",
    "VectorTopology",
    "as_vertex_factory",
    "is_vector_algorithm",
    "run_vector_algorithm",
    "Backend",
    "ReferenceBackend",
    "VectorizedBackend",
    "ShardedBackend",
    "available_backends",
    "available_scenarios",
    "backend_registry",
    "scenario_registry",
    "register_backend",
    "register_scenario",
    "resolve_backend",
    "run_algorithm",
    "DeliveryScenario",
    "CleanSynchronous",
    "LinkDropScenario",
    "AdversarialDelayScenario",
    "BurstyFaultScenario",
    "HeterogeneousBandwidthScenario",
    "ComposedScenario",
    "RoundStats",
    "build_composed",
    "resolve_scenario",
]
