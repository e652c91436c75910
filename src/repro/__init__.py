"""Reference implementation of *Deterministic Near-Optimal Distributed Listing
of Cliques* (Censor-Hillel, Leitersdorf, Vulakh -- PODC 2022).

The public API re-exports the main entry points:

* :func:`repro.list_cliques` / :func:`repro.list_triangles` -- the paper's
  deterministic CONGEST listing algorithms (Theorems 32 and 36) with full
  round accounting (cost-model mode).
* :func:`repro.list_triangles_distributed` /
  :func:`repro.list_cliques_distributed` -- the same recursive pipeline
  executed as real per-vertex messages on the execution engine, on any
  backend and delivery scenario (measured-execution mode).
* :func:`repro.validate_listing` / :func:`repro.validate_distributed_listing`
  -- coverage checks against ground truth (plus the measured-vs-predicted
  round cross-check for distributed runs).
* :func:`repro.run_algorithm` -- run any per-vertex CONGEST algorithm on
  the pluggable execution engine (:mod:`repro.engine`): reference or
  vectorized backend, under pluggable delivery scenarios.  It
  is :func:`repro.engine.run_algorithm`, the engine's one entry point.
* :class:`repro.ExperimentSpec` / :class:`repro.Session` -- the declarative
  experiment layer (:mod:`repro.experiments`): JSON-round-tripping
  experiment specs over open registries, executed as single runs, seed
  sweeps, or backend x scenario grids with typed results.
* :class:`repro.VectorAlgorithm` -- the vectorized per-vertex layer: one
  ``on_round`` call steps all vertices on numpy arrays, eliminating Python
  per-vertex dispatch for array-friendly workloads while the same class
  still runs per-vertex (via its ``per_vertex`` twin) on every backend.
* :class:`repro.Tracer` / :class:`repro.RecordingTracer` /
  :class:`repro.JsonlTracer` -- the observability layer
  (:mod:`repro.obs`): structured per-round engine traces, per-layer time
  budgets, Chrome-trace export, and the trace-diff divergence debugger.
* :mod:`repro.graphs` -- workload generators and structural utilities.
* :mod:`repro.congest`, :mod:`repro.decomposition`, :mod:`repro.streaming`,
  :mod:`repro.partition_trees` -- the substrates the algorithms are built on.
* :mod:`repro.baselines` -- the algorithms the paper compares against.
"""

from repro.listing import (
    ListingResult,
    TriangleListing,
    CliqueListing,
    DistributedListingDriver,
    DistributedListingResult,
    list_cliques,
    list_triangles,
    list_cliques_distributed,
    list_triangles_distributed,
    validate_listing,
    validate_on_engine,
    validate_distributed_listing,
)
from repro.listing.validation import CoverageReport, DistributedValidationReport
from repro.engine import VectorAlgorithm, run_algorithm
from repro.experiments import ExperimentSpec, ResultSet, RunResult, Session
from repro.obs import JsonlTracer, NullTracer, RecordingTracer, Tracer

__version__ = "1.8.0"

__all__ = [
    "VectorAlgorithm",
    "Tracer",
    "NullTracer",
    "RecordingTracer",
    "JsonlTracer",
    "ExperimentSpec",
    "Session",
    "RunResult",
    "ResultSet",
    "ListingResult",
    "TriangleListing",
    "CliqueListing",
    "DistributedListingDriver",
    "DistributedListingResult",
    "list_cliques",
    "list_triangles",
    "list_cliques_distributed",
    "list_triangles_distributed",
    "validate_listing",
    "validate_on_engine",
    "validate_distributed_listing",
    "run_algorithm",
    "CoverageReport",
    "DistributedValidationReport",
    "__version__",
]
