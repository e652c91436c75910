"""Declarative experiment API over the execution engine.

The session layer turns ad-hoc ``run_algorithm`` wiring into declarative,
serialisable experiments:

* :class:`ExperimentSpec` — one experiment as data: graph source,
  workload, backend config, delivery scenario, seeds, repeats, round cap.
  Validates eagerly against the open registries; round-trips through JSON.
* :class:`Session` — executes specs: :meth:`Session.run` (one cell),
  :meth:`Session.sweep` (seed sweeps), :meth:`Session.grid` (backend x
  scenario grids), plus the imperative :meth:`Session.execute`, the one
  call site of a backend's ``run`` (:func:`repro.engine.run_algorithm` is
  ``Session().execute(...)``).
* :class:`RunResult` / :class:`ResultSet` — typed results with metric
  totals, wall-clock samples, output digests, a deterministic
  :meth:`ResultSet.digest`, a ``BENCH_*.json``-shaped
  :meth:`ResultSet.to_json`, and cell-wise backend-agreement checking.
* Open registries — :func:`register_graph_source` and
  :func:`register_workload` here, :func:`repro.engine.registry.register_backend`
  and :func:`repro.engine.registry.register_scenario` on the engine side —
  so new graphs, workloads, backends, and delivery models plug in by
  decorator, no library edits.

Quickstart::

    from repro.experiments import ExperimentSpec, Session

    spec = ExperimentSpec(
        name="flood-grid",
        graph="erdos-renyi", graph_params={"n": 200, "avg_degree": 8.0, "seed": 1},
        workload="flood-min",
        seeds=(0, 1, 2),
    )
    results = Session().grid(
        spec,
        backends=["reference", "vectorized"],
        scenarios=["clean", "link-drop", "bursty"],
    )
    results.check_backend_agreement()
    print(results.table())
"""

from repro.experiments.session import ResultSet, RunResult, Session, run_cell
from repro.experiments.spec import (
    ExperimentSpec,
    graph_source_registry,
    register_graph_source,
    register_workload,
    workload_registry,
)
from repro.experiments import workloads  # noqa: F401  (registers built-ins)

__all__ = [
    "ExperimentSpec",
    "Session",
    "RunResult",
    "ResultSet",
    "run_cell",
    "register_graph_source",
    "register_workload",
    "graph_source_registry",
    "workload_registry",
]
