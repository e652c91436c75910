"""Declarative experiment specifications.

An :class:`ExperimentSpec` names everything one experiment cell needs —
graph source, algorithm (workload), backend configuration, delivery
scenario, seeds, repeats, and the round cap — by *registry name* plus a
parameter dict, so a spec is a plain JSON document: it validates eagerly at
construction (unknown names and malformed parameters fail immediately, with
the sorted registry names in the error), serialises with :meth:`to_json`,
and reconstructs identically with :meth:`from_json`.

Two open registries complement the engine's backend / scenario registries:

* **graph sources** (:func:`register_graph_source`) — builders returning an
  ``nx.Graph`` from keyword parameters; pre-populated with every generator
  in :mod:`repro.graphs`.
* **workloads** (:func:`register_workload`) — builders returning either a
  per-vertex factory (``kind="vertex"``, the default) or a *driver*
  (``kind="driver"``): a callable executing a whole multi-execution
  protocol (e.g. the distributed listing recursion) against a backend and
  scenario, returning a :class:`~repro.congest.network.SynchronousRun`.

For programmatic use a spec also accepts live objects (an ``nx.Graph``, a
factory class, a configured :class:`~repro.engine.backend.Backend` or
:class:`~repro.engine.scenarios.DeliveryScenario` instance) in place of any
name; such a spec executes normally but refuses :meth:`to_json` with an
error naming the offending field — register the object to make the spec
portable.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from dataclasses import dataclass, field
from typing import Any, Callable

import networkx as nx

from repro.engine.backend import Backend
from repro.engine.registry import Registry, backend_registry, scenario_registry
from repro.engine.scenarios import DeliveryScenario
from repro.graphs import (
    clustered_communities,
    erdos_renyi,
    expander_like,
    planted_cliques,
    power_law,
    ring_of_cliques,
)

graph_source_registry = Registry("graph source")
workload_registry = Registry("workload")
# The robust compiler's driver workload registers on first lookup, so specs
# can name "robust-compiled" without an explicit import of repro.robust.
workload_registry.lazy_modules.append("repro.robust.workload")

_UNSET = object()


def register_graph_source(name: str) -> Callable:
    """Decorator: register a ``(**params) -> nx.Graph`` builder under ``name``."""
    return graph_source_registry.register(name)


def register_workload(name: str, kind: str = "vertex") -> Callable:
    """Decorator: register a workload builder under ``name``.

    ``kind="vertex"`` (default): the builder returns a per-vertex factory
    (or :class:`~repro.engine.vector.VectorAlgorithm` class) the engine runs
    directly.  ``kind="driver"``: the builder returns a callable
    ``run(graph, *, backend, scenario, max_rounds, session)`` executing a
    whole protocol (possibly many engine executions) and returning a
    :class:`~repro.congest.network.SynchronousRun`-shaped result.  A driver
    builder's return value is stamped with ``kind = "driver"`` so the built
    runner is recognised even when passed into a spec as a live object.
    """
    if kind not in ("vertex", "driver"):
        raise ValueError(f"workload kind must be 'vertex' or 'driver'; got {kind!r}")

    def decorator(builder):
        target = builder
        if kind == "driver":

            @functools.wraps(builder)
            def target(*args: Any, **kwargs: Any):
                runner = builder(*args, **kwargs)
                try:
                    runner.kind = "driver"
                except (AttributeError, TypeError):  # pragma: no cover
                    pass
                return runner

        target.kind = kind
        return workload_registry.register(name)(target)

    return decorator


# -- built-in graph sources: every generator in repro.graphs -----------------

for _name, _builder in [
    ("erdos-renyi", erdos_renyi),
    ("planted-cliques", planted_cliques),
    ("clustered-communities", clustered_communities),
    ("power-law", power_law),
    ("ring-of-cliques", ring_of_cliques),
    ("expander-like", expander_like),
]:
    graph_source_registry.register(_name)(_builder)

graph_source_registry.register("path")(lambda n: nx.path_graph(n))
graph_source_registry.register("complete")(lambda n: nx.complete_graph(n))


def _bind_params(builder: Callable, params: dict, what: str) -> None:
    """Eagerly check that ``params`` fully satisfy ``builder``'s signature.

    A full ``bind`` (not ``bind_partial``): a spec omitting a required
    builder parameter must fail at construction, not as a raw ``TypeError``
    deep inside a sweep.
    """
    try:
        signature = inspect.signature(builder)
    except (TypeError, ValueError):  # builtins without introspection
        return
    try:
        signature.bind(**params)
    except TypeError as exc:
        raise ValueError(f"invalid parameters for {what}: {exc}") from None


def _accepts_seed(cls: type) -> bool:
    try:
        return "seed" in inspect.signature(cls).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic classes
        return False


@dataclass
class ExperimentSpec:
    """One declarative experiment: what to run, on what, under what.

    Attributes:
        name: label carried into results and reports.
        graph: graph-source registry name, or a concrete ``nx.Graph``.
        graph_params: keyword parameters of the graph source builder.
        workload: workload registry name, or a factory / driver object.
        workload_params: keyword parameters of the workload builder.
        backend: backend registry name, instance, or class (default cell;
            grids override per cell).
        backend_params: constructor parameters when ``backend`` is a name.
        scenario: scenario registry name, instance, or ``None`` (clean).
        scenario_params: constructor parameters when ``scenario`` is a name.
        seeds: the seed sweep.  Each seed parametrizes the *delivery
            scenario's* randomness (injected as its ``seed`` parameter when
            the scenario class accepts one; ignored otherwise, e.g. for
            ``clean``).  Graph randomness stays pinned in ``graph_params``
            so every cell of a sweep runs the identical topology.
        repeats: timed executions per cell; all repeats must produce
            identical metrics (the session asserts this), extra repeats
            only sharpen wall-clock statistics.
        max_rounds: safety cap on synchronous rounds per execution.
    """

    name: str = "experiment"
    graph: str | nx.Graph = "erdos-renyi"
    graph_params: dict[str, Any] = field(
        # A complete default (erdos_renyi requires n and avg_degree), so the
        # zero-argument spec is runnable and eager validation stays strict.
        default_factory=lambda: {"n": 64, "avg_degree": 6.0, "seed": 0}
    )
    workload: str | Any = "flood-min"
    workload_params: dict[str, Any] = field(default_factory=dict)
    backend: str | Backend | type[Backend] | None = "reference"
    backend_params: dict[str, Any] = field(default_factory=dict)
    scenario: str | DeliveryScenario | None = "clean"
    scenario_params: dict[str, Any] = field(default_factory=dict)
    seeds: tuple[int, ...] = (0,)
    repeats: int = 1
    max_rounds: int = 10_000

    def __post_init__(self) -> None:
        self.graph_params = dict(self.graph_params)
        self.workload_params = dict(self.workload_params)
        self.backend_params = dict(self.backend_params)
        self.scenario_params = dict(self.scenario_params)
        self.seeds = tuple(self.seeds)
        self.validate()

    # -- eager validation ----------------------------------------------------

    def validate(self) -> None:
        """Resolve every name and bind every parameter dict, or raise now."""
        if isinstance(self.graph, str):
            builder = graph_source_registry.get(self.graph)
            _bind_params(builder, self.graph_params, f"graph source {self.graph!r}")
        elif not isinstance(self.graph, nx.Graph):
            raise TypeError(
                f"graph must be a registry name or an nx.Graph; got {self.graph!r}"
            )
        if isinstance(self.workload, str):
            builder = workload_registry.get(self.workload)
            _bind_params(builder, self.workload_params, f"workload {self.workload!r}")
        elif self.workload_params:
            raise ValueError(
                "workload_params only apply when workload is a registry name"
            )
        if not isinstance(self.backend, str) and self.backend_params:
            raise ValueError(
                "backend_params only apply when backend is a registry name"
            )
        # Instantiating is cheap for every registered backend/scenario and
        # turns bad constructor parameters into an eager, located error.
        self._build_backend()
        self._build_scenario(seed=None)
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if not all(isinstance(seed, int) for seed in self.seeds):
            raise TypeError(f"seeds must be integers; got {self.seeds!r}")
        if len(self.seeds) > 1 and "seed" in self.scenario_params:
            raise ValueError(
                "scenario_params pins 'seed', which would make every cell of "
                "the multi-seed sweep run identical delivery randomness; "
                "drop the pinned seed or use a single-element seeds tuple"
            )
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1; got {self.repeats}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1; got {self.max_rounds}")

    # -- construction of the concrete ingredients ----------------------------

    def build_graph(self) -> nx.Graph:
        if isinstance(self.graph, nx.Graph):
            return self.graph
        return graph_source_registry.get(self.graph)(**self.graph_params)

    def workload_kind(self) -> str:
        if isinstance(self.workload, str):
            return getattr(workload_registry.get(self.workload), "kind", "vertex")
        return getattr(self.workload, "kind", "vertex")

    def build_workload(self) -> Any:
        """The factory (vertex workloads) or runner (driver workloads)."""
        if isinstance(self.workload, str):
            builder = workload_registry.get(self.workload)
            return builder(**self.workload_params)
        return self.workload

    def _build_backend(self, backend: Any = _UNSET) -> Backend:
        """Backend instance for one cell.

        ``backend`` may be a registry name (the spec-level
        ``backend_params`` apply only when it is the spec's *own* backend
        name), a ``(name, params)`` pair (grid cells with per-backend
        configuration), an instance, a class, or ``None`` (reference).
        """
        if backend is _UNSET:
            backend = self.backend
        params = dict(self.backend_params) if backend == self.backend else {}
        if isinstance(backend, tuple) and len(backend) == 2:
            backend, params = backend[0], dict(backend[1])
        if isinstance(backend, str):
            cls = backend_registry.get(backend)
            _bind_params(cls, params, f"backend {backend!r}")
            return cls(**params)
        from repro.engine.runner import resolve_backend

        return resolve_backend(backend)

    def _build_scenario(
        self, seed: int | None, scenario: Any = _UNSET
    ) -> DeliveryScenario | None:
        """Scenario instance for one cell, with the sweep seed injected.

        ``scenario`` may be a registry name (parameters come from the
        spec's ``scenario_params``), a ``(name, params)`` pair (grid cells
        with per-scenario parameters), a live instance, or ``None``.
        """
        if scenario is _UNSET:
            scenario = self.scenario
        if scenario is None or isinstance(scenario, DeliveryScenario):
            return scenario
        # The spec-level scenario_params belong to the spec's *own* scenario
        # only; a grid cell naming a different scenario gets that scenario's
        # defaults (pass a (name, params) pair to parameterize grid cells).
        params = dict(self.scenario_params) if scenario == self.scenario else {}
        if isinstance(scenario, tuple) and len(scenario) == 2:
            scenario, params = scenario[0], dict(scenario[1])
            if len(self.seeds) > 1 and "seed" in params:
                # Same guard validate() applies to spec-level params: a
                # pinned seed would run every sweep cell with identical
                # delivery randomness.
                raise ValueError(
                    f"grid scenario ({scenario!r}, ...) pins 'seed' while the "
                    f"spec sweeps {len(self.seeds)} seeds; every cell would "
                    f"run identical delivery randomness"
                )
        if not isinstance(scenario, str):
            raise TypeError(
                f"scenario must be a registry name, a (name, params) pair, "
                f"a DeliveryScenario instance, or None; got {scenario!r}"
            )
        cls = scenario_registry.get(scenario)
        if seed is not None and "seed" not in params and _accepts_seed(cls):
            params["seed"] = seed
        _bind_params(cls, params, f"scenario {scenario!r}")
        return cls(**params)

    # -- content addressing --------------------------------------------------

    def cell_payload(
        self, *, backend: Any = _UNSET, scenario: Any = _UNSET,
        seed: int | None = None,
    ) -> dict[str, Any] | None:
        """The canonical JSON description of one cell, or ``None``.

        A cell is everything that determines a :class:`RunResult`'s
        deterministic fields: graph source + params, workload + params, the
        cell's backend and scenario resolved to ``(name, params)`` form
        (with the sweep seed injected exactly as execution injects it),
        the seed itself, ``repeats``, and ``max_rounds``.  The spec's
        ``name`` is a label, not an ingredient, so renamed resubmissions of
        identical cells share cache entries.  Cells involving live objects
        (an ``nx.Graph``, factory, backend, or scenario instance) are not
        content-addressable and return ``None``.
        """
        if not isinstance(self.graph, str) or not isinstance(self.workload, str):
            return None
        if backend is _UNSET:
            backend = self.backend
        if scenario is _UNSET:
            scenario = self.scenario
        if seed is None:
            seed = self.seeds[0]
        backend_params = (
            dict(self.backend_params) if backend == self.backend else {}
        )
        if isinstance(backend, tuple) and len(backend) == 2:
            backend, backend_params = backend[0], dict(backend[1])
        if backend is None:
            backend, backend_params = "reference", {}
        if not isinstance(backend, str):
            return None
        scenario_params = (
            dict(self.scenario_params) if scenario == self.scenario else {}
        )
        if isinstance(scenario, tuple) and len(scenario) == 2:
            scenario, scenario_params = scenario[0], dict(scenario[1])
        if scenario is None:
            # ``scenario=None`` and ``scenario="clean"`` execute the same
            # clean synchronous delivery; normalise so they share entries.
            scenario, scenario_params = "clean", {}
        if not isinstance(scenario, str):
            return None
        cls = scenario_registry.get(scenario)
        if "seed" not in scenario_params and _accepts_seed(cls):
            scenario_params["seed"] = seed
        return {
            "v": 1,
            "graph": {"source": self.graph, "params": dict(self.graph_params)},
            "workload": {
                "name": self.workload, "params": dict(self.workload_params)
            },
            "backend": {"name": backend, "params": backend_params},
            "scenario": {"name": scenario, "params": scenario_params},
            "seed": seed,
            "repeats": self.repeats,
            "max_rounds": self.max_rounds,
        }

    def cell_digest(
        self, *, backend: Any = _UNSET, scenario: Any = _UNSET,
        seed: int | None = None,
    ) -> str | None:
        """Deterministic content address of one cell (``None`` if live).

        The key of the experiment service's result cache: two submissions
        — any client, any machine — whose :meth:`cell_payload` agree hash
        to the same digest and are answered by the same cached
        :class:`~repro.experiments.session.RunResult`.
        """
        payload = self.cell_payload(backend=backend, scenario=scenario, seed=seed)
        if payload is None:
            return None
        blob = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    # -- serialisation -------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """A plain-JSON dict; ``from_json`` reconstructs an equal spec.

        Raises :class:`ValueError` when a field holds a live object instead
        of a registry name — register the object (``@register_workload``,
        ``@register_scenario``, ...) to make the spec portable.
        """
        for label, value in [
            ("graph", self.graph),
            ("workload", self.workload),
            ("backend", self.backend),
            ("scenario", self.scenario),
        ]:
            if value is not None and not isinstance(value, str):
                raise ValueError(
                    f"spec field {label!r} holds a live object ({value!r}); "
                    f"only registry names serialise — register it first"
                )
        return {
            "name": self.name,
            "graph": {"source": self.graph, "params": dict(self.graph_params)},
            "algorithm": {
                "workload": self.workload,
                "params": dict(self.workload_params),
            },
            "backend": {"name": self.backend, "params": dict(self.backend_params)},
            "scenario": {
                "name": self.scenario,
                "params": dict(self.scenario_params),
            },
            "seeds": list(self.seeds),
            "repeats": self.repeats,
            "max_rounds": self.max_rounds,
        }

    _JSON_KEYS = (
        "name", "graph", "algorithm", "backend", "scenario",
        "seeds", "repeats", "max_rounds",
    )

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "ExperimentSpec":
        """Reconstruct (and eagerly re-validate) a spec from :meth:`to_json`.

        Each of ``graph`` / ``algorithm`` / ``backend`` / ``scenario`` may
        be the nested ``{name-or-source, params}`` object :meth:`to_json`
        emits, or — convenient in hand-written config files — a bare
        registry-name string (parameters default to empty).
        """
        extra = set(payload) - set(cls._JSON_KEYS)
        if extra:
            raise ValueError(
                f"unknown spec fields: {sorted(extra)}; "
                f"known: {sorted(cls._JSON_KEYS)}"
            )

        kwargs: dict[str, Any] = {}

        def section(key: str, name_key: str, name_field: str, params_field: str):
            if key not in payload:
                return  # absent sections keep the dataclass defaults
            value = payload[key]
            if isinstance(value, str):
                kwargs[name_field], kwargs[params_field] = value, {}
                return
            if not isinstance(value, dict):
                raise ValueError(
                    f"spec field {key!r} must be a name string or a "
                    f"{{{name_key!r}, 'params'}} object; got {value!r}"
                )
            if name_key in value:
                kwargs[name_field] = value[name_key]
            kwargs[params_field] = value.get("params", {})

        section("graph", "source", "graph", "graph_params")
        section("algorithm", "workload", "workload", "workload_params")
        section("backend", "name", "backend", "backend_params")
        section("scenario", "name", "scenario", "scenario_params")
        if "name" in payload:
            kwargs["name"] = payload["name"]
        if "seeds" in payload:
            kwargs["seeds"] = tuple(payload["seeds"])
        if "repeats" in payload:
            kwargs["repeats"] = payload["repeats"]
        if "max_rounds" in payload:
            kwargs["max_rounds"] = payload["max_rounds"]
        return cls(**kwargs)

    def describe(self) -> str:
        graph = self.graph if isinstance(self.graph, str) else "<graph object>"
        workload = (
            self.workload if isinstance(self.workload, str) else "<workload object>"
        )
        return (
            f"{self.name}: {workload} on {graph}{self.graph_params or ''} "
            f"[{len(self.seeds)} seed(s) x {self.repeats} repeat(s), "
            f"max_rounds={self.max_rounds}]"
        )
