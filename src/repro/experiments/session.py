"""Experiment sessions: execute specs, sweeps, and backend x scenario grids.

A :class:`Session` is the one place engine runs start: every library
caller of a backend's ``run`` goes through :meth:`Session.execute`.
:func:`repro.engine.run_algorithm` (which the robust compiler calls) is
``Session().execute(...)``, the distributed listing driver routes its
per-cluster executions through a session, experiment cells of per-vertex
workloads call :meth:`Session.execute`, and the benchmarks are thin
wrappers over :meth:`Session.sweep` / :meth:`Session.grid`.

Results are typed: every cell produces a :class:`RunResult` (metrics,
round/word/dropped counts, wall-clock samples, output digest) and every
sweep/grid a :class:`ResultSet`, whose :meth:`ResultSet.to_json` matches
the committed ``BENCH_*.json`` shape (``{"experiment", "workload",
"rows": [...]}``), whose :meth:`ResultSet.digest` is a deterministic
fingerprint (wall-clock excluded) for reproducibility tests, and whose
:meth:`ResultSet.check_backend_agreement` asserts the engine's semantic
equivalence guarantee cell-by-cell.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from typing import Any, Hashable, Iterable, Sequence

import networkx as nx
import numpy as np

from repro.congest.metrics import CongestMetrics
from repro.congest.network import SynchronousRun
from repro.engine.backend import Backend
from repro.engine.runner import resolve_backend
from repro.engine.scenarios import DeliveryScenario, resolve_scenario
from repro.experiments.spec import ExperimentSpec
from repro.obs.tracer import Tracer, resolve_tracer


def _length_prefixed(parts: Iterable[str]) -> str:
    """Join element encodings so no element boundary is ambiguous.

    A plain ``",".join`` lets elements containing the separator regroup
    (``{"a,b", "c"}`` and ``{"a", "b,c"}`` would join identically); the
    ``len:text`` prefix makes every element self-delimiting.
    """
    return ",".join(f"{len(part)}:{part}" for part in parts)


def _canonical_repr(value: Any) -> str:
    """A lossless textual form for digesting (``repr`` truncates big arrays).

    numpy renders arrays beyond its print threshold with a ``...`` ellipsis,
    so two arrays differing only in the elided middle would repr — and
    digest — identically; containers recurse so nested arrays are covered.
    Dicts and sets canonicalise as *sorted, length-prefixed* element
    encodings — dict entries as ``(key-repr, value-repr)`` tuples — so
    differently-structured values cannot collide (a key whose repr contains
    ``:`` or ``,`` must not be readable as part of its value).
    """
    if isinstance(value, np.ndarray):
        return f"ndarray({value.shape},{value.dtype},{value.tobytes()!r})"
    if isinstance(value, (list, tuple)):
        inner = ",".join(_canonical_repr(item) for item in value)
        return f"{type(value).__name__}[{inner}]"
    if isinstance(value, (set, frozenset)):
        inner = _length_prefixed(
            sorted(_canonical_repr(item) for item in value)
        )
        return f"{type(value).__name__}[{inner}]"
    if isinstance(value, dict):
        pairs = sorted(
            (_canonical_repr(k), _canonical_repr(v)) for k, v in value.items()
        )
        inner = _length_prefixed(_length_prefixed(pair) for pair in pairs)
        return f"dict[{inner}]"
    return repr(value)


def _digest_outputs(outputs: dict[Hashable, Any]) -> str:
    """A stable fingerprint of per-vertex outputs (canonical-repr, sha256)."""
    blob = repr(
        sorted((repr(k), _canonical_repr(v)) for k, v in outputs.items())
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# RunResult fields that deliberately never appear in to_row(): identity
# and transport-only data, invisible to ResultSet.digest() by design.
# REP007 (digest-field drift) checks every dataclass field is either a
# to_row() key or listed here — extend this set consciously, not by
# forgetting a field.
_ROW_EXCLUDED = frozenset({"spec_name", "outputs", "cell_index"})


@dataclass
class RunResult:
    """One executed experiment cell.

    Attributes:
        spec_name: ``name`` of the spec the cell came from.
        workload: workload label (registry name when available).
        backend: backend registry name the cell ran on.
        scenario: ``describe()`` string of the concrete scenario instance.
        scenario_name: scenario registry name when the cell was named.
        seed: sweep seed of the cell.
        n / edges: size of the workload graph.
        rounds / messages / words / dropped: the run's metric totals.
        halted: whether every vertex halted (vs. hitting ``max_rounds``).
        seconds: wall-clock samples, one per repeat.
        output_digest: sha256 fingerprint of the per-vertex outputs.
        outputs: the raw outputs when the session keeps them (``None``
            otherwise; grids over large graphs don't want them pinned).
        cell_index: position of this cell's scenario on the grid's
            scenario axis (0 outside grids); keeps cells distinct even
            when two scenario instances share a ``describe()`` string.
        timings: per-layer wall-clock budget (span name -> seconds summed
            over repeats) when the session ran with a tracer; empty
            otherwise.  Wall-clock-derived, so excluded from
            :meth:`ResultSet.digest` like ``seconds``.
        round_stretch: compiled-over-bare round ratio reported by runs that
            carry one (the robust compiler's cost measure); ``None`` for
            ordinary runs.  Deterministic (a ratio of round counts), so it
            participates in :meth:`ResultSet.digest`.
        reseats: re-seating events performed by the robust compiler's
            self-healing runtime (``heal=True`` runs); ``None`` otherwise.
            Deterministic (a count of protocol events), so it participates
            in :meth:`ResultSet.digest`.
    """

    spec_name: str
    workload: str
    backend: str
    scenario: str
    scenario_name: str | None
    seed: int
    n: int
    edges: int
    rounds: int
    messages: int
    words: int
    dropped: int
    halted: bool
    seconds: tuple[float, ...]
    output_digest: str
    outputs: dict[Hashable, Any] | None = None
    round_stretch: float | None = None
    reseats: int | None = None
    cell_index: int = 0
    timings: dict[str, float] = field(default_factory=dict)

    def signature(self) -> tuple:
        """The deterministic facts a repeat / another backend must reproduce."""
        return (
            self.rounds,
            self.messages,
            self.words,
            self.dropped,
            self.halted,
            self.output_digest,
        )

    @property
    def best_seconds(self) -> float:
        """Fastest repeat's wall clock (0.0 when nothing was timed)."""
        return min(self.seconds) if self.seconds else 0.0

    @property
    def words_per_second(self) -> float:
        """Delivered words per wall-clock second (the throughput measure).

        Faulty scenarios stretch rounds, so raw wall clock conflates engine
        overhead with scenario physics; words/second measures how fast the
        engine pushes the same payload volume through.  See also
        :attr:`rounds_per_second` for the per-round execution rate.
        """
        best = self.best_seconds
        return self.words / best if best > 0 else 0.0

    @property
    def rounds_per_second(self) -> float:
        """Executed rounds per wall-clock second (engine execution rate)."""
        best = self.best_seconds
        return self.rounds / best if best > 0 else 0.0

    def to_row(self) -> dict[str, Any]:
        """A JSON-ready row in the ``BENCH_*.json`` style.

        Wall-clock-derived fields (``seconds``, ``words_per_second``,
        ``rounds_per_second``) are excluded from :meth:`ResultSet.digest`.
        """
        return {
            "n": self.n,
            "edges": self.edges,
            "workload": self.workload,
            "backend": self.backend,
            "scenario": self.scenario,
            "scenario_name": self.scenario_name,
            "seed": self.seed,
            "rounds": self.rounds,
            "messages": self.messages,
            "words": self.words,
            "dropped": self.dropped,
            "halted": self.halted,
            "seconds": [round(s, 6) for s in self.seconds],
            "words_per_second": round(self.words_per_second, 1),
            "rounds_per_second": round(self.rounds_per_second, 1),
            "timings": {k: round(v, 6) for k, v in sorted(self.timings.items())},
            "round_stretch": (
                None if self.round_stretch is None
                else round(self.round_stretch, 4)
            ),
            "reseats": self.reseats,
            "output_digest": self.output_digest,
        }


def scenario_label(scenario: Any) -> str | None:
    """The ``scenario_name`` a cell stamps for a grid-axis entry.

    The registry name of a ``(name, params)`` pair or a bare string;
    ``None`` for live instances and the clean default.  Cache replays
    restamp this from the *current* request's axis entry — the cell
    digest treats equivalent spellings (``"clean"`` vs ``None``) as the
    same cell, so the label must come from the submission being served,
    not from the submission that originally executed the cell.
    """
    if isinstance(scenario, tuple) and len(scenario) == 2:
        return scenario[0]
    if isinstance(scenario, str):
        return scenario
    return None


@dataclass
class ResultSet:
    """An ordered collection of :class:`RunResult` cells plus report helpers."""

    experiment: str
    workload: str
    results: list[RunResult] = field(default_factory=list)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def to_json(self) -> dict[str, Any]:
        """The ``BENCH_*.json`` shape: experiment, workload, one row per cell."""
        return {
            "experiment": self.experiment,
            "workload": self.workload,
            "rows": [result.to_row() for result in self.results],
        }

    def digest(self) -> str:
        """Deterministic fingerprint of the whole set (wall clock excluded).

        Two executions of the same spec (any machine, any wall-clock) must
        produce the same digest — the seed-sweep determinism contract.
        """
        rows = []
        for result in self.results:
            row = result.to_row()
            # Every wall-clock-derived field must stay out of the digest:
            # two executions of the same spec on different machines agree.
            del row["seconds"]
            del row["words_per_second"]
            del row["rounds_per_second"]
            del row["timings"]
            rows.append(row)
        blob = json.dumps(rows, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def by_cell(self) -> dict[tuple[int, str, int], list[RunResult]]:
        """Group results by (scenario cell, seed) across backends.

        Cells are keyed by the scenario's position on the grid axis plus
        its ``describe()`` string and the seed, so two grid entries naming
        the same scenario with different parameters — even instances that
        share a ``describe()`` — stay distinct cells.
        """
        cells: dict[tuple[int, str, int], list[RunResult]] = {}
        for result in self.results:
            key = (result.cell_index, result.scenario, result.seed)
            cells.setdefault(key, []).append(result)
        return cells

    def check_backend_agreement(self) -> None:
        """Assert every (scenario, seed) cell agrees across its backends.

        This is the engine's semantic-equivalence guarantee, checked at the
        result layer: identical outputs, rounds, messages, words, drops,
        and halting on every backend of every cell.
        """
        for (_, scenario, seed), cell in self.by_cell().items():
            baseline = cell[0]
            for candidate in cell[1:]:
                if candidate.signature() != baseline.signature():
                    raise AssertionError(
                        f"backend {candidate.backend!r} diverged from "
                        f"{baseline.backend!r} on cell (scenario={scenario!r}, "
                        f"seed={seed}): {candidate.signature()} != "
                        f"{baseline.signature()}"
                    )

    def table(self) -> str:
        """A fixed-width text table of the cells (benchmarks print this)."""
        lines = [
            f"{'workload':<14s} {'backend':<11s} {'scenario':<26s} {'seed':>4s} "
            f"{'rounds':>7s} {'words':>9s} {'dropped':>7s} {'secs':>8s}"
        ]
        for result in self.results:
            scenario = result.scenario_name or result.scenario
            best = min(result.seconds) if result.seconds else 0.0
            lines.append(
                f"{result.workload:<14s} {result.backend:<11s} "
                f"{scenario:<26s} {result.seed:>4d} {result.rounds:>7d} "
                f"{result.words:>9d} {result.dropped:>7d} {best:>8.3f}"
            )
        return "\n".join(lines)


class Session:
    """Executes :class:`ExperimentSpec` cells against the engine.

    Attributes:
        name: label stamped onto the produced :class:`ResultSet`s.
        keep_outputs: pin each cell's raw per-vertex outputs on its
            :class:`RunResult` (digests are always recorded).
        tracer: the session's :class:`repro.obs.Tracer`; ``None`` installs
            the zero-overhead null tracer.  Tracing never perturbs
            execution — a traced run and an untraced run of the same spec
            produce identical :meth:`ResultSet.digest` fingerprints.
        cache: optional content-addressed result cache (anything with the
            :class:`repro.service.CellCache` ``get(digest)`` /
            ``put(digest, result)`` surface).  Cells of *portable* specs
            (registry names only) are keyed by
            :meth:`ExperimentSpec.cell_digest`; a hit replays the cached
            :class:`RunResult` (with this cell's ``cell_index`` and spec
            name stamped on) instead of executing.  Cells of non-portable
            specs always execute.
        history: every :class:`RunResult` this session produced, in order.
    """

    def __init__(
        self,
        name: str = "session",
        keep_outputs: bool = False,
        tracer: Tracer | None = None,
        cache: Any = None,
    ):
        self.name = name
        self.keep_outputs = keep_outputs
        self.tracer = resolve_tracer(tracer)
        self.cache = cache
        self.history: list[RunResult] = []

    # -- the imperative core -------------------------------------------------

    def execute(
        self,
        graph: nx.Graph,
        factory: Any,
        *,
        backend: Backend | type[Backend] | str | None = "reference",
        max_rounds: int = 10_000,
        phase: str = "simulated",
        metrics: CongestMetrics | None = None,
        scenario: DeliveryScenario | str | None = None,
        tracer: Tracer | None = None,
    ) -> SynchronousRun:
        """One engine execution: the library's one call of ``Backend.run``.

        Accepts backend names, instances and classes (what
        :func:`~repro.engine.run_algorithm` accepts) and returns the raw
        :class:`SynchronousRun` — no result bookkeeping.  ``tracer``
        overrides the session's tracer for this execution; the backend
        always receives the resolved tracer (the null tracer when tracing
        is off), so it sees the same call shape traced or untraced.
        """
        engine = resolve_backend(backend)
        return engine.run(
            graph,
            factory,
            max_rounds=max_rounds,
            phase=phase,
            metrics=metrics,
            scenario=None if scenario is None else resolve_scenario(scenario),
            tracer=self.tracer if tracer is None else resolve_tracer(tracer),
        )

    # -- declarative execution -----------------------------------------------

    def _run_cell(
        self,
        spec: ExperimentSpec,
        graph: nx.Graph,
        *,
        backend: Any,
        scenario: Any,
        seed: int,
        cell_index: int = 0,
    ) -> RunResult:
        """One cell: serve from the cache when possible, else execute.

        The cache key is the spec's deterministic
        :meth:`~ExperimentSpec.cell_digest` (``None`` for non-portable
        cells, which always execute).  A session that pins raw outputs
        (``keep_outputs``) treats cached results without outputs as misses
        so replays never silently lose data.
        """
        digest: str | None = None
        if self.cache is not None:
            digest = spec.cell_digest(
                backend=backend, scenario=scenario, seed=seed
            )
        if digest is not None:
            cached = self.cache.get(digest)
            if cached is not None and not (
                self.keep_outputs and cached.outputs is None
            ):
                result = replace(
                    cached, cell_index=cell_index, spec_name=spec.name,
                    scenario_name=scenario_label(scenario),
                )
                if self.tracer.enabled:
                    self.tracer.cell_end(
                        digest, spec=spec.name, seed=seed,
                        seconds=0.0, cached=True,
                    )
                self.history.append(result)
                return result
        result = self._execute_cell(
            spec, graph,
            backend=backend, scenario=scenario, seed=seed,
            cell_index=cell_index, digest=digest,
        )
        if digest is not None:
            self.cache.put(digest, result)
        self.history.append(result)
        return result

    def _execute_cell(
        self,
        spec: ExperimentSpec,
        graph: nx.Graph,
        *,
        backend: Any,
        scenario: Any,
        seed: int,
        cell_index: int = 0,
        digest: str | None = None,
    ) -> RunResult:
        engine = spec._build_backend(backend)
        concrete = spec._build_scenario(seed=seed, scenario=scenario)
        kind = spec.workload_kind()
        workload = spec.build_workload()

        tracer = self.tracer
        traced = tracer.enabled
        if traced:
            tracer.cell_begin(
                digest, spec=spec.name, backend=engine.name, seed=seed
            )
        spans_before = dict(tracer.span_totals()) if traced else {}
        seconds: list[float] = []
        run: SynchronousRun | None = None
        signature: tuple | None = None
        for _ in range(spec.repeats):
            start = time.perf_counter()
            with tracer.span("run_cell"):
                if kind == "driver":
                    candidate = workload(
                        graph,
                        backend=engine,
                        scenario=concrete,
                        max_rounds=spec.max_rounds,
                        session=self,
                    )
                else:
                    candidate = self.execute(
                        graph,
                        workload,
                        backend=engine,
                        max_rounds=spec.max_rounds,
                        phase=spec.name,
                        scenario=concrete,
                    )
            seconds.append(time.perf_counter() - start)
            current = (
                candidate.rounds, candidate.metrics.messages,
                candidate.metrics.words, candidate.metrics.dropped,
                candidate.halted, _digest_outputs(candidate.outputs),
            )
            if signature is not None and current != signature:
                raise AssertionError(
                    f"repeat of {spec.name!r} diverged (the engine is "
                    f"deterministic; a workload with hidden global state "
                    f"is not a valid experiment): {signature} != {current}"
                )
            run, signature = candidate, current

        timings: dict[str, float] = {}
        if traced:
            # The cell's per-layer time budget: the growth of the tracer's
            # cumulative span totals across this cell's repeats.
            for name, total in tracer.span_totals().items():
                delta = total - spans_before.get(name, 0.0)
                if delta > 0.0:
                    timings[name] = delta
        result = RunResult(
            spec_name=spec.name,
            workload=(
                spec.workload if isinstance(spec.workload, str)
                else getattr(spec.workload, "__name__", "workload")
            ),
            backend=engine.name,
            scenario=(
                concrete.describe() if concrete is not None else "CleanSynchronous"
            ),
            scenario_name=scenario_label(scenario),
            seed=seed,
            n=graph.number_of_nodes(),
            edges=graph.number_of_edges(),
            rounds=run.rounds,
            messages=run.metrics.messages,
            words=run.metrics.words,
            dropped=run.metrics.dropped,
            halted=run.halted,
            seconds=tuple(seconds),
            output_digest=signature[-1],
            outputs=dict(run.outputs) if self.keep_outputs else None,
            round_stretch=getattr(run, "round_stretch", None),
            reseats=getattr(run, "reseats", None),
            cell_index=cell_index,
            timings=timings,
        )
        if traced:
            tracer.cell_end(
                digest, spec=spec.name, seed=seed,
                seconds=result.best_seconds, cached=False,
            )
        return result

    def run(self, spec: ExperimentSpec) -> RunResult:
        """Execute the spec's single default cell (first seed)."""
        graph = spec.build_graph()
        return self._run_cell(
            spec, graph,
            backend=spec.backend, scenario=spec.scenario, seed=spec.seeds[0],
        )

    def sweep(self, spec: ExperimentSpec) -> ResultSet:
        """Execute every seed of the spec on its configured backend/scenario."""
        return self.grid(spec, backends=None, scenarios=None)

    def grid(
        self,
        spec: ExperimentSpec,
        backends: Sequence[Backend | type[Backend] | str | None] | None = None,
        scenarios: Iterable[Any] | None = None,
    ) -> ResultSet:
        """Execute the full backend x scenario x seed grid of one spec.

        ``backends`` / ``scenarios`` default to the spec's own single
        backend / scenario; pass lists (registry names, ``(name, params)``
        pairs, instances, or classes) to widen either axis.  The spec's
        ``backend_params`` / ``scenario_params`` apply only to cells naming
        the spec's own backend / scenario — other cells run their defaults
        unless given explicit ``(name, params)``.  Note that a *live
        scenario instance* carries its own randomness, so on a multi-seed
        spec its cells repeat identical delivery decisions per seed (named
        scenarios get the sweep seed injected; pinning ``seed`` in a
        ``(name, params)`` pair on a multi-seed spec is rejected).  The
        graph is built once and shared by every cell, so all cells see the
        identical topology.
        """
        graph = spec.build_graph()
        backends = list(backends) if backends is not None else [spec.backend]
        scenarios = list(scenarios) if scenarios is not None else [spec.scenario]
        results = ResultSet(experiment=spec.name, workload=str(spec.workload))
        for cell_index, scenario in enumerate(scenarios):
            for seed in spec.seeds:
                for backend in backends:
                    results.results.append(
                        self._run_cell(
                            spec, graph,
                            backend=backend, scenario=scenario, seed=seed,
                            cell_index=cell_index,
                        )
                    )
        return results


_SPEC_DEFAULT = object()


def run_cell(
    spec: ExperimentSpec,
    *,
    backend: Any = _SPEC_DEFAULT,
    scenario: Any = _SPEC_DEFAULT,
    seed: int | None = None,
    cell_index: int = 0,
    graph: nx.Graph | None = None,
    keep_outputs: bool = False,
    tracer: Tracer | None = None,
    cache: Any = None,
) -> RunResult:
    """Execute one experiment cell without a long-lived session.

    This is the server-callable unit under :meth:`Session.grid`: the
    experiment service's pool workers reconstruct a spec from JSON and call
    this per cell.  ``backend`` / ``scenario`` accept exactly the grid-cell
    forms (registry name, ``(name, params)`` pair, instance, class, or
    ``None``) and default to the spec's own; ``seed`` defaults to the
    spec's first seed.  ``graph`` short-circuits :meth:`ExperimentSpec.
    build_graph` for callers that share one graph across cells, and
    ``cache`` plugs a content-addressed result cache in exactly as on
    :class:`Session`.
    """
    if backend is _SPEC_DEFAULT:
        backend = spec.backend
    if scenario is _SPEC_DEFAULT:
        scenario = spec.scenario
    if seed is None:
        seed = spec.seeds[0]
    session = Session(
        name=f"cell:{spec.name}",
        keep_outputs=keep_outputs,
        tracer=tracer,
        cache=cache,
    )
    if graph is None:
        graph = spec.build_graph()
    return session._run_cell(
        spec, graph,
        backend=backend, scenario=scenario, seed=seed, cell_index=cell_index,
    )
