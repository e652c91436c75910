"""The experiment service's JSON wire protocol.

One request kind does the work: a :class:`SubmitRequest` carries a
*portable* :class:`~repro.experiments.ExperimentSpec` (the exact
:meth:`~repro.experiments.ExperimentSpec.to_json` shape) plus optional
``backends`` / ``scenarios`` grid axes — the same cell forms
:meth:`~repro.experiments.Session.grid` accepts, with ``(name, params)``
pairs spelled as two-element JSON arrays.  The server enumerates the
request into :class:`CellCoord` cells in grid order (scenario-major,
then seed, then backend — matching ``Session.grid`` exactly, so a served
:class:`~repro.experiments.ResultSet` digests identically to a direct
grid of the same spec), answers each cell from the
:class:`~repro.service.cache.CellCache` or the worker pool, and replies
with:

* streamed progress (``stream: true``, the default): one JSON line per
  event — ``accepted``, then the :mod:`repro.obs` cell event shapes
  (``cell_begin`` / ``cell_end`` with ``cached`` flags / ``cell_failed``)
  — terminated by the final ``{"kind": "result", ...}`` line;
* or a single final ``result`` object (``stream: false``).

The final reply carries the full ``BENCH_*.json``-shaped result set, its
deterministic digest, per-request cache statistics, and any per-cell
failures (a failed cell never fails the grid: its row is simply absent
and listed under ``failures``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.experiments.spec import ExperimentSpec


class ProtocolError(ValueError):
    """A malformed request (the server answers 400 with the message)."""


def axis_entry_from_json(entry: Any, what: str) -> Any:
    """One grid-axis cell from JSON: name, ``[name, params]``, or ``None``."""
    if entry is None or isinstance(entry, str):
        return entry
    if (
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and isinstance(entry[0], str)
        and isinstance(entry[1], dict)
    ):
        return (entry[0], dict(entry[1]))
    raise ProtocolError(
        f"{what} axis entries must be registry names, [name, params] "
        f"pairs, or null; got {entry!r}"
    )


def axis_entry_to_json(entry: Any) -> Any:
    """Inverse of :func:`axis_entry_from_json`."""
    if isinstance(entry, tuple):
        return [entry[0], dict(entry[1])]
    return entry


@dataclass(frozen=True)
class CellCoord:
    """One enumerated grid cell: its coordinates plus content address."""

    backend: Any
    scenario: Any
    seed: int
    cell_index: int
    digest: str | None

    def describe(self) -> dict[str, Any]:
        """The JSON identity carried on the cell's progress events."""
        return {
            "digest": self.digest,
            "backend": axis_entry_to_json(self.backend),
            "scenario": axis_entry_to_json(self.scenario),
            "seed": self.seed,
            "cell_index": self.cell_index,
        }


@dataclass
class SubmitRequest:
    """One client submission: a portable spec plus optional grid axes.

    Attributes:
        spec: the :meth:`ExperimentSpec.to_json` document to execute.
        client: submitting client's label — the fair-share queueing key.
        backends: optional backend axis (grid-cell JSON forms); ``None``
            runs the spec's own backend only.
        scenarios: optional scenario axis; ``None`` runs the spec's own.
        timeout: per-cell wall-clock budget in seconds (``None`` uses the
            server's default); an over-budget cell is reported failed
            without stalling other clients' queues.
        stream: stream NDJSON progress events (default) or reply with the
            single final result object.
    """

    spec: dict[str, Any]
    client: str = "anonymous"
    backends: list[Any] | None = None
    scenarios: list[Any] | None = None
    timeout: float | None = None
    stream: bool = True

    _KEYS = ("spec", "client", "backends", "scenarios", "timeout", "stream")

    @classmethod
    def from_json(cls, payload: Any) -> "SubmitRequest":
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"submit request must be a JSON object; got {type(payload).__name__}"
            )
        extra = set(payload) - set(cls._KEYS)
        if extra:
            raise ProtocolError(
                f"unknown submit fields: {sorted(extra)}; known: "
                f"{sorted(cls._KEYS)}"
            )
        if "spec" not in payload:
            raise ProtocolError("submit request is missing the 'spec' field")
        spec = payload["spec"]
        if not isinstance(spec, dict):
            raise ProtocolError("'spec' must be an ExperimentSpec JSON object")
        client = payload.get("client", "anonymous")
        if not isinstance(client, str) or not client:
            raise ProtocolError(f"'client' must be a non-empty string; got {client!r}")
        axes: dict[str, list[Any] | None] = {}
        for key in ("backends", "scenarios"):
            value = payload.get(key)
            if value is None:
                axes[key] = None
                continue
            if not isinstance(value, list) or not value:
                raise ProtocolError(f"'{key}' must be a non-empty JSON array")
            axes[key] = [axis_entry_from_json(entry, key) for entry in value]
        timeout = payload.get("timeout")
        if timeout is not None and (
            not isinstance(timeout, (int, float)) or timeout <= 0
        ):
            raise ProtocolError(f"'timeout' must be a positive number; got {timeout!r}")
        return cls(
            spec=spec,
            client=client,
            backends=axes["backends"],
            scenarios=axes["scenarios"],
            timeout=None if timeout is None else float(timeout),
            stream=bool(payload.get("stream", True)),
        )

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "spec": self.spec,
            "client": self.client,
            "stream": self.stream,
        }
        if self.backends is not None:
            payload["backends"] = [axis_entry_to_json(b) for b in self.backends]
        if self.scenarios is not None:
            payload["scenarios"] = [axis_entry_to_json(s) for s in self.scenarios]
        if self.timeout is not None:
            payload["timeout"] = self.timeout
        return payload

    def build_spec(self) -> ExperimentSpec:
        """Reconstruct the spec and check every grid-axis entry against it.

        Everything is validated eagerly, so a bad spec or a bad axis entry
        (unknown name, bad params) is a protocol error before any cell runs.
        """
        try:
            spec = ExperimentSpec.from_json(self.spec)
        except (ValueError, TypeError, KeyError) as exc:
            raise ProtocolError(f"invalid experiment spec: {exc}") from None
        axes = (
            ("backends", self.backends, spec._build_backend),
            ("scenarios", self.scenarios, lambda s: spec._build_scenario(None, s)),
        )
        for key, entries, build in axes:
            for entry in entries or ():
                try:
                    build(entry)
                except (ValueError, TypeError) as exc:
                    raise ProtocolError(
                        f"invalid {key} entry {axis_entry_to_json(entry)!r}: {exc}"
                    ) from None
        return spec

    def enumerate_cells(self, spec: ExperimentSpec) -> list[CellCoord]:
        """Every cell of the request in :meth:`Session.grid` order.

        Scenario-major, then seed, then backend — the identical nesting,
        so reassembling completed cells in this order reproduces a direct
        grid's :class:`~repro.experiments.ResultSet` row order (and
        therefore its digest).
        """
        backends = self.backends if self.backends is not None else [spec.backend]
        scenarios = (
            self.scenarios if self.scenarios is not None else [spec.scenario]
        )
        cells: list[CellCoord] = []
        for cell_index, scenario in enumerate(scenarios):
            for seed in spec.seeds:
                for backend in backends:
                    cells.append(
                        CellCoord(
                            backend=backend,
                            scenario=scenario,
                            seed=seed,
                            cell_index=cell_index,
                            digest=spec.cell_digest(
                                backend=backend, scenario=scenario, seed=seed
                            ),
                        )
                    )
        return cells
