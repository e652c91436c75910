"""Per-layer timing of one listing cell, measured from outside the library.

:class:`LayerProbe` wraps the public functions each layer of the cell is
entered through, at the attribute the caller actually looks up (a function
imported by name is wrapped in the importing module, a method on its
class), and restores every attribute on exit.  Nothing under ``src/`` is
changed.  Layers and their entry points:

``decomposition``
    ``expander_decompose`` and ``core_vertices`` as called from
    :mod:`repro.listing.recursion`.
``partition_trees``
    ``TriangleListing.predict_cluster_cost`` (K3 partition-tree build and
    cost charging; ``p >= 4`` builds no tree).
``listing.plan``
    ``plan_two_hop_protocol``, ``add_edge_learning`` and
    ``charge_exhaustive_pass`` as called from
    :mod:`repro.listing.distributed`, and
    ``DistributedListingDriver._plan_kp_cluster``, the ``p >= 4`` planning
    step, which also copies the core's closed neighbourhood (the library
    has no public entry point for it).
``engine``
    ``Session.execute``: one engine run per cluster, including everything
    below.
``engine.delivery``
    ``WordScheduler.schedule_messages`` and ``WordScheduler.deliver``.
``listing.extract``
    ``cliques_through_vertex`` and ``cliques_in_edge_set``, called from
    ``ListingVertex._finish`` inside the engine run.

``engine.compute`` is the engine's remainder (engine minus delivery minus
extraction): per-vertex ``on_round`` work.  ``unattributed`` is the cell's
wall time outside the four top-level layers.  A layer's time is the time
during which at least one of its entry points is running, so an entry
point called from another of the same layer is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Any, Callable

# (layer, module, class or None, attribute)
TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("decomposition", "repro.listing.recursion", None, "expander_decompose"),
    ("decomposition", "repro.listing.recursion", None, "core_vertices"),
    ("partition_trees", "repro.listing.triangles", "TriangleListing", "predict_cluster_cost"),
    ("listing.plan", "repro.listing.distributed", None, "plan_two_hop_protocol"),
    ("listing.plan", "repro.listing.distributed", None, "add_edge_learning"),
    ("listing.plan", "repro.listing.distributed", None, "charge_exhaustive_pass"),
    ("listing.plan", "repro.listing.distributed", "DistributedListingDriver", "_plan_kp_cluster"),
    ("engine", "repro.experiments.session", "Session", "execute"),
    ("engine.delivery", "repro.engine.delivery", "WordScheduler", "schedule_messages"),
    ("engine.delivery", "repro.engine.delivery", "WordScheduler", "deliver"),
    ("listing.extract", "repro.listing.distributed", None, "cliques_through_vertex"),
    ("listing.extract", "repro.listing.distributed", None, "cliques_in_edge_set"),
)

# Layers that do not nest inside one another; with ``unattributed`` they
# add up to the cell's wall time.
TOP_LEVEL = ("decomposition", "partition_trees", "listing.plan", "engine")

# Which end-to-end metric each layer metric should move, and where.
MOVES: dict[str, str] = {
    "decomposition.s": "listing_s on sparse-k3; not on dense-k4",
    "partition_trees.s": "listing_s on skewed-k3; not on dense-k4 (p=4 builds no tree)",
    "listing.plan.s": "listing_s on skewed-k3; not on dense-k4",
    "listing.extract.s": "listing_s on dense-k4 and sparse-k3",
    "engine.s_per_round": "listing_s on skewed-k3",
    "engine.delivery.s": "listing_s on lossy-k3; not on the clean workloads",
    "engine.compute.s": "listing_s on sparse-k3 and dense-k4",
    "engine.rounds_total": "rounds on dense-k4 (a Lemma 37 split-tree port for p >= 4)",
    "engine.words": "words on dense-k4 (a Lemma 37 split-tree port for p >= 4)",
}


def _owner(module: str, cls: str | None) -> Any:
    owner = importlib.import_module(module)
    return owner if cls is None else getattr(owner, cls)


class LayerProbe:
    """Context manager that times the layers of every cell run inside it.

    ``seconds[layer]`` and ``calls[layer]`` accumulate per layer; ``counts``
    holds the work counters observed at the layer boundaries (clusters,
    engine executions, rounds, messages, words, edge slots).
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._depth: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "LayerProbe":
        observers: dict[str, Callable[[tuple, Any], None]] = {
            "expander_decompose": self._observe_decomposition,
            "execute": self._observe_engine,
        }
        try:
            for layer, module, cls, attribute in TARGETS:
                owner = _owner(module, cls)
                original = vars(owner)[attribute]
                self._saved.append((owner, attribute, original))
                setattr(owner, attribute, self._timed(layer, original, observers.get(attribute)))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    @staticmethod
    def restored() -> bool:
        """True when no target attribute is a probe wrapper."""
        return not any(
            hasattr(vars(_owner(module, cls))[attribute], "__probe_layer__")
            for _, module, cls, attribute in TARGETS
        )

    def _timed(self, layer: str, function: Callable, observe: Callable | None) -> Callable:
        seconds, calls, depth = self.seconds, self.calls, self._depth

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            outermost = depth[layer] == 0
            depth[layer] += 1
            start = time.perf_counter()
            try:
                value = function(*args, **kwargs)
            finally:
                if outermost:
                    seconds[layer] += time.perf_counter() - start
                depth[layer] -= 1
                calls[layer] += 1
            if observe is not None:
                observe(args, value)
            return value

        wrapper.__probe_layer__ = layer
        return wrapper

    def _observe_decomposition(self, args: tuple, decomposition: Any) -> None:
        self.counts["clusters"] += len(decomposition.clusters)

    def _observe_engine(self, args: tuple, run: Any) -> None:
        graph = args[1]  # Session.execute(self, graph, factory, ...)
        self.counts["executions"] += 1
        self.counts["rounds"] += run.rounds
        self.counts["messages"] += run.metrics.messages
        self.counts["words"] += run.metrics.words
        self.counts["edge_slots"] += run.rounds * 2 * graph.number_of_edges()

    def metrics(self, wall: float, result: Any) -> dict[str, float]:
        """Per-layer metrics of one traced cell that took ``wall`` seconds."""
        seconds, counts = self.seconds, self.counts
        engine = seconds["engine"]
        delivery = seconds["engine.delivery"]
        extract = seconds["listing.extract"]
        attributed = sum(seconds[layer] for layer in TOP_LEVEL)
        return {
            "decomposition.s": seconds["decomposition"],
            "decomposition.clusters": counts["clusters"],
            "partition_trees.s": seconds["partition_trees"],
            "listing.plan.s": seconds["listing.plan"],
            "listing.demands": sum(record.demands for record in result.executions),
            "listing.listers": sum(record.listers for record in result.executions),
            "listing.extract.s": extract,
            "listing.extract.calls": self.calls["listing.extract"],
            "engine.s": engine,
            "engine.executions": counts["executions"],
            "engine.rounds_total": counts["rounds"],
            "engine.messages": counts["messages"],
            "engine.words": counts["words"],
            "engine.s_per_round": engine / max(1, counts["rounds"]),
            "engine.delivery.s": delivery,
            "engine.delivery.calls": self.calls["engine.delivery"],
            "engine.compute.s": engine - delivery - extract,
            "engine.edge_utilisation": counts["words"] / max(1, counts["edge_slots"]),
            "engine.edge_slots": counts["edge_slots"],
            "listing.dup_factor": result.reports / max(1, len(result.cliques)),
            "listing.reports": result.reports,
            "listing.cliques": len(result.cliques),
            "unattributed.s": wall - attributed,
            "unattributed.frac": (wall - attributed) / wall,
            "trace.wall_s": wall,
        }
