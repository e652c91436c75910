"""Workloads and the checked listing cell of the listing benchmark.

One *cell* is one call of
:func:`repro.listing.distributed.list_cliques_distributed` on the
``vectorized`` backend: expander decomposition, partition-tree planning,
per-cluster engine runs and clique extraction.  Every cell is checked
against ground truth (:func:`repro.graphs.cliques.enumerate_cliques`,
computed once during set-up) and against the cost model's round bound.

Each workload builds its graph from a fixed generator seed, then draws the
vertex identifiers from the benchmark's ``--seed``: the ``n`` vertices are
relabelled, order-preserving, onto ``n`` distinct integers drawn from
``range(ID_SPACE * n)``.  The protocol's tie-breaks compare identifiers, so
an order-preserving draw keeps each workload's structure and cost fixed
(a uniform shuffle moved the power-law graph at n=2000 between 1,149
and 2,813 rounds),
while the input itself, and every identifier hash such as the link-drop
pattern of ``lossy-k3``, changes with the seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

import networkx as nx

from repro.engine.scenarios import DeliveryScenario, LinkDropScenario
from repro.graphs import clustered_communities, planted_cliques, power_law
from repro.graphs.cliques import Clique, enumerate_cliques
from repro.listing.distributed import (
    DistributedListingResult,
    list_cliques_distributed,
)

BACKEND = "vectorized"
SIZES = ("full", "smoke")
ID_SPACE = 8


def listing_workload(n: int, seed: int = 23) -> nx.Graph:
    """The repository's ``listing-workload`` graph: sparse plus planted K5s.

    Same definition as the graph source registered by the E* harness, kept
    here so that editing that harness cannot move this benchmark's input.
    """
    return planted_cliques(
        n, clique_size=5, num_cliques=max(4, n // 25),
        background_avg_degree=4.0, seed=seed,
    )


@dataclass(frozen=True)
class Workload:
    """A seeded listing cell: graph family, clique size, delivery scenario.

    Attributes:
        name: workload name as ``BENCHMARK.json`` lists it.
        p: clique size listed.
        graphs: per size (``full`` / ``smoke``), the graph builder.
        drop_probability: link-drop probability, ``None`` for clean delivery.
    """

    name: str
    p: int
    graphs: dict[str, Callable[[], nx.Graph]]
    drop_probability: float | None = None

    def build(self, size: str, seed: int) -> nx.Graph:
        """The workload's input graph for ``size`` under ``seed``."""
        return relabel(self.graphs[size](), seed)

    def scenario(self) -> DeliveryScenario | None:
        """A fresh scenario per cell, so no cell reuses another's hash memo."""
        if self.drop_probability is None:
            return None
        return LinkDropScenario(drop_probability=self.drop_probability, seed=7)


# Why each workload is here is recorded in BENCHMARK.json.  The full sizes
# keep one cell at 0.6-2 s on a 2-core host, so a 20 s run times 10-30 cells.
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "sparse-k3", 3,
            {
                "full": lambda: listing_workload(5000),
                "smoke": lambda: listing_workload(300),
            },
        ),
        Workload(
            "skewed-k3", 3,
            {
                "full": lambda: power_law(800, avg_degree=12, seed=1),
                "smoke": lambda: power_law(150, avg_degree=12, seed=1),
            },
        ),
        Workload(
            "dense-k4", 4,
            {
                "full": lambda: clustered_communities(10, 50, 0.5, 0.01, seed=1),
                "smoke": lambda: clustered_communities(4, 16, 0.5, 0.02, seed=1),
            },
        ),
        Workload(
            "lossy-k3", 3,
            {
                "full": lambda: power_law(800, avg_degree=12, seed=1),
                "smoke": lambda: power_law(150, avg_degree=12, seed=1),
            },
            drop_probability=0.1,
        ),
    )
}


def relabel(graph: nx.Graph, seed: int) -> nx.Graph:
    """Order-preserving relabelling onto identifiers drawn from ``seed``."""
    nodes = sorted(graph.nodes)
    ids = sorted(random.Random(seed).sample(range(ID_SPACE * len(nodes)), len(nodes)))
    return nx.relabel_nodes(graph, dict(zip(nodes, ids)))


def ground_truth(graph: nx.Graph, p: int) -> set[Clique]:
    """The exact clique set every cell must list."""
    return enumerate_cliques(graph, p)


def run_cell(workload: Workload, graph: nx.Graph) -> DistributedListingResult:
    """One listing cell, exactly as a user of the library calls it."""
    return list_cliques_distributed(
        graph, workload.p, backend=BACKEND, scenario=workload.scenario()
    )


def check_cell(result: DistributedListingResult, truth: set[Clique]) -> str | None:
    """Why ``result`` is wrong, or ``None`` when it is exact and in bound."""
    if not all(record.halted for record in result.executions):
        return "an engine execution did not halt"
    if result.cliques != truth:
        missing = len(truth - result.cliques)
        extra = len(result.cliques - truth)
        return f"clique set differs from enumerate_cliques ({missing} missing, {extra} extra)"
    if result.measured_rounds > result.predicted_rounds:
        return (
            f"measured rounds {result.measured_rounds} exceed the predicted "
            f"bound {result.predicted_rounds}"
        )
    return None


@dataclass
class Sample:
    """One timed, checked cell."""

    seconds: float
    result: DistributedListingResult | None
    error: str | None


class CheckedRunner:
    """Runs cells and checks each one; the first good cell fixes the counts.

    A cell fails when it raises, does not halt, lists a clique set other
    than the ground truth, exceeds the predicted round bound, or measures
    ``rounds``/``words`` different from the first good cell.  Every cell is
    attempted and counted; none is dropped.
    """

    def __init__(self, workload: Workload, graph: nx.Graph, truth: set[Clique]):
        self.workload = workload
        self.graph = graph
        self.truth = truth
        self.reference: DistributedListingResult | None = None
        self.attempted = 0
        self.errors: list[str] = []

    def sample(self, cell: Callable[[], DistributedListingResult] | None = None) -> Sample:
        """Time one cell (``cell`` overrides the plain call) and check it."""
        cell = cell or (lambda: run_cell(self.workload, self.graph))
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = cell()
        except Exception as exc:  # a failing cell is counted, not fatal
            seconds = time.perf_counter() - start
            return self._fail(Sample(seconds, None, f"raised {type(exc).__name__}: {exc}"))
        seconds = time.perf_counter() - start
        error = check_cell(result, self.truth)
        if error is None and self.reference is not None:
            expected = (self.reference.measured_rounds, self.reference.measured_words)
            got = (result.measured_rounds, result.measured_words)
            if got != expected:
                error = f"rounds/words {got} differ from the first cell's {expected}"
        if error is not None:
            return self._fail(Sample(seconds, result, error))
        if self.reference is None:
            self.reference = result
        return Sample(seconds, result, None)

    def _fail(self, sample: Sample) -> Sample:
        self.errors.append(sample.error)
        return sample

    @property
    def failed(self) -> int:
        return len(self.errors)
