"""Distributed-listing quickstart: Theorems 32 and 36 executed on the engine.

Runs the recursive triangle-listing pipeline as real per-vertex CONGEST
messages (not the cost model) on both backends and under a faulty delivery
scenario, plus one ``K_4`` listing, validating each run against the
exhaustive ground truth and the cost accountant's predicted round bound.
Exits non-zero when any run fails validation.

    PYTHONPATH=src python examples/distributed_listing.py
"""

import sys

from repro import (
    list_cliques_distributed,
    list_triangles_distributed,
    validate_distributed_listing,
)
from repro.engine import LinkDropScenario
from repro.graphs import planted_cliques


def main() -> int:
    graph = planted_cliques(
        200, clique_size=5, num_cliques=8, background_avg_degree=4.0, seed=23
    )
    print(
        f"graph: {graph.number_of_nodes()} vertices, "
        f"{graph.number_of_edges()} edges\n"
    )

    reports = []
    for backend in ["reference", "vectorized"]:
        result = list_triangles_distributed(graph, backend=backend)
        reports.append(validate_distributed_listing(graph, result))
        print(reports[-1].summary())

    result = list_cliques_distributed(graph, 4, backend="vectorized")
    reports.append(validate_distributed_listing(graph, result))
    print(reports[-1].summary())

    result = list_triangles_distributed(
        graph,
        backend="vectorized",
        scenario=LinkDropScenario(drop_probability=0.1, seed=7),
    )
    reports.append(validate_distributed_listing(graph, result))
    print(reports[-1].summary())
    print(
        f"\nunder 10% link drops the output is still exact; rounds stretch to "
        f"{result.measured_rounds} across {len(result.executions)} cluster "
        f"execution(s) and {result.levels} recursion level(s)."
    )
    failed = sum(not report.ok for report in reports)
    if failed:
        print(f"\n{failed} of {len(reports)} runs failed validation")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
