"""Engine showdown: one algorithm, both backends, three network conditions.

Runs the faithful neighbourhood-exchange triangle baseline on every
execution backend and under every delivery scenario, and prints the round /
word accounting next to the wall-clock time.  The headline facts it
demonstrates:

* all backends agree exactly on rounds, messages, words, and output;
* the vectorized backend is an order of magnitude faster as soon as
  payload fragmentation dominates;
* link faults and adversarial delay stretch the round count but never the
  bandwidth-per-round bound.

Run with::

    PYTHONPATH=src python examples/engine_showdown.py
"""

import time

from repro.baselines import neighborhood_exchange_listing
from repro.engine import (
    AdversarialDelayScenario,
    CleanSynchronous,
    LinkDropScenario,
    available_backends,
)
from repro.graphs import erdos_renyi
from repro.listing.validation import validate_listing


def main() -> None:
    graph = erdos_renyi(300, 12.0, seed=9)
    print(
        f"graph: {graph.number_of_nodes()} vertices, "
        f"{graph.number_of_edges()} edges\n"
    )

    scenarios = [
        CleanSynchronous(),
        LinkDropScenario(drop_probability=0.1, seed=4),
        AdversarialDelayScenario(stall_period=5, seed=4),
    ]
    header = f"{'scenario':<42s} {'backend':<11s} {'rounds':>7s} {'words':>9s} {'secs':>7s}"
    for scenario in scenarios:
        print(header)
        baseline = None
        for backend in available_backends():
            start = time.perf_counter()
            result = neighborhood_exchange_listing(
                graph, backend=backend, scenario=scenario
            )
            elapsed = time.perf_counter() - start
            report = validate_listing(graph, result)
            assert report.correct, f"{backend} missed cliques: {report.summary()}"
            row = (result.rounds, result.metrics.words, len(result.cliques))
            if baseline is None:
                baseline = row
            assert row == baseline, f"{backend} diverged from reference: {row}"
            print(
                f"{scenario.describe():<42s} {backend:<11s} "
                f"{result.rounds:>7d} {result.metrics.words:>9d} {elapsed:>7.3f}"
            )
        print()


if __name__ == "__main__":
    main()
