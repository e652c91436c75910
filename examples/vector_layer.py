"""Authoring a VectorAlgorithm: the whole network stepped in one numpy call.

A :class:`~repro.engine.vector.VectorAlgorithm` is the whole-network twin of
a per-vertex :class:`~repro.congest.vertex.VertexAlgorithm`: instead of the
engine calling ``on_round`` once per vertex per round, the vector class is
constructed once and steps *every* vertex with a few array operations.  The
class carries its per-vertex twin in ``per_vertex``, so the same class runs
on every backend — the vectorized backend takes the array fast path, the
reference backend transparently runs the twin per vertex — and the engine
guarantees both paths agree exactly.

This example writes the pair for a small primitive (every vertex learns the
sum of its neighbours' degrees), proves all backends and a faulty scenario
agree, and times the array path against per-vertex dispatch.

Run with::

    PYTHONPATH=src python examples/vector_layer.py
"""

import time

import numpy as np

from repro.congest.vertex import VertexAlgorithm
from repro.engine import LinkDropScenario, VectorAlgorithm, run_algorithm
from repro.graphs import erdos_renyi


class NeighborDegreeSum(VertexAlgorithm):
    """Per-vertex form: broadcast my degree, sum what the neighbours sent."""

    def __init__(self, vertex, neighbors, n):
        super().__init__(vertex, neighbors, n)
        self._sum = 0
        self._seen = 0

    def on_round(self, round_index, inbox):
        for message in inbox:
            self._sum += message.payload
            self._seen += 1
        if round_index == 0:
            return self.send_to_all_neighbors("deg", len(self.neighbors))
        if self._seen == len(self.neighbors):
            self.output = self._sum
            self.halt()
        return []


class VectorNeighborDegreeSum(VectorAlgorithm):
    """Array form: the same protocol for all vertices in one call per round."""

    per_vertex = NeighborDegreeSum

    def __init__(self, topology):
        super().__init__(topology)
        self._sums = np.zeros(topology.n, dtype=np.int64)
        self._seen = np.zeros(topology.n, dtype=np.int64)

    def on_round(self, round_index, inbox):
        topology = self.topology
        if inbox.size:
            np.add.at(self._sums, inbox.receivers, inbox.values)
            self._seen += inbox.count_per_receiver(topology.n)
        if round_index == 0:
            return topology.sends_to_all_neighbors(
                None, values=topology.degrees, words=1
            )
        done = ~self.halted & (self._seen == topology.degrees)
        if done.any():
            self.halted |= done
        return None

    def outputs(self):
        return {
            v: int(self._sums[i]) if self.halted[i] else None
            for i, v in enumerate(self.topology.nodes)
        }


def signature(run):
    return (run.rounds, run.metrics.words, run.halted, sorted(run.outputs.items()))


def main() -> None:
    graph = erdos_renyi(3000, 16.0, seed=7)
    print(
        f"graph: {graph.number_of_nodes()} vertices, "
        f"{graph.number_of_edges()} edges\n"
    )

    print(f"{'execution':<44s} {'rounds':>7s} {'words':>9s} {'secs':>8s}")
    baseline = None
    timings = {}
    for label, factory, backend in [
        ("per-vertex twin on reference", VectorNeighborDegreeSum, "reference"),
        ("per-vertex dispatch on vectorized",
         VectorNeighborDegreeSum.per_vertex, "vectorized"),
        ("VectorAlgorithm fast path on vectorized",
         VectorNeighborDegreeSum, "vectorized"),
    ]:
        start = time.perf_counter()
        run = run_algorithm(graph, factory, backend=backend)
        elapsed = time.perf_counter() - start
        timings[label] = elapsed
        sig = signature(run)
        if baseline is None:
            baseline = sig
        assert sig == baseline, f"{label} diverged"
        print(
            f"{label:<44s} {run.rounds:>7d} {run.metrics.words:>9d} "
            f"{elapsed:>8.3f}"
        )

    speedup = (
        timings["per-vertex dispatch on vectorized"]
        / timings["VectorAlgorithm fast path on vectorized"]
    )
    print(f"\nvector layer speedup over per-vertex dispatch: {speedup:.1f}x")

    scenario = LinkDropScenario(drop_probability=0.1, seed=4)
    faulty_truth = signature(
        run_algorithm(
            graph, VectorNeighborDegreeSum.per_vertex, backend="reference",
            scenario=scenario,
        )
    )
    faulty_vector = signature(
        run_algorithm(
            graph, VectorNeighborDegreeSum, backend="vectorized",
            scenario=scenario,
        )
    )
    assert faulty_vector == faulty_truth
    print(
        f"under {scenario.describe()}: vector path matches the reference "
        f"({faulty_truth[0]} rounds, {faulty_truth[1]} words)"
    )


if __name__ == "__main__":
    main()
