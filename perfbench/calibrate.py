"""Host-speed calibration for the listing benchmark's timings.

On a shared host the speed of a core drifts by 20-40% over minutes, for
every program alike, so the medians of two runs of identical code can
differ by more than any useful regression bound.  Timing a fixed piece of
work right before and after each timed cell measures that drift: a cell's
*normalised* time is its wall time scaled by ``REFERENCE_S`` over the
calibration's time (the mean of the runs just before and just after the
cell), i.e. the time it would take on a host running the calibration in
``REFERENCE_S`` seconds.  The calibration does the kinds of
work the cell does (set intersections, dict and tuple building, sorting,
``networkx`` graph building, and the uint64 hash-mix, prefix-sum and sort
array passes of the delivery kernels, which respond to a busy host
differently from interpreted code) and uses nothing from the library, so
no change to the library can move it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import networkx as nx
import numpy as np

# The calibration's wall time on an unloaded 2-core x86_64 host.
REFERENCE_S = 0.023

_VERTICES = 450
_EDGES = 4000
_ARRAY = 250_000
_REPEATS = 3
_MIX = np.uint64(0xBF58476D1CE4E5B9)


def _arrays() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(5)
    base = rng.integers(0, 1 << 62, size=_ARRAY, dtype=np.uint64)
    return base, rng.permutation(_ARRAY)


def _work(base: np.ndarray, order: np.ndarray) -> int:
    mixed = base[order] * _MIX
    mixed ^= mixed >> np.uint64(31)
    passed = np.cumsum(mixed >= np.uint64(1 << 62))
    ranks = np.argsort(mixed[: _ARRAY // 4], kind="stable")
    rng = random.Random(5)
    adjacency: dict[int, set[int]] = {}
    for _ in range(_EDGES):
        u, v = rng.randrange(_VERTICES), rng.randrange(_VERTICES)
        if u != v:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
    triangles = 0
    for u, neighbours in adjacency.items():
        for v in neighbours:
            if v > u:
                triangles += len(neighbours & adjacency[v])
    graph = nx.Graph()
    graph.add_edges_from((u, v) for u, neighbours in adjacency.items() for v in neighbours)
    degrees = sorted((len(neighbours), u) for u, neighbours in adjacency.items())
    return int(passed[-1]) + int(ranks[0]) + triangles + graph.number_of_edges() + degrees[-1][1]


class Calibrator:
    """Normalises timed intervals by the calibrations that bracket them.

    Call :meth:`normalise` right after each timed interval: it times the
    calibration work once more and scales the interval by the mean of that
    time and the previous one, which was taken right before the interval.
    """

    def __init__(self) -> None:
        self._arrays = _arrays()
        self._expected = _work(*self._arrays)  # warms the code, fixes the result
        self._last = self.measure()

    def measure(self) -> float:
        """Seconds the calibration work takes now, on a freshly collected heap.

        The median of ``_REPEATS`` short runs, so a burst of contention that
        hits one of them does not move the result.
        """
        gc.collect()
        runs = []
        for _ in range(_REPEATS):
            start = time.perf_counter()
            value = _work(*self._arrays)
            runs.append(time.perf_counter() - start)
            if value != self._expected:
                raise RuntimeError("calibration work is not deterministic")
        return statistics.median(runs)

    def normalise(self, wall_s: float) -> float:
        """``wall_s`` on a host that runs the calibration in ``REFERENCE_S``."""
        after = self.measure()
        calibration = (self._last + after) / 2
        self._last = after
        return wall_s * REFERENCE_S / calibration
