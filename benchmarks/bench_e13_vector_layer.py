"""E13 — Vector layer throughput: per-vertex dispatch vs VectorAlgorithm.

E11 made *delivery* fast (the numpy ``WordScheduler``), which left the
Python per-vertex ``on_round`` loop as the dominant cost of the vectorized
backend.  This experiment measures what the vectorized per-vertex layer
buys on top: the same broadcast / flooding / BFS workloads executed as a
:class:`~repro.engine.vector.VectorAlgorithm` — one numpy ``on_round`` call
stepping every vertex — against the identical per-vertex twin running on
today's vectorized backend.

The acceptance bar is a >= 5x speedup on the 1,000-vertex broadcast
configuration, with the vector class agreeing *exactly* (outputs, rounds,
messages, words, drops) with the scalar twin on both backends and under
all three delivery scenarios.

Run standalone (writes BENCH_e13.json at the repo root by default)::

    PYTHONPATH=src python benchmarks/bench_e13_vector_layer.py
    PYTHONPATH=src python benchmarks/bench_e13_vector_layer.py --smoke

or through the pytest-benchmark harness like the other experiments::

    PYTHONPATH=src python -m pytest benchmarks/bench_e13_vector_layer.py -q
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from common import (
    VectorFloodMinimum,
    broadcast_workload,
    vector_bfs_workload,
    vector_broadcast_workload,
)
from repro.experiments import Session
from repro.graphs import erdos_renyi

# Every execution below routes through one session — the declarative API's
# imperative substrate (run_algorithm is now a shim over exactly this).
SESSION = Session(name="e13-vector-layer")

SCENARIOS = ["clean", "link-drop", "adversarial-delay"]
ALL_BACKENDS = ["reference", "vectorized"]


def signature(run) -> dict:
    """The facts the vector layer must reproduce exactly."""
    return {
        "rounds": run.rounds,
        "messages": run.metrics.messages,
        "words": run.metrics.words,
        "dropped": run.metrics.dropped,
        "halted": run.halted,
        "outputs": sorted(run.outputs.items()),
    }


def vector_workloads(payload_words: int) -> list[tuple[str, type]]:
    return [
        ("broadcast", vector_broadcast_workload(payload_words)),
        ("flood-min", VectorFloodMinimum),
        ("bfs-tree", vector_bfs_workload(0)),
    ]


def timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def run_speedup_config(
    n: int,
    avg_degree: float,
    payload_words: int,
    seed: int = 11,
    max_rounds: int = 100_000,
    heavy_backends: bool = False,
) -> dict:
    """Per workload: per-vertex vs vector on the vectorized backend.

    With ``heavy_backends`` the broadcast workload additionally runs the
    vector class through the reference backend (the adapter shim) and
    asserts the signatures agree — the cross-backend half of the acceptance
    criterion at full size.
    """
    graph = erdos_renyi(n, avg_degree, seed=seed)
    row: dict = {
        "n": n,
        "edges": graph.number_of_edges(),
        "avg_degree": avg_degree,
        "payload_words": payload_words,
        "workloads": {},
    }
    for name, vector_class in vector_workloads(payload_words):
        scalar_seconds, scalar_run = timed(
            lambda: SESSION.execute(
                graph, vector_class.per_vertex, backend="vectorized",
                max_rounds=max_rounds,
            )
        )
        vector_seconds, vector_run = timed(
            lambda: SESSION.execute(
                graph, vector_class, backend="vectorized", max_rounds=max_rounds
            )
        )
        scalar_sig = signature(scalar_run)
        vector_sig = signature(vector_run)
        if vector_sig != scalar_sig:
            raise AssertionError(
                f"vector {name} diverged from its per-vertex twin on n={n}"
            )
        if heavy_backends and name == "broadcast":
            candidate = signature(
                SESSION.execute(
                    graph, vector_class, backend="reference",
                    max_rounds=max_rounds,
                )
            )
            if candidate != scalar_sig:
                raise AssertionError(
                    f"vector {name} diverged on backend reference at n={n}"
                )
        row["workloads"][name] = {
            "per_vertex_seconds": round(scalar_seconds, 6),
            "vector_seconds": round(vector_seconds, 6),
            "speedup": round(scalar_seconds / max(vector_seconds, 1e-9), 2),
            "rounds": vector_run.rounds,
            "messages": vector_run.metrics.messages,
            "words": vector_run.metrics.words,
        }
    return row


def run_scenario_equivalence(
    n: int,
    avg_degree: float,
    payload_words: int,
    seed: int = 11,
    max_rounds: int = 100_000,
) -> dict:
    """Every workload x scenario x backend must match the scalar reference."""
    graph = erdos_renyi(n, avg_degree, seed=seed)
    report: dict = {"n": n, "workloads": {}}
    for name, vector_class in vector_workloads(payload_words):
        per_scenario = {}
        for scenario in SCENARIOS:
            truth = signature(
                SESSION.execute(
                    graph, vector_class.per_vertex, backend="reference",
                    scenario=scenario, max_rounds=max_rounds,
                )
            )
            for backend in ALL_BACKENDS:
                candidate = signature(
                    SESSION.execute(
                        graph, vector_class, backend=backend,
                        scenario=scenario, max_rounds=max_rounds,
                    )
                )
                if candidate != truth:
                    raise AssertionError(
                        f"vector {name} diverged under scenario {scenario} "
                        f"on backend {backend}"
                    )
            per_scenario[scenario] = {
                "rounds": truth["rounds"],
                "words": truth["words"],
                "dropped": truth["dropped"],
                "backends_agree": ALL_BACKENDS,
            }
        report["workloads"][name] = per_scenario
    return report


def run_experiment(
    sizes: list[int],
    avg_degree: float = 20.0,
    payload_words: int = 256,
    equivalence_n: int = 200,
    equivalence_payload_words: int = 64,
) -> dict:
    # Warm numpy/ufunc dispatch caches so the first timed row is not
    # charged for interpreter-level one-time costs.
    run_speedup_config(30, 6.0, 8)
    rows = [
        run_speedup_config(
            n, avg_degree, payload_words, heavy_backends=(n == max(sizes))
        )
        for n in sizes
    ]
    equivalence = run_scenario_equivalence(
        equivalence_n, avg_degree, equivalence_payload_words
    )
    return {
        "experiment": "E13 vector layer (VectorAlgorithm vs per-vertex dispatch)",
        "workload": (
            "broadcast / flood-min / bfs-tree as whole-network numpy "
            "VectorAlgorithms vs their per-vertex twins on the vectorized "
            "backend; equivalence checked across backends and scenarios"
        ),
        "rows": rows,
        "scenario_equivalence": equivalence,
    }


def render(report: dict) -> str:
    lines = [
        "E13: vector layer vs per-vertex dispatch (vectorized backend)",
        f"{'n':>6s} {'edges':>7s} {'workload':<10s} {'rounds':>7s} "
        f"{'per-vertex':>11s} {'vector':>9s} {'speedup':>8s}",
    ]
    for row in report["rows"]:
        for name, stats in row["workloads"].items():
            lines.append(
                f"{row['n']:>6d} {row['edges']:>7d} {name:<10s} "
                f"{stats['rounds']:>7d} {stats['per_vertex_seconds']:>10.3f}s "
                f"{stats['vector_seconds']:>8.3f}s {stats['speedup']:>7.1f}x"
            )
    equivalence = report["scenario_equivalence"]
    lines.append(
        f"scenario equivalence at n={equivalence['n']}: all of "
        f"{', '.join(SCENARIOS)} agree across {', '.join(ALL_BACKENDS)}"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[200, 500, 1000])
    parser.add_argument("--avg-degree", type=float, default=20.0)
    parser.add_argument("--payload-words", type=int, default=256)
    parser.add_argument(
        "--json",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_e13.json",
        help="where to write the JSON report ('-' to skip)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI: proves the harness runs, not the speedup",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.sizes = [60]
        args.payload_words = 16
        equivalence_n, equivalence_payload = 40, 8
    else:
        equivalence_n, equivalence_payload = 200, 64
    report = run_experiment(
        args.sizes,
        args.avg_degree,
        args.payload_words,
        equivalence_n=equivalence_n,
        equivalence_payload_words=equivalence_payload,
    )
    print(render(report))
    if not args.smoke:
        flagship = max(args.sizes)
        broadcast = next(
            row for row in report["rows"] if row["n"] == flagship
        )["workloads"]["broadcast"]
        if broadcast["speedup"] < 5.0:
            raise AssertionError(
                f"acceptance: broadcast speedup at n={flagship} is "
                f"{broadcast['speedup']}x, below the 5x bar"
            )
        print(
            f"\nacceptance: broadcast at n={flagship} is "
            f"{broadcast['speedup']}x (bar: 5x)"
        )
    if str(args.json) != "-" and not args.smoke:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


def test_e13_vector_layer(benchmark, print_section):
    """pytest-benchmark harness entry, small sizes to keep the suite fast."""
    from conftest import run_once

    report = run_once(
        benchmark,
        lambda: run_experiment(
            [120], payload_words=32, equivalence_n=40,
            equivalence_payload_words=8,
        ),
    )
    print_section(render(report))
    workloads = report["rows"][0]["workloads"]
    assert set(workloads) == {"broadcast", "flood-min", "bfs-tree"}


if __name__ == "__main__":
    sys.exit(main())
