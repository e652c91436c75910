"""E11 — Execution-engine throughput: reference vs vectorized.

The workload is the delivery-bound regime the engine was built for: every
vertex of a random graph broadcasts a multi-word blob to all neighbours in
round 0 and waits for every neighbour's blob to finish arriving.  The
one-word-per-edge bandwidth constraint stretches each transfer over
``payload_words`` rounds, so the reference simulator pays
``O(rounds x directed edges)`` deque operations while the vectorized
scheduler pays ``O(transfers)`` total.  The acceptance bar for the engine
subsystem is a >= 10x vectorized speedup on the 1,000-vertex configuration,
with all backends agreeing bit-for-bit on rounds / messages / words.

Run standalone (writes BENCH_e11.json at the repo root by default)::

    PYTHONPATH=src python benchmarks/bench_e11_engine_throughput.py
    PYTHONPATH=src python benchmarks/bench_e11_engine_throughput.py --smoke

or through the pytest-benchmark harness like the other experiments::

    PYTHONPATH=src python -m pytest benchmarks/bench_e11_engine_throughput.py -q
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import common  # noqa: F401  (registers the 'broadcast' workload)
from repro.experiments import ExperimentSpec, Session


def run_config(
    n: int,
    avg_degree: float,
    payload_words: int,
    backends: list[str],
    seed: int = 11,
    max_rounds: int = 100_000,
) -> dict:
    """Time every backend on one configuration; assert they agree.

    A thin wrapper over the declarative experiment API: one spec, one
    backend grid, with the cross-backend agreement check done by the
    :class:`~repro.experiments.ResultSet` itself.
    """
    spec = ExperimentSpec(
        name="e11-broadcast",
        graph="erdos-renyi",
        graph_params={"n": n, "avg_degree": avg_degree, "seed": seed},
        workload="broadcast",
        workload_params={"payload_words": payload_words},
        max_rounds=max_rounds,
    )
    results = Session().grid(spec, backends=backends)
    results.check_backend_agreement()
    row: dict = {
        "n": n,
        "edges": results.results[0].edges,
        "avg_degree": avg_degree,
        "payload_words": payload_words,
        "backends": {
            result.backend: {
                "seconds": round(min(result.seconds), 6),
                "rounds": result.rounds,
                "messages": result.messages,
                "words": result.words,
            }
            for result in results
        },
    }
    if "reference" in row["backends"] and "vectorized" in row["backends"]:
        ref = row["backends"]["reference"]["seconds"]
        vec = row["backends"]["vectorized"]["seconds"]
        row["vectorized_speedup"] = round(ref / max(vec, 1e-9), 2)
    return row


def run_experiment(
    sizes: list[int],
    avg_degree: float = 20.0,
    payload_words: int = 256,
    backends: list[str] | None = None,
) -> dict:
    backends = backends or ["reference", "vectorized"]
    rows = [run_config(n, avg_degree, payload_words, backends) for n in sizes]
    return {
        "experiment": "E11 engine throughput (broadcast workload)",
        "workload": (
            "every vertex broadcasts a multi-word blob to all neighbours; "
            "halts when all neighbour blobs arrived"
        ),
        "rows": rows,
    }


def render(report: dict) -> str:
    lines = [
        "E11: engine throughput on the broadcast workload",
        f"{'n':>6s} {'edges':>7s} {'words/blob':>10s} {'backend':<11s} "
        f"{'rounds':>7s} {'secs':>9s} {'speedup':>8s}",
    ]
    for row in report["rows"]:
        for backend, stats in row["backends"].items():
            speedup = ""
            if backend == "vectorized" and "vectorized_speedup" in row:
                speedup = f"{row['vectorized_speedup']:.1f}x"
            lines.append(
                f"{row['n']:>6d} {row['edges']:>7d} {row['payload_words']:>10d} "
                f"{backend:<11s} {stats['rounds']:>7d} {stats['seconds']:>9.3f} "
                f"{speedup:>8s}"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[200, 500, 1000])
    parser.add_argument("--avg-degree", type=float, default=20.0)
    parser.add_argument("--payload-words", type=int, default=256)
    parser.add_argument(
        "--backends",
        nargs="+",
        default=["reference", "vectorized"],
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_e11.json",
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
    report = run_experiment(
        args.sizes, args.avg_degree, args.payload_words, args.backends
    )
    print(render(report))
    if str(args.json) != "-" and not args.smoke:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {args.json}")
    return 0


def test_e11_engine_throughput(benchmark, print_section):
    """pytest-benchmark harness entry, small sizes to keep the suite fast."""
    from conftest import run_once

    report = run_once(
        benchmark, lambda: run_experiment([120], payload_words=32)
    )
    print_section(render(report))
    row = report["rows"][0]
    backends = row["backends"]
    assert backends["reference"]["words"] == backends["vectorized"]["words"]


if __name__ == "__main__":
    sys.exit(main())
