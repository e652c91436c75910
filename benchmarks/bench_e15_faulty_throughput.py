"""E15 — Faulty-scenario throughput: vectorized kernels + sharded worker counts.

Before this experiment's PR, the engine's speed story collapsed the moment a
delivery scenario was not clean: the
:class:`~repro.engine.delivery.WordScheduler` replayed
``DeliveryScenario.transmits(edge, round)`` one scalar Python call per
(edge, round), so link-drop / bursty / heterogeneous-bandwidth runs — the
robust congested-clique regimes of arXiv:2508.08740 — executed at near
reference-backend speed while clean runs enjoyed 17-24x (``BENCH_e11.json``,
``BENCH_e14.json``).  The scenario layer now exposes batch ``transmit_mask``
kernels consumed by the scheduler as per-edge prefix sums, and this
experiment pins the result:

* **Listing section (acceptance).**  The engine-executed Theorem 32 listing
  (the E14 workload) over {clean, link-drop, bursty, heterogeneous-bandwidth}
  x {reference, vectorized} at 1,000 vertices: per-cell backend agreement is
  asserted (identical rounds / messages / words / outputs), and each faulty
  vectorized cell must finish within **2x the clean vectorized wall clock**.
* **Broadcast stress section.**  The delivery-bound E11 broadcast (256-word
  blobs) at 1,000-5,000 vertices on the vectorized backend, reporting
  delivered words/second per scenario — the worst case for the scenario
  layer, since every word crossing is a masked decision.  Reference
  agreement for this workload is verified at 500 vertices (the reference
  simulator needs minutes for the 1k faulty grid; semantics at 1k are
  already pinned by the listing section and the equivalence suites).
* **Sharded scaling section.**  Per-worker-count timings of the sharded
  backend on the 1,000-vertex broadcast, together with the host's usable
  core count.  One worker runs its shard in-process; two or more fork one
  worker process per shard, which exchanges one pickled columnar batch
  each way per round with the parent.  Every worker count must give the
  same signature.  The JSON records ``host_cores`` so multi-core readings
  are interpretable.

Run standalone (writes BENCH_e15.json at the repo root by default)::

    PYTHONPATH=src python benchmarks/bench_e15_faulty_throughput.py
    PYTHONPATH=src python benchmarks/bench_e15_faulty_throughput.py --smoke

``--smoke`` runs the 200-vertex listing grid plus a 200-vertex broadcast
and sharded pass (the CI tier-2 job): agreement is asserted, wall-clock
ratios are reported but not asserted (CI timing is noisy).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import common  # noqa: F401  (registers workloads + the listing graph source)
from repro.experiments import ExperimentSpec, ResultSet, Session

SCENARIO_GRID = [
    "clean",
    ("link-drop", {"drop_probability": 0.1}),
    ("bursty", {"burst_probability": 0.25, "burst_length": 3, "period": 12}),
    ("heterogeneous-bandwidth", {"capacities": [1.0, 0.5, 0.25]}),
]

ACCEPTANCE_RATIO = 2.0


def _scenario_label(entry) -> str:
    return entry if isinstance(entry, str) else entry[0]


def _host_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _rows_by_scenario(results: ResultSet, backend: str) -> dict[str, dict]:
    rows = {}
    for result in results:
        if result.backend == backend:
            rows.setdefault(result.scenario_name, result.to_row())
    return rows


def run_listing_section(n: int, seed: int, assert_ratio: bool) -> dict:
    """Reference x vectorized listing grid; the 2x acceptance lives here."""
    spec = ExperimentSpec(
        name="e15-listing",
        graph="listing-workload",
        graph_params={"n": n},
        workload="distributed-listing",
        backend="vectorized",
        seeds=(seed,),
        max_rounds=200_000,
    )
    results = Session(name="e15-listing").grid(
        spec, backends=["reference", "vectorized"], scenarios=SCENARIO_GRID
    )
    # Identical rounds / messages / words / outputs per (scenario, seed)
    # cell — the acceptance criterion's agreement clause.
    results.check_backend_agreement()

    vectorized = _rows_by_scenario(results, "vectorized")
    clean_seconds = min(vectorized["clean"]["seconds"])
    ratios = {}
    for name, row in vectorized.items():
        ratios[name] = round(min(row["seconds"]) / clean_seconds, 3)
    if assert_ratio:
        for name, ratio in ratios.items():
            assert ratio <= ACCEPTANCE_RATIO, (
                f"faulty scenario {name!r} ran {ratio}x the clean wall clock "
                f"(acceptance: <= {ACCEPTANCE_RATIO}x)"
            )
    return {
        "n": n,
        "rows": [result.to_row() for result in results],
        "vectorized_wall_clock_vs_clean": ratios,
    }


def run_broadcast_section(
    sizes: list[int], agreement_n: int, seed: int
) -> dict:
    """Vectorized words/second on the delivery-bound broadcast stress."""
    session = Session(name="e15-broadcast")

    def spec_for(n: int) -> ExperimentSpec:
        return ExperimentSpec(
            name="e15-broadcast",
            graph="erdos-renyi",
            graph_params={"n": n, "avg_degree": 20.0, "seed": seed},
            workload="broadcast",
            workload_params={"payload_words": 256},
            backend="vectorized",
            seeds=(seed,),
            max_rounds=100_000,
        )

    # Reference agreement at a size the reference simulator can afford.
    agreement = session.grid(
        spec_for(agreement_n),
        backends=["reference", "vectorized"],
        scenarios=SCENARIO_GRID,
    )
    agreement.check_backend_agreement()

    rows = []
    throughput: dict[int, dict[str, float]] = {}
    for n in sizes:
        results = session.grid(spec_for(n), scenarios=SCENARIO_GRID)
        for result in results:
            rows.append(result.to_row())
            throughput.setdefault(n, {})[result.scenario_name] = round(
                result.words_per_second
            )
    return {
        "sizes": sizes,
        "agreement_n": agreement_n,
        "agreement_rows": [result.to_row() for result in agreement],
        "rows": rows,
        "words_per_second": throughput,
    }


def run_sharded_section(
    n: int, seed: int, worker_counts: list[int]
) -> dict:
    """Per-worker-count sharded timings (1 worker runs in-process)."""
    session = Session(name="e15-sharded")
    spec = ExperimentSpec(
        name="e15-sharded",
        graph="erdos-renyi",
        graph_params={"n": n, "avg_degree": 20.0, "seed": seed},
        workload="broadcast",
        workload_params={"payload_words": 256},
        seeds=(seed,),
        max_rounds=100_000,
    )
    scenarios = [SCENARIO_GRID[0], SCENARIO_GRID[1]]  # clean + link-drop
    rows = []
    table: dict[str, dict[str, float]] = {}
    signatures: dict[str, tuple] = {}
    for workers in worker_counts:
        results = session.grid(
            spec,
            backends=[("sharded", {"num_workers": workers})],
            scenarios=scenarios,
        )
        for result in results:
            row = result.to_row()
            row["num_workers"] = workers
            rows.append(row)
            table.setdefault(f"workers={workers}", {})[result.scenario_name] = (
                round(min(result.seconds), 3)
            )
            # Worker count must never change semantics — per scenario, every
            # worker count must carry the identical signature.
            current = result.signature()
            expected = signatures.setdefault(result.scenario_name, current)
            assert current == expected, (
                f"sharded cell diverged: workers={workers} x {result.scenario_name}"
            )
    return {
        "n": n,
        "worker_counts": worker_counts,
        "host_cores": _host_cores(),
        "rows": rows,
        "seconds": table,
    }


def run_experiment(
    listing_n: int = 1000,
    broadcast_sizes: list[int] | None = None,
    broadcast_agreement_n: int = 500,
    sharded_n: int = 1000,
    seed: int = 7,
    assert_ratio: bool = True,
) -> dict:
    broadcast_sizes = broadcast_sizes or [1000, 2500, 5000]
    cores = _host_cores()
    worker_counts = sorted({1, 2, min(4, max(2, cores)), cores})
    listing = run_listing_section(listing_n, seed, assert_ratio)
    broadcast = run_broadcast_section(broadcast_sizes, broadcast_agreement_n, seed)
    sharded = run_sharded_section(sharded_n, seed, worker_counts)
    return {
        "experiment": (
            "E15 faulty-scenario throughput "
            "(vectorized transmit-mask kernels + sharded worker counts)"
        ),
        "workload": (
            "Theorem 32 listing grid (acceptance: faulty vectorized wall clock "
            "within 2x of clean, backends agree per cell) + 256-word broadcast "
            "stress (words/second per scenario) + sharded per-worker-count "
            "timings (1 worker in-process, 2+ forked)"
        ),
        "seed": seed,
        "host_cores": cores,
        "acceptance_ratio": ACCEPTANCE_RATIO,
        "listing": listing,
        "broadcast": broadcast,
        "sharded": sharded,
        # The flat row union keeps the committed file greppable in the
        # BENCH_*.json style alongside the structured sections.
        "rows": listing["rows"] + broadcast["rows"] + sharded["rows"],
    }


def render(report: dict) -> str:
    lines = [
        f"E15: faulty-scenario throughput (host_cores={report['host_cores']})",
        "",
        f"listing @{report['listing']['n']} — vectorized wall clock vs clean "
        f"(acceptance <= {report['acceptance_ratio']}x):",
    ]
    for name, ratio in report["listing"]["vectorized_wall_clock_vs_clean"].items():
        lines.append(f"  {name:<26s} {ratio:5.2f}x")
    lines.append("")
    lines.append("broadcast stress — vectorized words/second:")
    for n, per_scenario in report["broadcast"]["words_per_second"].items():
        for name, wps in per_scenario.items():
            lines.append(f"  n={n:<6} {name:<26s} {wps:>12,.0f} words/s")
    lines.append("")
    lines.append("sharded seconds (workers x scenario):")
    for workers, per_scenario in report["sharded"]["seconds"].items():
        cells = "  ".join(
            f"{name}={secs:.3f}s" for name, secs in per_scenario.items()
        )
        lines.append(f"  {workers:<12s} {cells}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help=(
            "where to write the JSON report ('-' to skip; default: the "
            "committed BENCH_e15.json, skipped under --smoke)"
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "small configuration for CI: 200-vertex grids, agreement "
            "asserted, wall-clock ratios reported but not asserted"
        ),
    )
    args = parser.parse_args(argv)

    if args.smoke:
        report = run_experiment(
            listing_n=200,
            broadcast_sizes=[200],
            broadcast_agreement_n=200,
            sharded_n=200,
            seed=args.seed,
            assert_ratio=False,
        )
    else:
        report = run_experiment(seed=args.seed)
    print(render(report))
    json_path = args.json
    if json_path is None and not args.smoke:
        json_path = Path(__file__).resolve().parent.parent / "BENCH_e15.json"
    if json_path is not None and str(json_path) != "-":
        json_path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {json_path}")
    return 0


def test_e15_faulty_throughput(benchmark, print_section):
    """pytest-benchmark harness entry, small size to keep the suite fast."""
    from conftest import run_once

    report = run_once(
        benchmark,
        lambda: run_experiment(
            listing_n=120,
            broadcast_sizes=[120],
            broadcast_agreement_n=120,
            sharded_n=120,
            assert_ratio=False,
        ),
    )
    print_section(render(report))
    assert set(report["listing"]["vectorized_wall_clock_vs_clean"]) == {
        "clean", "link-drop", "bursty", "heterogeneous-bandwidth"
    }


if __name__ == "__main__":
    sys.exit(main())
