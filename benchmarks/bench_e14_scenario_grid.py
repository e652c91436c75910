"""E14 — Robust-scenario grid: listing round degradation, backend x scenario.

The robust congested-clique model (arXiv:2508.08740) asks how algorithms
behave when delivery is not the clean synchronous ideal: smooth per-round
link drops, *correlated bursty* outages, and *heterogeneous per-edge
bandwidth*.  This experiment runs the engine-executed Theorem 32 triangle
listing (the ``distributed-listing`` driver workload) over the full

    {reference, vectorized} x
    {clean, link-drop, bursty, heterogeneous-bandwidth}

grid **through the declarative experiment API alone** — one
:class:`~repro.experiments.ExperimentSpec`, one
:meth:`~repro.experiments.Session.grid` call, no direct ``run_algorithm``
wiring — and reports how the measured parallel round count degrades per
scenario, with the :class:`~repro.experiments.ResultSet` asserting that
every cell's backends agree exactly (same cliques, same measured rounds).

Run standalone (writes BENCH_e14.json at the repo root by default)::

    PYTHONPATH=src python benchmarks/bench_e14_scenario_grid.py
    PYTHONPATH=src python benchmarks/bench_e14_scenario_grid.py --smoke

``--smoke`` runs the 200-vertex configuration only (the CI tier-2 job), or
through the pytest-benchmark harness like the other experiments::

    PYTHONPATH=src python -m pytest benchmarks/bench_e14_scenario_grid.py -q
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import common  # noqa: F401  (registers the 'listing-workload' graph source)
from repro.experiments import ExperimentSpec, Session

ALL_BACKENDS = ["reference", "vectorized"]

# The robust-scenario axis: registry names with per-scenario parameters.
# The spec's sweep seed is injected into each scenario that accepts one.
SCENARIO_GRID = [
    "clean",
    ("link-drop", {"drop_probability": 0.1}),
    ("bursty", {"burst_probability": 0.25, "burst_length": 3, "period": 12}),
    ("heterogeneous-bandwidth", {"capacities": [1.0, 0.5, 0.25]}),
]


def build_spec(n: int, seed: int = 7, max_rounds: int = 200_000) -> ExperimentSpec:
    """The one declarative spec the whole grid runs from."""
    return ExperimentSpec(
        name="e14-scenario-grid",
        graph="listing-workload",
        graph_params={"n": n},
        workload="distributed-listing",
        backend="vectorized",
        seeds=(seed,),
        max_rounds=max_rounds,
    )


def run_experiment(
    n: int, seed: int = 7, backends: list[str] | None = None
) -> dict:
    """Execute the backend x scenario grid; return the JSON report."""
    backends = backends or ALL_BACKENDS
    spec = build_spec(n, seed=seed)
    session = Session(name="e14-scenario-grid")
    results = session.grid(spec, backends=backends, scenarios=SCENARIO_GRID)
    # The engine's equivalence contract, checked at the result layer: every
    # (scenario, seed) cell must list the identical cliques in the identical
    # number of measured rounds on every backend.
    results.check_backend_agreement()

    rounds_by_scenario: dict[str, int] = {}
    for result in results:
        rounds_by_scenario.setdefault(result.scenario_name, result.rounds)
    clean_rounds = rounds_by_scenario["clean"]
    degradation = {
        name: {
            "rounds": rounds,
            "stretch_vs_clean": round(rounds / max(clean_rounds, 1), 3),
        }
        for name, rounds in rounds_by_scenario.items()
    }

    report = results.to_json()
    report["experiment"] = (
        "E14 scenario grid (distributed listing under robust delivery models)"
    )
    report["workload"] = (
        "Theorem 32 triangle listing executed per-vertex on the engine; "
        "backend x scenario grid run through the declarative Session API; "
        "per-cell backend agreement asserted"
    )
    report["n"] = n
    report["seed"] = seed
    report["degradation"] = degradation
    report["spec"] = spec.to_json()
    return report


def render(report: dict) -> str:
    lines = [
        f"E14: listing round degradation on the robust-scenario grid "
        f"(n={report['n']})",
        f"{'scenario':<26s} {'backend':<11s} {'rounds':>7s} {'words':>9s} "
        f"{'secs':>8s}",
    ]
    for row in report["rows"]:
        lines.append(
            f"{row['scenario_name']:<26s} {row['backend']:<11s} "
            f"{row['rounds']:>7d} {row['words']:>9d} "
            f"{min(row['seconds']):>8.3f}"
        )
    lines.append("")
    lines.append("round stretch vs clean delivery:")
    for name, stats in report["degradation"].items():
        lines.append(
            f"  {name:<26s} {stats['rounds']:>7d} rounds "
            f"({stats['stretch_vs_clean']:.2f}x)"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--backends", nargs="+", default=ALL_BACKENDS)
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help=(
            "where to write the JSON report ('-' to skip; default: the "
            "committed BENCH_e14.json, skipped under --smoke)"
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="200-vertex configuration only (the CI tier-2 job)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.n = 200
    report = run_experiment(args.n, seed=args.seed, backends=args.backends)
    print(render(report))
    json_path = args.json
    if json_path is None and not args.smoke:
        json_path = Path(__file__).resolve().parent.parent / "BENCH_e14.json"
    if json_path is not None and str(json_path) != "-":
        json_path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {json_path}")
    return 0


def test_e14_scenario_grid(benchmark, print_section):
    """pytest-benchmark harness entry, small size to keep the suite fast."""
    from conftest import run_once

    report = run_once(benchmark, lambda: run_experiment(120))
    print_section(render(report))
    scenarios = {row["scenario_name"] for row in report["rows"]}
    assert scenarios == {
        "clean", "link-drop", "bursty", "heterogeneous-bandwidth"
    }
    assert all(
        stats["stretch_vs_clean"] >= 1.0 or name == "clean"
        for name, stats in report["degradation"].items()
    )


if __name__ == "__main__":
    sys.exit(main())
