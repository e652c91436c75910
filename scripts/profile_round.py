"""cProfile harness for engine hot paths: a flame-ordered per-layer baseline.

Future perf PRs should start from data, not guesses.  This script runs one
experiment cell (any registered workload x backend x scenario) under
cProfile and prints two views:

* **per-layer totals** — cumulative self-time aggregated by engine layer
  (scenario kernels, the delivery scheduler, the vector layer, backend
  loops, the congest substrate, workload code, numpy, other), which answers
  "where does a round's budget go?" at a glance;
* **top-N functions by cumulative time** — the conventional flame-ordered
  list for drilling into a layer.

Examples::

    PYTHONPATH=src python scripts/profile_round.py
    PYTHONPATH=src python scripts/profile_round.py \
        --workload broadcast --scenario link-drop --n 1000 --top 30
    PYTHONPATH=src python scripts/profile_round.py \
        --workload distributed-listing --graph listing-workload \
        --backend vectorized --scenario heterogeneous-bandwidth
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import common  # noqa: F401  (registers benchmark workloads + graph sources)
from repro.experiments import ExperimentSpec, Session

# Layer buckets, matched by substring against each profiled function's file
# path; first hit wins, so more specific paths come first.
LAYERS = [
    ("scenario-kernels", "repro/engine/scenarios"),
    ("delivery-scheduler", "repro/engine/delivery"),
    ("vector-layer", "repro/engine/vector.py"),
    ("backend-loops", "repro/engine/"),
    ("congest-substrate", "repro/congest/"),
    ("experiments-api", "repro/experiments/"),
    ("workload", "benchmarks/"),
    ("listing", "repro/listing/"),
    ("numpy", "numpy"),
    ("networkx", "networkx"),
]


def classify(path: str) -> str:
    normalised = path.replace("\\", "/")
    for layer, needle in LAYERS:
        if needle in normalised:
            return layer
    return "other"


def profile_cell(args: argparse.Namespace) -> pstats.Stats:
    graph_params = {"n": args.n}
    if args.graph == "erdos-renyi":
        graph_params.update({"avg_degree": args.avg_degree, "seed": args.graph_seed})
    workload_params = {}
    if args.workload in ("broadcast", "vector-broadcast"):
        workload_params["payload_words"] = args.payload_words
    spec = ExperimentSpec(
        name="profile-round",
        graph=args.graph,
        graph_params=graph_params,
        workload=args.workload,
        workload_params=workload_params,
        backend=args.backend,
        scenario=args.scenario,
        seeds=(args.seed,),
        max_rounds=args.max_rounds,
    )
    session = Session(name="profile-round")
    graph = spec.build_graph()  # outside the profile: we measure execution
    profiler = cProfile.Profile()
    profiler.enable()
    session._run_cell(
        spec, graph, backend=spec.backend, scenario=spec.scenario, seed=args.seed
    )
    profiler.disable()
    return pstats.Stats(profiler)


def layer_table(stats: pstats.Stats) -> list[tuple[str, float, int]]:
    totals: dict[str, tuple[float, int]] = {}
    for (path, _line, _name), row in stats.stats.items():  # type: ignore[attr-defined]
        calls, _primitive, tottime, _cumtime = row[0], row[1], row[2], row[3]
        layer = classify(path)
        seconds, count = totals.get(layer, (0.0, 0))
        totals[layer] = (seconds + tottime, count + calls)
    return sorted(
        ((layer, seconds, calls) for layer, (seconds, calls) in totals.items()),
        key=lambda item: item[1],
        reverse=True,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="broadcast")
    parser.add_argument("--graph", default="erdos-renyi")
    parser.add_argument("--backend", default="vectorized")
    parser.add_argument("--scenario", default="link-drop")
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--avg-degree", type=float, default=20.0)
    parser.add_argument("--payload-words", type=int, default=256)
    parser.add_argument("--graph-seed", type=int, default=11)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-rounds", type=int, default=200_000)
    parser.add_argument("--top", type=int, default=25,
                        help="how many functions in the cumulative list")
    args = parser.parse_args(argv)

    stats = profile_cell(args)
    total = sum(row[2] for row in stats.stats.values())  # type: ignore[attr-defined]

    print(
        f"profile: workload={args.workload} backend={args.backend} "
        f"scenario={args.scenario} n={args.n}\n"
    )
    print(f"{'layer':<20s} {'self-seconds':>12s} {'share':>7s} {'calls':>10s}")
    for layer, seconds, calls in layer_table(stats):
        share = seconds / total if total else 0.0
        print(f"{layer:<20s} {seconds:>12.4f} {share:>6.1%} {calls:>10d}")

    print(f"\ntop {args.top} by cumulative time:")
    stats.sort_stats("cumulative").print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
