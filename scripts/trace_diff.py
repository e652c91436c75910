"""Trace-diff divergence debugger: where do two backends first disagree?

Runs the same workload on two backends under recording tracers and
reports the first round whose delivered-message multisets diverge,
together with the messages unique to each side — the actionable form of
the engine's semantic-equivalence contract.  A clean pair prints
``no divergence``; use ``--doctor ROUND`` to corrupt one side's recorded
trace at a round and see what a real divergence report looks like.

Examples::

    PYTHONPATH=src python scripts/trace_diff.py
    PYTHONPATH=src python scripts/trace_diff.py \
        --backend-a reference --backend-b vectorized --scenario link-drop
    PYTHONPATH=src python scripts/trace_diff.py --n 48 --doctor 3
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.spec import graph_source_registry, workload_registry
from repro.obs import diff_delivered, run_trace_diff


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--graph", default="erdos-renyi",
        help="graph source registry name (default: erdos-renyi)",
    )
    parser.add_argument("--n", type=int, default=24, help="graph size")
    parser.add_argument(
        "--avg-degree", type=float, default=5.0,
        help="average degree (erdos-renyi style sources)",
    )
    parser.add_argument(
        "--graph-seed", type=int, default=3, help="graph generator seed"
    )
    parser.add_argument(
        "--workload", default="flood-min",
        help="vertex workload registry name (default: flood-min)",
    )
    parser.add_argument("--backend-a", default="reference")
    parser.add_argument("--backend-b", default="vectorized")
    parser.add_argument(
        "--scenario", default=None,
        help="delivery scenario registry name (default: clean)",
    )
    parser.add_argument("--max-rounds", type=int, default=10_000)
    parser.add_argument(
        "--doctor", type=int, default=None, metavar="ROUND",
        help="corrupt backend B's recorded trace at ROUND before diffing "
        "(demonstrates the divergence report on a healthy engine)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    try:
        graph_builder = graph_source_registry.get(args.graph)
        workload_builder = workload_registry.get(args.workload)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(workload_builder, "kind", "vertex") != "vertex":
        print(
            f"error: workload {args.workload!r} is a driver workload; "
            "trace diffing runs single engine executions",
            file=sys.stderr,
        )
        return 2

    graph_params = {"n": args.n}
    if args.graph == "erdos-renyi":
        graph_params.update(avg_degree=args.avg_degree, seed=args.graph_seed)
    graph = graph_builder(**graph_params)
    factory = workload_builder()

    report, trace_a, trace_b = run_trace_diff(
        graph,
        factory,
        args.backend_a,
        args.backend_b,
        scenario=args.scenario,
        max_rounds=args.max_rounds,
    )

    if args.doctor is not None:
        # Re-diff against a deliberately corrupted copy of side B: drop one
        # message from the doctored round (or invent one if it was quiet).
        delivered = trace_b.delivered_by_round()
        doctored = {r: list(msgs) for r, msgs in delivered.items()}
        target = doctored.setdefault(args.doctor, [])
        if target:
            removed = target.pop()
            print(
                f"doctored {args.backend_b!r} trace: removed "
                f"{removed!r} from round {args.doctor}\n"
            )
        else:
            target.append(("ghost", "ghost", "doctored", "None"))
            print(
                f"doctored {args.backend_b!r} trace: injected a ghost "
                f"message into quiet round {args.doctor}\n"
            )
        report = diff_delivered(
            trace_a, doctored, report.label_a, f"{report.label_b} (doctored)"
        )

    print(report.render())
    return 1 if report.diverged else 0


if __name__ == "__main__":
    sys.exit(main())
