"""Benchmark of the paper's listing cell (Theorems 32/36 on the engine).

Run from the root of a checkout::

    python3 perfbench/run.py --workload sparse-k3 --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the cell runs untraced for ``--seconds`` seconds and the
end-to-end metrics are reported; with ``--trace 1`` untraced and traced
cells alternate and the per-layer metrics are reported (see
``perfbench/probes.py``).  Every cell is checked against ground truth.
``--size smoke`` runs small graphs for the benchmark's own checks::

    python3 -m pytest perfbench/checks.py -q

Standard output ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give the host fingerprint and a readable table of the same metrics.

End-to-end metrics (``--trace 0``):

* ``listing_s`` -- median over the timed cells of each cell's wall time,
  normalised to a fixed host speed by the calibration that brackets it
  (``perfbench/calibrate.py``); the table also prints the raw wall median.
* ``setup_s`` -- normalised seconds from process start to the end of the
  imports, plus the median of ``SETUP_REPEATS`` set-ups (build the graph
  from the seed, enumerate the ground truth, run one checked warm-up cell).
* ``peak_rss_mb`` -- the process's peak resident memory.
* ``rounds``, ``words``, ``round_bound_ratio`` -- the engine-measured
  CONGEST rounds and words of a cell, and measured over predicted rounds.

``fail_frac`` (failed over attempted cells) is ``failed / attempted`` of
the result line; it is printed in the table but is not a metric, since it
is 0 on a correct run.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (after the start stamp, so set-up counts imports)
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
SETUP_REPEATS = 3
MIN_SAMPLES = 3
MAX_UNATTRIBUTED = 0.10

END_TO_END_UNITS = {
    "listing_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rounds": "count",
    "words": "count",
    "round_bound_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "decomposition.s": "s",
    "decomposition.clusters": "count",
    "partition_trees.s": "s",
    "listing.plan.s": "s",
    "listing.demands": "count",
    "listing.listers": "count",
    "listing.extract.s": "s",
    "listing.extract.calls": "count",
    "engine.s": "s",
    "engine.executions": "count",
    "engine.rounds_total": "count",
    "engine.messages": "count",
    "engine.words": "count",
    "engine.s_per_round": "s/round",
    "engine.delivery.s": "s",
    "engine.delivery.calls": "count",
    "engine.compute.s": "s",
    "engine.edge_utilisation": "ratio",
    "engine.edge_slots": "count",
    "listing.dup_factor": "ratio",
    "listing.reports": "count",
    "listing.cliques": "count",
    "unattributed.s": "s",
    "unattributed.frac": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead": "ratio",
}


def import_library():
    """Import the checkout's ``repro``; fail when the checkout has none."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources at {SOURCE}; run from a full checkout")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SOURCE}")
    import calibrate
    import cells
    import probes

    return calibrate, cells, probes


def host_fingerprint() -> dict:
    """Cores, interpreter and library versions, and the code's identity."""
    import networkx
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SOURCE / "repro").rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode())
        digest.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
        git_sha = completed.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
    }


def set_up(cells, calibrator, workload, size: str, seed: int):
    """Build the graph, enumerate the truth and run one checked warm-up cell.

    Done ``SETUP_REPEATS`` times; returns the runner of the last set-up and
    the median normalised set-up seconds.
    """
    durations = []
    runner = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        graph = workload.build(size, seed)
        truth = cells.ground_truth(graph, workload.p)
        if runner is None:
            runner = cells.CheckedRunner(workload, graph, truth)
        else:
            runner.graph, runner.truth = graph, truth
        gc.collect()
        runner.sample()
        durations.append(calibrator.normalise(time.perf_counter() - start))
    # Ground truth and graph live for the whole run: keep them out of the
    # collector's generations so no timed cell pays to scan them.
    gc.collect()
    gc.freeze()
    return runner, statistics.median(durations)


def measure_untraced(calibrator, runner, seconds: float) -> tuple[list[float], list[float]]:
    """Untraced cells for ``seconds`` (at least ``MIN_SAMPLES`` of them).

    Returns each cell's wall seconds and its normalised seconds.
    """
    walls, scaled = [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_SAMPLES or time.perf_counter() < deadline:
        gc.collect()
        walls.append(runner.sample().seconds)
        scaled.append(calibrator.normalise(walls[-1]))
    return walls, scaled


def measure_traced(cells, probes, runner, seconds: float) -> tuple[dict, list[str]]:
    """Alternate untraced and traced cells; per-layer medians plus problems."""
    untraced, traced, layer_rows = [], [], []
    problems = []
    deadline = time.perf_counter() + seconds
    pair = 0
    while pair < MIN_SAMPLES or time.perf_counter() < deadline:
        for traced_turn in ((False, True) if pair % 2 == 0 else (True, False)):
            gc.collect()
            if not traced_turn:
                untraced.append(runner.sample().seconds)
                continue
            probe = probes.LayerProbe()

            def traced_cell():
                with probe:
                    return cells.run_cell(runner.workload, runner.graph)

            sample = runner.sample(traced_cell)
            if not probes.LayerProbe.restored():
                problems.append("a wrapped attribute was not restored")
            if sample.error is None:
                traced.append(sample.seconds)
                layer_rows.append(probe.metrics(sample.seconds, sample.result))
        pair += 1
    if not layer_rows:
        return {}, problems + ["no traced cell succeeded"]
    metrics = {
        name: statistics.median(row[name] for row in layer_rows)
        for name in layer_rows[0]
    }
    untraced_median = statistics.median(untraced)
    metrics["trace.untraced_s"] = untraced_median
    metrics["trace.overhead"] = statistics.median(traced) / untraced_median - 1.0
    if metrics["unattributed.frac"] > MAX_UNATTRIBUTED:
        problems.append(
            f"unattributed time is {metrics['unattributed.frac']:.1%} of the traced "
            f"wall time (limit {MAX_UNATTRIBUTED:.0%})"
        )
    return metrics, problems


def main(argv: list[str] | None = None) -> dict:
    # One process, no extra threads: BLAS pools would compete with the cell
    # for the host's cores.  Takes effect when numpy is first imported.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    calibrate, cells, probes = import_library()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(cells.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=cells.SIZES, default="full")
    args = parser.parse_args(argv)
    imports_done = time.perf_counter()
    workload = cells.WORKLOADS[args.workload]

    print(json.dumps({
        "host": host_fingerprint(), "workload": workload.name, "size": args.size,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }))
    calibrator = calibrate.Calibrator()
    import_seconds = calibrator.normalise(imports_done - PROCESS_START)
    runner, setup_seconds = set_up(cells, calibrator, workload, args.size, args.seed)
    problems: list[str] = []
    if args.trace:
        values, problems = measure_traced(cells, probes, runner, args.seconds)
        units = PER_LAYER_UNITS
        notes = {name: f"moves {moves}" for name, moves in probes.MOVES.items()}
    else:
        walls, scaled = measure_untraced(calibrator, runner, args.seconds)
        reference = runner.reference
        values = {"listing_s": statistics.median(scaled)}
        values["setup_s"] = import_seconds + setup_seconds
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if reference is not None:
            values["rounds"] = reference.measured_rounds
            values["words"] = reference.measured_words
            values["round_bound_ratio"] = (
                reference.measured_rounds / reference.predicted_rounds
            )
        units = END_TO_END_UNITS
        notes = {
            "listing_s": f"median of {len(scaled)} normalised cells; "
                         f"wall median {statistics.median(walls):.6f} s",
        }
    missing = [name for name in units if name not in values]
    if missing:
        problems.append(f"metrics not measured: {', '.join(missing)}")

    for error in sorted(set(runner.errors)):
        print(f"FAILED cell: {error}", file=sys.stderr)
    for problem in problems:
        print(f"FAILED check: {problem}", file=sys.stderr)
    print(f"# {workload.name} seed={args.seed} size={args.size} "
          f"attempted={runner.attempted} failed={runner.failed}")
    for name in units:
        if name in values:
            note = f"  # {notes[name]}" if name in notes else ""
            print(f"{name:<26s} {values[name]:>16.6f} {units[name]}{note}")
    print(f"{'fail_frac':<26s} {runner.failed / runner.attempted:>16.6f} ratio")
    report = {
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name in values
        },
    }
    print(json.dumps(report))
    gc.unfreeze()
    return report


if __name__ == "__main__":
    main()
