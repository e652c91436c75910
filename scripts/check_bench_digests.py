#!/usr/bin/env python3
"""Check committed benchmark reports against a fresh rerun.

Reruns, at the sizes their committed reports record, E11
(``benchmarks/bench_e11_engine_throughput.py``: per-vertex broadcasts on the
message scheduler), E12 (``benchmarks/bench_e12_distributed_listing.py``),
E13 (``benchmarks/bench_e13_vector_layer.py``: vector algorithms under
link-drop and adversarial-delay) and E14
(``benchmarks/bench_e14_scenario_grid.py``), writing the reruns into a
temporary directory.  It compares every field the committed reports record
except the wall-clock ones (``seconds``, ``words_per_second``,
``rounds_per_second``, ``timings``, and E11's and E13's
``vectorized_speedup``, ``per_vertex_seconds``, ``vector_seconds`` and
``speedup``).  Rounds, words, messages, drops and output digests must match
exactly.  A field only the rerun has (one added to the row format after the
report was committed) is not compared.

Run from anywhere in a checkout::

    python scripts/check_bench_digests.py

Exits 0 when every report matches and 1 naming the row and field of every
difference.  Works without PYTHONPATH set up: resolves ``src/`` relative to
the checkout this script lives in.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALL_CLOCK = frozenset({
    "seconds", "words_per_second", "rounds_per_second", "timings",
    "vectorized_speedup", "per_vertex_seconds", "vector_seconds", "speedup",
})


def _sizes_args(committed: dict) -> list[str]:
    sizes = sorted({row["n"] for row in committed["rows"]})
    return ["--sizes", *map(str, sizes)]


def _e14_args(committed: dict) -> list[str]:
    backends = list(dict.fromkeys(row["backend"] for row in committed["rows"]))
    return [
        "--n", str(committed["n"]), "--seed", str(committed["seed"]),
        "--backends", *backends,
    ]


# name -> (committed report, benchmark script, its arguments from the report)
BENCHES = {
    "E11": ("BENCH_e11.json", "bench_e11_engine_throughput.py", _sizes_args),
    "E12": ("BENCH_e12.json", "bench_e12_distributed_listing.py", _sizes_args),
    "E13": ("BENCH_e13.json", "bench_e13_vector_layer.py", _sizes_args),
    "E14": ("BENCH_e14.json", "bench_e14_scenario_grid.py", _e14_args),
}


def differences(committed, rerun, where: str = "") -> list[str]:
    """Every committed field the rerun does not reproduce, wall-clock keys
    skipped."""
    if isinstance(committed, dict) and isinstance(rerun, dict):
        found = []
        for key in committed:
            if key in WALL_CLOCK:
                continue
            path = f"{where}.{key}" if where else str(key)
            if key not in rerun:
                found.append(f"{path}: missing from the rerun")
            else:
                found += differences(committed[key], rerun[key], path)
        return found
    if isinstance(committed, list) and isinstance(rerun, list):
        if len(committed) != len(rerun):
            return [f"{where}: {len(committed)} entries committed, {len(rerun)} rerun"]
        found = []
        for position, (old, new) in enumerate(zip(committed, rerun)):
            found += differences(old, new, f"{where}[{position}]")
        return found
    if committed != rerun:
        return [f"{where}: committed {committed!r}, rerun {rerun!r}"]
    return []


def rerun(script: str, args: list[str], out: Path) -> dict:
    """Run one benchmark script with ``--json out`` and load its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / script), *args, "--json", str(out)],
        check=True, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
    )
    return json.loads(out.read_text())


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        for name, (report, script, arguments) in BENCHES.items():
            committed = json.loads((ROOT / report).read_text())
            fresh = rerun(script, arguments(committed), Path(scratch) / report)
            found = differences(committed, fresh)
            for difference in found:
                print(f"{name} {difference}")
            print(f"{name}: {'differs' if found else 'matches'} {report}")
            failed |= bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
