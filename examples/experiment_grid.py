"""Declarative experiments: a custom scenario, one spec, a full grid.

This example shows the three moves the experiment API is built around:

1. **Author a delivery scenario** and register it with
   ``@register_scenario`` — it is immediately selectable by name everywhere
   (specs, grids, ``run_algorithm``), no library edits.
2. **Describe the experiment as data**: an :class:`ExperimentSpec` naming
   the graph source, workload, seeds, and round cap.  The spec validates
   eagerly and round-trips through JSON, so it can live in a config file.
3. **Run the backend x scenario grid through a Session** and read the
   typed :class:`ResultSet`: per-cell metrics, wall-clock samples, output
   digests, and a built-in check that every backend agreed on every cell.

Run with::

    PYTHONPATH=src python examples/experiment_grid.py
"""

import json

from repro.engine import ComposedScenario, DeliveryScenario, register_scenario
from repro.engine.scenarios import _stable_hash
from repro.experiments import ExperimentSpec, Session


# -- 1. a custom delivery model, registered by decorator ---------------------


@register_scenario("weekend-outage")
class WeekendOutage(DeliveryScenario):
    """Every edge goes dark for the last ``down`` rounds of each ``week``.

    A toy model of periodic maintenance windows: decisions are a pure
    function of ``(edge, round)``, which is all the engine requires for a
    scenario to reproduce identically on every backend.
    """

    def __init__(self, week: int = 20, down: int = 2, seed: int = 0):
        if down >= week:
            raise ValueError("the outage must be shorter than the week")
        self.week = week
        self.down = down
        self.seed = seed

    def transmits(self, edge, round_index):
        # A per-edge phase staggers the windows so the whole network never
        # stops at once (delete the offset for synchronised maintenance).
        offset = _stable_hash("weekend", self.seed, edge) % self.week
        return (round_index + offset) % self.week < self.week - self.down

    def describe(self):
        return f"WeekendOutage(week={self.week}, down={self.down})"


def main() -> None:
    # -- 2. the experiment as data ------------------------------------------
    spec = ExperimentSpec(
        name="flood-under-faults",
        graph="clustered-communities",
        graph_params={"num_communities": 4, "community_size": 15,
                      "intra_p": 0.5, "inter_p": 0.03, "seed": 11},
        workload="flood-min",
        seeds=(0, 1),
        max_rounds=5_000,
    )
    print("spec:", spec.describe())
    print("as JSON:", json.dumps(spec.to_json())[:120], "...\n")
    assert ExperimentSpec.from_json(spec.to_json()) == spec

    # -- 3. the grid, through the session alone -----------------------------
    session = Session(name="experiment-grid-example")
    results = session.grid(
        spec,
        backends=["reference", "vectorized"],
        scenarios=[
            "clean",
            "weekend-outage",                      # the custom scenario
            ("link-drop", {"drop_probability": 0.2}),
            # composition, not subclassing: drops *and* maintenance windows
            ComposedScenario.overlay("weekend-outage", "link-drop"),
        ],
    )
    results.check_backend_agreement()   # same outputs/rounds on every backend
    print(results.table())
    print(f"\nresult-set digest (deterministic): {results.digest()}")


if __name__ == "__main__":
    main()
