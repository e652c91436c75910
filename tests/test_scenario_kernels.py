"""Scenario kernels and the faulty-path scheduler: agreement properties.

Two contracts pin the vectorized scenario layer:

1. **Kernel/scalar agreement** — for every registered scenario (and for
   random :class:`ComposedScenario` trees), the batch ``transmit_mask``
   must agree call-for-call with the scalar ``transmits``, for one shared
   start round and for one start per row, because the fast backends
   consume the mask while the reference simulator replays the scalar form.
2. **Word-accounting equivalence** — the
   :class:`~repro.engine.delivery.WordScheduler`'s per-edge FIFOs must
   reproduce the reference edge-by-edge word queues exactly: same delivery
   round per message, same words-per-round levels, under every scenario,
   including FIFO contention, batches mixing deeply queued and idle edges
   (no crossing before a transfer's turn may count toward its words),
   batches mixing long and short transfers, and a store that recycles the
   ids of delivered transfers.  A scenario that implements only
   ``transmits`` takes the same path through the base ``transmit_mask`` and
   meets the same oracle.
"""

import random
from collections import defaultdict, deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest.message import Message
from repro.engine.delivery import GraphIndex, WordScheduler
from repro.engine.scenarios import (
    AdversarialDelayScenario,
    BurstyFaultScenario,
    CleanSynchronous,
    ComposedScenario,
    DeliveryScenario,
    HeterogeneousBandwidthScenario,
    LinkDropScenario,
    _stable_hash,
    build_composed,
    scenario_registry,
)


class TransmitsOnlyDrop(DeliveryScenario):
    """A user scenario with no ``transmit_mask`` override.

    Drops each (edge, round) word with probability ``drop_probability``
    from a stable hash; the scheduler queries the base ``transmit_mask``,
    one ``transmits`` call per cell.
    """

    def __init__(self, drop_probability: float, seed: int = 0):
        self.threshold = drop_probability * 2.0**64
        self.seed = seed

    def transmits(self, edge, round_index):
        draw = _stable_hash("transmits-only", self.seed, edge, round_index)
        return draw >= self.threshold


# -- strategies --------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**31)


@st.composite
def leaf_scenarios(draw, registered_only: bool = False):
    kinds = ["clean", "link-drop", "adversarial-delay", "bursty", "hetero"]
    if not registered_only:
        kinds.append("transmits-only")
    kind = draw(st.sampled_from(kinds))
    seed = draw(seeds)
    if kind == "clean":
        return CleanSynchronous()
    if kind == "transmits-only":
        return TransmitsOnlyDrop(
            draw(st.floats(min_value=0.0, max_value=1.0)), seed=seed
        )
    if kind == "link-drop":
        return LinkDropScenario(
            draw(st.floats(min_value=0.0, max_value=0.9)), seed=seed
        )
    if kind == "adversarial-delay":
        return AdversarialDelayScenario(
            draw(st.integers(min_value=2, max_value=9)), seed=seed
        )
    if kind == "bursty":
        length = draw(st.integers(min_value=1, max_value=4))
        return BurstyFaultScenario(
            draw(st.floats(min_value=0.0, max_value=0.95)),
            burst_length=length,
            period=draw(st.integers(min_value=length + 1, max_value=14)),
            seed=seed,
        )
    rates = draw(
        st.lists(
            st.sampled_from([1.0, 0.75, 0.5, 0.25, 0.2]),
            min_size=1, max_size=4,
        )
    )
    return HeterogeneousBandwidthScenario(tuple(rates), seed=seed)


@st.composite
def composed_scenarios(draw, depth: int = 1, registered_only: bool = False):
    leaves = leaf_scenarios(registered_only=registered_only)
    children = st.deferred(
        lambda: leaves
        if depth == 0
        else st.one_of(
            leaves,
            composed_scenarios(
                depth=depth - 1, registered_only=registered_only
            ),
        )
    )
    parts = draw(st.lists(children, min_size=1, max_size=3))
    if draw(st.booleans()):
        return ComposedScenario(parts, mode="overlay")
    durations = [
        draw(st.integers(min_value=1, max_value=25)) for _ in parts[:-1]
    ]
    return ComposedScenario(parts, mode="sequential", durations=durations)


any_scenario = st.one_of(leaf_scenarios(), composed_scenarios())

EDGES = (
    [(i, (i * 7 + 3) % 23) for i in range(20)]
    + [("a", "b"), ("b", "a"), ((1, 2), (3, 4))]
)


# -- 1. kernel/scalar agreement ----------------------------------------------


@given(
    scenario=any_scenario,
    first_round=st.integers(min_value=0, max_value=5_000),
    num_rounds=st.integers(min_value=1, max_value=60),
    per_row=st.booleans(),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_transmit_mask_agrees_with_scalar_transmits(
    scenario, first_round, num_rounds, per_row, data
):
    scenario.bind_edges(EDGES)
    ids = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(EDGES) - 1),
            min_size=1, max_size=8,
        )
    )
    if per_row:
        # One unsorted start per row, up to 5,000 apart, so rows cross
        # bursty windows and sequential phase boundaries at different
        # columns.  An int64 array also catches a kernel mixing uint64
        # with int64 (numpy promotes that mix to float64).
        first_round = np.asarray(
            data.draw(
                st.lists(
                    st.one_of(
                        st.integers(min_value=0, max_value=100),
                        st.integers(min_value=0, max_value=5_000),
                    ),
                    min_size=len(ids), max_size=len(ids),
                )
            ),
            dtype=np.int64,
        )
    starts = np.broadcast_to(first_round, (len(ids),))
    mask = scenario.transmit_mask(
        np.asarray(ids, dtype=np.int64), first_round, num_rounds
    )
    assert mask.shape == (len(ids), num_rounds) and mask.dtype == bool
    for row, edge_id in enumerate(ids):
        edge = EDGES[edge_id]
        start = int(starts[row])
        for column in range(num_rounds):
            assert mask[row, column] == scenario.transmits(
                edge, start + column
            ), (scenario.describe(), edge, start + column)


def test_every_registered_scenario_declares_a_working_mask():
    """Default constructions of all registered scenarios support the batch API."""
    for name in scenario_registry.names():
        if name == "composed":
            scenario = build_composed(
                op="overlay", children=["link-drop", "bursty"]
            )
        else:
            scenario = scenario_registry.get(name)()
        scenario.bind_edges(EDGES)
        ids = np.arange(4, dtype=np.int64)
        mask = scenario.transmit_mask(ids, 3, 17)
        expected = np.array(
            [
                [scenario.transmits(EDGES[i], 3 + j) for j in range(17)]
                for i in range(4)
            ]
        )
        assert (mask == expected).all(), name
        starts = np.array([40, 3, 2_011, 17], dtype=np.int64)
        mask = scenario.transmit_mask(ids, starts, 17)
        expected = np.array(
            [
                [scenario.transmits(EDGES[i], int(starts[i]) + j) for j in range(17)]
                for i in range(4)
            ]
        )
        assert (mask == expected).all(), name
        assert scenario.transmit_mask(np.arange(3), 7, 0).shape == (3, 0), name
        empty = np.arange(0, dtype=np.int64)
        assert scenario.transmit_mask(empty, 7, 17).shape == (0, 17), name
        assert scenario.transmit_mask(empty, empty, 17).shape == (0, 17), name


def test_bursty_mask_with_a_long_period_agrees_with_scalar_transmits():
    """A period of a million rounds builds, and its mask costs the queried
    cells, not the period: bursts found in a two-window scan, then short
    queries around each of them, agree with the scalar form."""
    scenario = BurstyFaultScenario(0.5, 3, period=10**6)
    scenario.bind_edges(EDGES)
    ids = np.arange(8, dtype=np.int64)
    blocked = np.argwhere(~scenario.transmit_mask(ids, 0, 2 * 10**6))
    assert len(blocked) > 0
    for row, column in blocked.tolist():
        assert not scenario.transmits(EDGES[row], column)
    # Each blocked cell, and the window boundary, seen from a few rounds
    # earlier: once as a shared start, once as one start per row.
    first = np.maximum(blocked[:, 1] - 5, 0)
    rows = np.concatenate([blocked[:, 0], ids])
    starts = np.concatenate([first, np.full(ids.size, 10**6 - 6)])
    for start in sorted(set(starts.tolist())):
        mask = scenario.transmit_mask(ids, start, 12)
        for row in range(ids.size):
            for column in range(12):
                assert mask[row, column] == scenario.transmits(
                    EDGES[row], start + column
                ), (row, start + column)
    mask = scenario.transmit_mask(rows, starts, 12)
    for i, (row, start) in enumerate(zip(rows.tolist(), starts.tolist())):
        for column in range(12):
            assert mask[i, column] == scenario.transmits(
                EDGES[row], start + column
            ), (row, start + column)


def test_scalar_fallback_mask_replays_transmits():
    """A transmits-only user scenario gets a correct (looped) mask for free."""

    class EveryThird(DeliveryScenario):
        def transmits(self, edge, round_index):
            return round_index % 3 != 0

    scenario = EveryThird()
    scenario.bind_edges(EDGES)
    mask = scenario.transmit_mask(np.array([0, 1]), 0, 9)
    assert (mask == np.array([[False, True, True] * 3] * 2)).all()
    mask = scenario.transmit_mask(np.array([0, 1]), np.array([4, 0]), 9)
    assert (
        mask == np.array([[True, True, False] * 3, [False, True, True] * 3])
    ).all()


def test_unbound_default_mask_raises():
    class Custom(DeliveryScenario):
        pass

    with pytest.raises(RuntimeError, match="bind_edges"):
        Custom().transmit_mask(np.array([0]), 0, 1)


# -- 2. word-accounting equivalence ------------------------------------------


def _reference_delivery(plan, scenario, horizon):
    """Faithful per-edge word queues (the CongestNetwork discipline).

    ``plan`` is a list of (message, words, round).  Returns the delivery
    round per message id and the words-crossed level per round.
    """
    queues = defaultdict(deque)
    delivered = {}
    levels = {}
    for round_index in range(horizon):
        for message, words, enqueue_round in plan:
            if enqueue_round == round_index:
                edge = (message.sender, message.receiver)
                for _ in range(words - 1):
                    queues[edge].append(None)
                queues[edge].append(message)
        crossed = 0
        for edge, queue in list(queues.items()):
            if not queue:
                continue
            if not scenario.transmits(edge, round_index):
                continue
            item = queue.popleft()
            crossed += 1
            if isinstance(item, Message):
                delivered[id(item)] = round_index
        levels[round_index] = crossed
        if not any(queues.values()) and round_index > max(
            (r for _, _, r in plan), default=0
        ):
            break
    return delivered, levels


def _run_scheduler(plan, scenario, index, horizon, scheduler=None):
    scheduler = scheduler or WordScheduler(index, scenario)
    by_round = defaultdict(list)
    for message, words, enqueue_round in plan:
        by_round[enqueue_round].append((message, words))
    delivered = {}
    levels = {}
    last = max(by_round, default=0)
    for round_index in range(horizon):
        batch = by_round.get(round_index, [])
        scheduler.schedule_messages(
            [m for m, _ in batch], [w for _, w in batch], round_index
        )
        messages, level = scheduler.deliver(round_index)
        levels[round_index] = level
        for message in messages:
            delivered[id(message)] = round_index
        if round_index > last and not scheduler.has_pending:
            break
    return delivered, levels


@given(scenario=any_scenario, data=st.data())
@settings(max_examples=40, deadline=None)
def test_scheduler_matches_reference_word_queues(scenario, data):
    graph = nx.erdos_renyi_graph(8, 0.5, seed=3)
    index = GraphIndex(graph)
    edges = index.edges
    plan = []
    for round_index in range(data.draw(st.integers(min_value=1, max_value=6))):
        for _ in range(data.draw(st.integers(min_value=0, max_value=5))):
            u, v = edges[
                data.draw(st.integers(min_value=0, max_value=len(edges) - 1))
            ]
            words = data.draw(st.integers(min_value=1, max_value=9))
            plan.append((Message(u, v, "t", 0), words, round_index))
    horizon = 600
    got, got_levels = _run_scheduler(plan, scenario, index, horizon)
    want, want_levels = _reference_delivery(plan, scenario, horizon)
    assert got == want
    for round_index in want_levels:
        assert got_levels.get(round_index, 0) == want_levels[round_index]


def _shuffled_string_graph() -> nx.Graph:
    """``erdos_renyi_graph(8, 0.5, seed=3)`` on string labels inserted in
    shuffled order, its edges inserted in shuffled order, plus a self-loop:
    the adjacency rows are not in id order."""
    rng = random.Random(4)
    base = nx.erdos_renyi_graph(8, 0.5, seed=3)
    names = [f"v{i}" for i in base]
    rng.shuffle(names)
    edges = [(names[u], names[w]) for u, w in base.edges]
    rng.shuffle(edges)
    graph = nx.Graph()
    graph.add_nodes_from(names)
    graph.add_edges_from(edges)
    graph.add_edge(names[0], names[0])
    return graph


def _run_batch_scheduler(plan, scenario, index, horizon):
    """:func:`_run_scheduler` on the array API: each message is one row,
    booked on its slot, whose value is its position in ``plan``."""
    scheduler = WordScheduler(index, scenario)
    ids = index.index
    by_round = defaultdict(list)
    for position, (message, words, enqueue_round) in enumerate(plan):
        by_round[enqueue_round].append(
            (ids[message.sender], ids[message.receiver], words, position)
        )
    delivered = {}
    levels = {}
    last = max(by_round, default=0)
    for round_index in range(horizon):
        if round_index in by_round:
            senders, receivers, words, values = np.array(by_round[round_index]).T
            scheduler.schedule_batch(
                senders, receivers, index.slots(senders, receivers), words, values,
                round_index,
            )
        _, _, values, level = scheduler.deliver_batch(round_index)
        levels[round_index] = level
        for position in values.tolist():
            delivered[id(plan[position][0])] = round_index
        if round_index > last and not scheduler.has_pending:
            break
    return delivered, levels


def test_slots_number_the_directed_edges_of_rows_out_of_id_order():
    graph = _shuffled_string_graph()
    index = GraphIndex(graph)
    nodes, ids = index.nodes, index.index
    rows = [[ids[w] for w in graph.adj[v]] for v in nodes]
    assert any(row != sorted(row) for row in rows)
    for slot, edge in enumerate(index.edges):
        assert edge == (nodes[index.senders[slot]], nodes[index.targets[slot]])
    # Every directed edge has one slot, the self-loop included, and the
    # lookup finds it from its ends.
    directed = [(u, w) for u in nodes for w in graph.adj[u]]
    assert len(index.edges) == len(directed) and (nodes[0], nodes[0]) in directed
    slots = index.slots(
        np.array([ids[u] for u, _ in directed]), np.array([ids[w] for _, w in directed])
    )
    assert sorted(slots.tolist()) == list(range(len(directed)))
    assert [index.edges[slot] for slot in slots.tolist()] == directed
    u, w = next(
        (u, w) for u in nodes for w in nodes if u != w and not graph.has_edge(u, w)
    )
    with pytest.raises(ValueError, match=f"{u!r} attempted to send to non-neighbour {w!r}"):
        index.slots(np.array([ids[u]]), np.array([ids[w]]))


@given(seed=seeds, data=st.data())
@settings(max_examples=30, deadline=None)
def test_schedulers_match_reference_on_rows_out_of_id_order(seed, data):
    """Both scheduler APIs on slot ids, over rows out of id order, meet the
    reference edge queues under link drops."""
    index = GraphIndex(_shuffled_string_graph())
    edges = index.edges
    plan = []
    for round_index in range(data.draw(st.integers(min_value=1, max_value=6))):
        for _ in range(data.draw(st.integers(min_value=0, max_value=5))):
            u, v = edges[data.draw(st.integers(min_value=0, max_value=len(edges) - 1))]
            words = data.draw(st.integers(min_value=1, max_value=9))
            plan.append((Message(u, v, "t", 0), words, round_index))
    horizon = 600
    scenario = LinkDropScenario(0.3, seed=seed)
    want, want_levels = _reference_delivery(plan, scenario, horizon)
    for run in (_run_scheduler, _run_batch_scheduler):
        got, got_levels = run(plan, scenario, index, horizon)
        assert got == want
        for round_index in want_levels:
            assert got_levels.get(round_index, 0) == want_levels[round_index]


def test_scheduler_window_cursor_keeps_far_starts_culled():
    """Regression: a batch mixing a deeply queued edge with idle edges.

    The deeply queued edge's new transfer waits behind 60 words while the
    idle edges start at once; no crossing before its turn may count toward
    its words (a windowed completion search once let them, and faulty runs
    completed *earlier* than clean ones).
    """
    graph = nx.path_graph(6)
    index = GraphIndex(graph)
    scenario = LinkDropScenario(0.1, seed=7)
    plan = []
    # Pile 60 words onto one edge in round 0, so later transfers on that
    # edge start around round ~66 while other edges are idle.
    for _ in range(10):
        plan.append((Message(0, 1, "t", 0), 6, 0))
    # Round 4: one more transfer on the hot edge plus fresh idle edges —
    # the mixed-start batch of the original failure.
    plan.append((Message(0, 1, "t", 0), 4, 4))
    plan.append((Message(2, 3, "t", 0), 4, 4))
    plan.append((Message(4, 5, "t", 0), 1, 4))
    got, got_levels = _run_scheduler(plan, scenario, index, 800)
    want, want_levels = _reference_delivery(plan, scenario, 800)
    assert got == want
    for round_index in want_levels:
        assert got_levels.get(round_index, 0) == want_levels[round_index]


@pytest.mark.parametrize("horizon", [2_000, 150])
@pytest.mark.parametrize(
    "scenario",
    [
        LinkDropScenario(0.1, seed=7),
        LinkDropScenario(0.6, seed=8),
        BurstyFaultScenario(0.5, 3, 8, seed=9),
        HeterogeneousBandwidthScenario((0.25,), seed=10),
        ComposedScenario.sequential(
            (LinkDropScenario(0.3, seed=11), 10),
            (BurstyFaultScenario(0.5, 3, 8, seed=12), 200),
            (LinkDropScenario(0.1, seed=13), None),
        ),
        TransmitsOnlyDrop(0.1, seed=14),
        TransmitsOnlyDrop(0.6, seed=15),
        TransmitsOnlyDrop(1.0, seed=16),
    ],
    ids=[
        "drop-0.1", "drop-0.6", "bursty", "hetero-0.25", "sequential",
        "transmits-only-0.1", "transmits-only-0.6", "transmits-only-1.0",
    ],
)
def test_scheduler_matches_reference_on_mixed_length_batches(scenario, horizon):
    """The batch shapes of the faulty listing cell: one long transfer among
    many short ones, then traffic queued behind the long one.

    Round 0 puts a 400-word transfer and 30 transfers of 1-3 words on
    distinct edges, so edges stay busy for very different spans; the
    sequential phases switch inside the 64-round buffers.  Round 3 queues
    words behind the long transfer and on idle edges.  At 150 rounds the run
    ends while the long transfer's edge still transmits.
    """
    graph = nx.path_graph(40)
    index = GraphIndex(graph)
    plan = [(Message(0, 1, "long", 0), 400, 0)]
    for i in range(1, 31):
        plan.append((Message(i, i + 1, "short", 0), 1 + i % 3, 0))
    plan.append((Message(0, 1, "behind", 0), 5, 3))
    plan.append((Message(2, 1, "idle", 0), 2, 3))
    for i in range(32, 36):
        plan.append((Message(i, i + 1, "idle", 0), i % 4 + 1, 3))
    got, got_levels = _run_scheduler(plan, scenario, index, horizon)
    want, want_levels = _reference_delivery(plan, scenario, horizon)
    assert got == want
    for round_index in want_levels:
        assert got_levels.get(round_index, 0) == want_levels[round_index]


def test_scheduler_store_keeps_only_transfers_in_flight():
    """A long faulty run recycles the ids of delivered transfers: over
    1,500 transfers pass through a store of 1,024, renumbered while a
    40-word transfer and the two queued behind it are in flight, and the
    schedule still meets the reference edge queues."""
    index = GraphIndex(nx.path_graph(12))
    scenario = LinkDropScenario(0.3, seed=5)
    plan = []
    for round_index in range(600):
        for i in range(0, 10, 2):
            if (round_index + i // 2) % 2 == 0:
                plan.append((Message(i, i + 1, "short", 0), 1, round_index))
        if round_index % 100 < 3:
            words = 40 if round_index % 100 == 0 else 1
            plan.append((Message(10, 11, "long", 0), words, round_index))
    scheduler = WordScheduler(index, scenario)
    got, got_levels = _run_scheduler(plan, scenario, index, 2_000, scheduler)
    want, want_levels = _reference_delivery(plan, scenario, 2_000)
    assert len(plan) > 1_024 and got == want
    for round_index in want_levels:
        assert got_levels.get(round_index, 0) == want_levels[round_index]
    assert scheduler._words.size == 1_024


def test_faulty_completion_never_precedes_clean():
    """Sanity: under any scenario a transfer completes no earlier than clean."""
    graph = nx.path_graph(4)
    index = GraphIndex(graph)
    plan = [(Message(0, 1, "blob", 0), 40, 0), (Message(2, 3, "blob", 0), 17, 2)]
    clean, _ = _run_scheduler(plan, CleanSynchronous(), index, 800)
    for scenario in [
        LinkDropScenario(0.4, seed=1),
        BurstyFaultScenario(0.5, 3, 8, seed=2),
        HeterogeneousBandwidthScenario((0.5, 0.25), seed=3),
        AdversarialDelayScenario(3, seed=4),
    ]:
        faulty, _ = _run_scheduler(plan, scenario, index, 800)
        for key, clean_round in clean.items():
            assert faulty[key] >= clean_round, scenario.describe()


def test_blocked_edge_parks_at_horizon_in_bulk_path():
    """A never-transmitting kernel scenario leaves transfers pending forever."""

    class Blackout(CleanSynchronous):
        is_clean = False

        def transmits(self, edge, round_index):
            return False

        def transmit_mask(self, edge_ids, first_round, num_rounds):
            return np.zeros((np.asarray(edge_ids).size, num_rounds), dtype=bool)

    graph = nx.path_graph(3)
    index = GraphIndex(graph)
    scheduler = WordScheduler(index, Blackout())
    scheduler.schedule_messages(
        [Message(0, 1, "t", 0), Message(0, 1, "t", 0)], [3, 2], 0
    )
    for round_index in range(50):
        messages, level = scheduler.deliver(round_index)
        assert not messages and level == 0
    assert scheduler.has_pending


# -- 3. composed round-trip through the spec JSON form -----------------------


@given(scenario=composed_scenarios(registered_only=True), data=st.data())
@settings(max_examples=25, deadline=None)
def test_composed_spec_params_round_trip(scenario, data):
    params = scenario.spec_params()
    rebuilt = build_composed(**params)
    scenario.bind_edges(EDGES)
    rebuilt.bind_edges(EDGES)
    ids = np.arange(len(EDGES), dtype=np.int64)
    first = data.draw(st.integers(min_value=0, max_value=200))
    assert (
        scenario.transmit_mask(ids, first, 40)
        == rebuilt.transmit_mask(ids, first, 40)
    ).all()
