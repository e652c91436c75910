"""Batch bandwidth-constrained delivery of the vectorized backend.

The reference simulator materialises every word fragment in a per-edge deque
and pops one per edge per round — faithful, but ``O(directed edges)`` of
Python work *every round*.  The :class:`WordScheduler` here computes, at
enqueue time, the exact round in which each message completes under the same
per-edge FIFO discipline, and then delivers whole rounds by popping a bucket:
``O(1)`` per transfer plus ``O(deliveries)`` per round, with the per-edge
occupancy kept in a numpy array.  Intermediate fragments never exist as
Python objects, yet the word accounting (one word per busy edge per round)
is reproduced exactly via a difference array over rounds.

A run numbers its vertices and directed edges once, as the rows and slots of
one :class:`GraphIndex`; occupancy, scenario kernels and vector sends share it.

Under a faulty :class:`~repro.engine.scenarios.DeliveryScenario` the
scheduler consumes the scenario's **batch transmit mask**
(:meth:`~repro.engine.scenarios.DeliveryScenario.transmit_mask`): every
edge of a batch scans its own window of per-round decisions, from its own
start round and sized from its own remaining words, and turns it into a
cumulative-transmission prefix sum — the round in which a transfer's
``k``-th word crosses is the position of the ``k``-th set bit at/after the
transfer's start.  Edges whose windows have similar lengths share one
rectangular mask query.  Every faulty scenario takes this path: the
built-ins answer the mask query with a numpy kernel, and a scenario that
only implements the scalar ``transmits`` answers it through the base
``transmit_mask``, one ``transmits`` call per cell.  Either way the
schedule agrees word-for-word with the edge-by-edge reference under the
same scenario.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from typing import Hashable, Sequence

import networkx as nx
import numpy as np

from repro.congest.message import Message, words_for_payload
from repro.engine.scenarios import CleanSynchronous, DeliveryScenario
from repro.graphs.index import LabelCSR, distinct_counts, sorted_distinct
from repro.obs.tracer import NULL_TRACER, Tracer

Edge = tuple[Hashable, Hashable]

# No edge group scans more than _WINDOW_CAP rounds of the transmit mask at
# once; windows of up to _SHARED_WINDOW rounds share one mask query, and no
# query spans more than _WINDOW_CELLS (edge, round) cells.
_WINDOW_CAP = 1 << 15
_SHARED_WINDOW = 64
_WINDOW_CELLS = 1 << 16


class GraphIndex:
    """A graph as compressed sparse rows: the engine's one numbering.

    Vertex ``i`` is ``nodes[i]``, in ``graph.nodes`` order (the order the
    reference simulator instantiates algorithms in), and row ``i`` lists its
    neighbours in increasing id.  A directed edge's id is its slot: slot
    ``s`` is ``senders[s] -> targets[s]``, and :meth:`slots` finds it by its
    key ``sender * n + receiver`` in the increasing ``slot_keys``.  Of a
    :class:`~repro.graphs.index.LabelCSR` these are the index's own arrays,
    uncopied.  A self-loop is one slot, as it is one queue in the reference
    simulator.

    Attributes:
        nodes / n / index: the vertices by id, their number, vertex -> id.
        degrees / indptr / targets / senders: the rows (a self-loop counts
            once in ``degrees``, as ``graph.neighbors`` lists it).
        has_edge: the adjacency test of per-vertex sends (``None`` on a
            ``LabelCSR``, whose index serves vector runs only).
    """

    def __init__(self, graph: nx.Graph | LabelCSR):
        csr = isinstance(graph, LabelCSR)
        self.nodes: list[Hashable] = list(graph.labels if csr else graph.nodes)
        n = self.n = len(self.nodes)
        if not n:
            raise ValueError("cannot build a CONGEST network over an empty graph")
        if csr:
            self.index, self.slot_keys = graph.id_of, graph.slot_keys
            self.degrees, self.indptr = graph.degrees, graph.indptr
            self.senders, self.targets = graph.rows, graph.indices
            # Per-vertex code on a LabelCSR runs on ``LabelCSR.graph``, so
            # this index serves vector runs only, which never call has_edge.
            self.has_edge = None
            return
        index = self.index = {v: i for i, v in enumerate(self.nodes)}
        # fromiter (C-driven loops): every run pays for this set-up.
        adjacency = graph.adj
        self.degrees = np.fromiter(
            (len(adjacency[v]) for v in self.nodes), dtype=np.int64, count=n
        )
        self.indptr = np.concatenate(([0], np.cumsum(self.degrees)))
        self.senders = np.repeat(np.arange(n, dtype=np.int64), self.degrees)
        neighbours = np.fromiter(
            (index[u] for v in self.nodes for u in adjacency[v]),
            dtype=np.int64,
            count=int(self.indptr[n]),
        )
        # Rows are already in id order, so sorting the keys sorts each row.
        self.slot_keys = np.sort(self.senders * n + neighbours)
        self.targets = self.slot_keys - self.senders * n
        self.has_edge = graph.has_edge

    def slots(self, senders: np.ndarray, receivers: np.ndarray) -> np.ndarray:
        """The slots of the directed edges ``senders[i] -> receivers[i]``
        (dense ids); raises ``ValueError`` naming the first non-edge."""
        keys = senders * np.int64(self.n) + receivers
        slots = np.searchsorted(self.slot_keys, keys)
        found = slots < self.slot_keys.size
        found[found] = self.slot_keys[slots[found]] == keys[found]
        if not found.all():
            bad = int(np.argmin(found))
            raise ValueError(
                f"vertex {self.nodes[int(senders[bad])]!r} attempted to send to "
                f"non-neighbour {self.nodes[int(receivers[bad])]!r}"
            )
        return slots

    @cached_property
    def edges(self) -> list[Edge]:
        """Directed edge tuples by slot, built when a faulty scenario binds."""
        nodes = self.nodes
        return [
            (nodes[u], nodes[v])
            for u, v in zip(self.senders.tolist(), self.targets.tolist())
        ]


class WordScheduler:
    """Schedules whole transfers; delivers completed messages per round.

    Per directed edge the scheduler keeps only the last occupied round
    (``edge_free_at``, a numpy int64 array).  A transfer of ``w`` words
    enqueued in round ``r`` on edge ``e`` starts at
    ``max(edge_free_at[e] + 1, r)`` and, under the clean scenario, completes
    ``w`` rounds later — exactly the FIFO head-of-line behaviour of the
    per-edge deques in the reference simulator.  Under a faulty scenario
    the completion round comes from prefix sums over the scenario's
    transmit mask, each edge scanning a window that starts at its own start
    round.

    The scheduler binds a faulty scenario to its index's directed edges
    (slot order) at construction, so a scenario instance schedules for one
    graph at a time (rebinding on the next run is automatic and cheap).
    """

    def __init__(
        self,
        index: GraphIndex,
        scenario: DeliveryScenario | None,
        horizon: int,
        tracer: Tracer = NULL_TRACER,
    ):
        self.index = index
        self.has_edge = index.has_edge
        self.scenario = scenario if scenario is not None else CleanSynchronous()
        # Observability sink; the batch-enqueue paths emit one scheduler
        # event per round when (and only when) the tracer is enabled.
        self.tracer = tracer
        # Exclusive bound on executed rounds (the run's max_rounds): a
        # faulty scenario may block an edge forever, and the completion
        # search must never scan past the last round that can execute —
        # that is why the horizon is a required argument.
        self.horizon = horizon
        if not self.scenario.is_clean:
            self.scenario.bind_edges(index.edges)
        self.edge_free_at = np.full(index.targets.size, -1, dtype=np.int64)
        self._buckets: dict[int, list[Message]] = defaultdict(list)
        # Array-mode buckets (the vector layer): per completion round, a
        # list of int64[3, k] chunks whose rows are senders, receivers and
        # values.
        self._array_buckets: dict[int, list[np.ndarray]] = defaultdict(list)
        # Difference array over rounds: +1 when an edge starts carrying a
        # word in a round, -1 the round after it stops.  The running sum is
        # the number of words crossing the cut in each round.
        self._level_diff: dict[int, int] = defaultdict(int)
        self._level = 0
        self.pending_messages = 0

    # -- completion-round computation ----------------------------------------

    def _kernel_completions(
        self,
        edge_rows: np.ndarray,
        starts: np.ndarray,
        needed: np.ndarray,
        group_sizes: np.ndarray,
        query_k: np.ndarray,
    ) -> tuple[np.ndarray, int, int]:
        """Per-transfer completion rounds from transmit-mask prefix sums.

        Edge group ``g`` queues ``needed[g]`` words on edge ``edge_rows[g]``
        from round ``starts[g]``.  Its ``group_sizes[g]`` transfers are
        consecutive entries of ``query_k``, each the cumulative word count
        of the group's FIFO up to that transfer, so the transfer completes
        in the round its group's ``query_k``-th word crosses: the position
        of the ``k``-th set mask bit at/after the start.  Transfers the
        horizon cuts off resolve to ``horizon``: such a message never
        completes, so it is parked one round beyond the last executable
        round, stays pending (the reference simulator likewise keeps its
        queue non-empty forever) and occupies the edge for any traffic
        queued behind it.

        Every pending group scans its own window of the mask from its
        cursor (its start, then the end of its last window).  The first
        window covers the group's words plus a quarter plus 16 rounds; a
        later one is sized from the group's own transmit density, and
        doubles after a window without a transmit.  Groups whose window
        lengths agree within a factor of two share one rectangular mask
        query, and all windows of up to ``_SHARED_WINDOW`` rounds share
        one; a query spans at most ``_WINDOW_CELLS`` cells, so a long
        block of rows is queried in row chunks.  Within a query the per-row
        prefix sums answer every transfer whose word falls inside it via
        one batched ``searchsorted``, and the per-round histogram of the
        crossings the batch consumes (capped at each group's demand) feeds
        the word-level difference array without ever extracting individual
        crossings.

        Returns the completion rounds, the number of mask queries and the
        number of mask cells they evaluated.
        """
        horizon = self.horizon
        level_diff = self._level_diff
        done = np.full(query_k.size, horizon, dtype=np.int64)
        query_first = np.cumsum(group_sizes) - group_sizes
        counts = np.zeros(edge_rows.size, dtype=np.int64)
        cursor = starts.astype(np.int64, copy=True)
        # The pending groups and the lengths of their next windows; a group
        # that starts at or past the horizon never completes.
        pending = np.flatnonzero(cursor < horizon)
        length = (needed + needed // 4 + 16)[pending]
        windows = cells = 0
        while pending.size:
            room = np.minimum(horizon - cursor[pending], _WINDOW_CAP)
            length = np.minimum(length, room)
            # Length blocks: 0 for windows of up to _SHARED_WINDOW rounds,
            # then one block per doubling of the length.
            block = np.frexp((length - 1) // _SHARED_WINDOW)[1]
            unfinished, next_length = [], []
            queries = []
            for key in sorted_distinct(block).tolist():
                in_block = block == key
                width = int(length[in_block].max())
                # Row chunks of at most _WINDOW_CELLS cells bound the
                # mask and every per-cell temporary derived from it.
                step = max(1, _WINDOW_CELLS // width)
                rows = pending[in_block]
                queries += [(rows[i : i + step], width) for i in range(0, rows.size, step)]
            for rows, width in queries:
                first = cursor[rows]
                mask = self.scenario.transmit_mask(edge_rows[rows], first, width)
                windows += 1
                cells += rows.size * width
                limit = horizon - first
                if int(limit.min()) < width:
                    mask &= np.arange(width) < limit[:, None]
                prefix = np.cumsum(mask, axis=1, dtype=np.int32)  # <= _WINDOW_CAP
                before = counts[rows]
                found = prefix[:, -1]
                demand = needed[rows]
                left = demand - before - found
                # Word-level accounting: the crossings this batch consumes
                # are the set bits whose running total stays within the
                # group's demand; their per-round histogram updates the
                # difference array (+c at the round, -c one round later).
                if int(left.min()) >= 0:
                    # No group exceeds its demand: every set bit is consumed.
                    consumed = mask
                else:
                    consumed = mask & (prefix <= (demand - before)[:, None])
                lo = int(first.min())
                if int(first.max()) == lo:
                    histogram = consumed.sum(axis=0)
                else:
                    row, column = np.nonzero(consumed)
                    histogram = np.bincount(first[row] - lo + column)
                for offset in np.flatnonzero(histogram).tolist():
                    crossings = int(histogram[offset])
                    level_diff[lo + offset] += crossings
                    level_diff[lo + offset + 1] -= crossings
                # Resolve the transfers whose k-th crossing falls in this
                # window: the k-th set bit of row r is the first column whose
                # prefix reaches k, found by one searchsorted over the
                # row-offset flattened prefix (rows are kept monotonic by an
                # offset larger than any prefix value).
                sizes = group_sizes[rows]
                local = np.repeat(np.arange(rows.size), sizes)
                # Row r's transfers are the queries from query_first[r] on.
                shift = query_first[rows] - np.cumsum(sizes) + sizes
                queries = np.repeat(shift, sizes) + np.arange(local.size)
                k = query_k[queries] - before[local]
                inside = (k > 0) & (k <= found[local])
                if inside.any():
                    local = local[inside]
                    offsets = np.arange(rows.size) * (width + 1)
                    flat = (prefix + offsets[:, None]).ravel()
                    keys = k[inside] + local * (width + 1)
                    positions = np.searchsorted(flat, keys, side="left")
                    done[queries[inside]] = first[local] + positions - local * width
                counts[rows] = before + found
                cursor[rows] = first + width
                # A group whose window reached the horizon never completes.
                # Size each other unfinished group's next window from its own
                # transmit density in this one (+25% and 8 rounds of slack);
                # double it after a window without a transmit.
                more = (left > 0) & (first + width < horizon)
                unfinished.append(rows[more])
                by_density = left * width * 5 // (4 * np.maximum(found, 1)) + 8
                next_length.append(np.where(found > 0, by_density, 2 * width)[more])
            pending = np.concatenate(unfinished)
            length = np.concatenate(next_length)
        return done, windows, cells

    def _schedule_transfers(
        self, edge_ids: np.ndarray, words: np.ndarray, round_index: int
    ) -> np.ndarray:
        """Completion rounds (original array order) of a batch of transfers.

        Each row queues its words on its directed edge behind everything
        queued there before, rows of the same edge in array order (the
        reference simulator's per-edge FIFO), with occupancy
        (``edge_free_at``) and the word-level difference array updated.
        Two paths: clean (pure arithmetic) and kernel (prefix sums over the
        scenario's transmit mask).
        """
        count = int(edge_ids.size)
        windows = window_cells = 0
        # Group FIFO traffic per edge: a stable sort keeps each edge's
        # transfers in queue order.
        order = np.argsort(edge_ids, kind="stable")
        e = edge_ids[order]
        w = words[order]
        group_first = np.empty(count, dtype=bool)
        group_first[0] = True
        group_first[1:] = e[1:] != e[:-1]
        if self.scenario.is_clean:
            path = "clean"
            positions = np.arange(count)
            first_index = np.maximum.accumulate(
                np.where(group_first, positions, 0)
            )
            # Within an edge's FIFO group, transfer k starts right after
            # the cumulative words of transfers 0..k-1 queued before it.
            cumulative = np.cumsum(w)
            preceding = cumulative - w
            offset = preceding - preceding[first_index]
            base = np.maximum(self.edge_free_at[e] + 1, round_index)
            start = base[first_index] + offset
            done_sorted = start + w - 1
            group_last = np.empty(count, dtype=bool)
            group_last[-1] = True
            group_last[:-1] = group_first[1:]
            self.edge_free_at[e[group_last]] = done_sorted[group_last]
            for rounds, step in ((start, 1), (done_sorted + 1, -1)):
                values, counts = distinct_counts(rounds)
                for r, c in zip(values.tolist(), counts.tolist()):
                    self._level_diff[r] += step * c
        else:
            # Answer "in which round does this edge's k-th word cross?"
            # with one prefix-sum search over the transmit mask per batch.
            path = "kernel"
            first_pos = np.flatnonzero(group_first)
            group_sizes = np.diff(np.append(first_pos, count))
            u_edges = e[first_pos]
            cumulative = np.cumsum(w)
            group_base = cumulative[first_pos] - w[first_pos]
            cum_within = cumulative - np.repeat(group_base, group_sizes)
            last_pos = np.append(first_pos[1:], count) - 1
            totals = cum_within[last_pos]
            starts = np.maximum(self.edge_free_at[u_edges] + 1, round_index)
            done_sorted, windows, window_cells = self._kernel_completions(
                u_edges, starts, totals, group_sizes, cum_within
            )
            self.edge_free_at[u_edges] = done_sorted[last_pos]
        done = np.empty(count, dtype=np.int64)
        done[order] = done_sorted
        tracer = self.tracer
        if tracer.enabled:
            tracer.scheduler_batch(
                round_index,
                path=path,
                transfers=count,
                edges=int(group_first.sum()),
                deferred=int((done > round_index).sum()),
                windows=windows,
                window_cells=window_cells,
            )
        return done

    # -- enqueueing -----------------------------------------------------------

    def schedule(self, messages: list[Message], round_index: int) -> None:
        """Size one round's messages and bulk-enqueue them (the round driver's
        entry point; see :mod:`repro.engine.rounds`)."""
        # Broadcast-style senders share one payload object; size it once.
        cache: dict[int, tuple[object, int]] = {}
        words = [payload_words(message, self.index.n, cache) for message in messages]
        self.schedule_messages(messages, words, round_index)

    def schedule_messages(
        self,
        messages: Sequence[Message],
        words: Sequence[int],
        round_index: int,
    ) -> None:
        """Bulk-enqueue message objects (one round's outgoing traffic).

        Messages queue per directed edge in sequence order (the reference
        simulator's FIFO), with completion rounds computed for the whole
        batch at once by :meth:`_schedule_transfers`.
        """
        count = len(messages)
        if count == 0:
            return
        index = self.index
        ids = index.index
        edge_ids = index.slots(
            np.fromiter((ids[m.sender] for m in messages), dtype=np.int64, count=count),
            np.fromiter((ids[m.receiver] for m in messages), dtype=np.int64, count=count),
        )
        words_array = np.asarray(words, dtype=np.int64)
        done = self._schedule_transfers(edge_ids, words_array, round_index)
        buckets = self._buckets
        for message, when in zip(messages, done.tolist()):
            buckets[when].append(message)
        self.pending_messages += count

    def schedule_batch(
        self,
        senders: np.ndarray,
        receivers: np.ndarray,
        edge_ids: np.ndarray,
        words: np.ndarray,
        values: np.ndarray,
        round_index: int,
    ) -> None:
        """Bulk-enqueue transfers described by dense arrays (the vector layer).

        ``senders`` / ``receivers`` are dense vertex ids, ``edge_ids`` the
        slots of those directed edges in this scheduler's :class:`GraphIndex`,
        ``words`` the per-transfer word counts, and ``values`` the payload
        words handed back verbatim by :meth:`deliver_batch`.  Rows queue
        per directed edge in array order (the reference simulator's FIFO),
        with completion rounds from :meth:`_schedule_transfers`.

        Completed rounds must then be drained with :meth:`deliver_batch`;
        a scheduler instance uses either the message-object API or the
        array API for a whole run, never both.
        """
        count = int(edge_ids.size)
        if count == 0:
            return
        done = self._schedule_transfers(edge_ids, words, round_index)
        bucket_order = np.argsort(done, kind="stable")
        done_sorted = done[bucket_order]
        # One sorted copy of the batch; each completion round's chunk is a
        # column slice of it.
        columns = np.stack((senders, receivers, values))[:, bucket_order]
        boundaries = np.flatnonzero(
            np.r_[True, done_sorted[1:] != done_sorted[:-1]]
        ).tolist()
        boundaries.append(count)
        buckets = self._array_buckets
        for lo, hi in zip(boundaries, boundaries[1:]):
            buckets[int(done_sorted[lo])].append(columns[:, lo:hi])
        self.pending_messages += count

    # -- delivery -------------------------------------------------------------

    def deliver_batch(
        self, round_index: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Array form of :meth:`deliver`: (senders, receivers, values, words).

        Must be called once per executed round, in increasing round order,
        after that round's :meth:`schedule_batch` calls.
        """
        self._level += self._level_diff.pop(round_index, 0)
        chunks = self._array_buckets.pop(round_index, None)
        if not chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, self._level
        senders, receivers, values = (
            chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=1)
        )
        self.pending_messages -= int(senders.size)
        return senders, receivers, values, self._level

    def deliver(self, round_index: int) -> tuple[list[Message], int]:
        """Messages completing in ``round_index`` and words crossed in it.

        Must be called once per executed round, in increasing round order,
        after that round's :meth:`schedule_messages` calls.
        """
        self._level += self._level_diff.pop(round_index, 0)
        completed = self._buckets.pop(round_index, [])
        self.pending_messages -= len(completed)
        return completed, self._level

    @property
    def has_pending(self) -> bool:
        return self.pending_messages > 0


def payload_words(message: Message, n: int, cache: dict[int, tuple[object, int]]) -> int:
    """Word size of ``message``'s payload, memoised by payload identity.

    Broadcast-style algorithms send the *same* payload object over every
    incident edge; recomputing the recursive word measure per copy is the
    dominant cost of scheduling.  The cache keys by ``id`` and pins the
    payload object so the id cannot be recycled while cached; callers clear
    it once per round.
    """
    payload = message.payload
    key = id(payload)
    hit = cache.get(key)
    if hit is not None:
        return hit[1]
    # Flat scalar containers (the common case: adjacency lists, blobs of
    # identifiers) cost exactly 1 framing word + 1 word per element; skip
    # the per-element recursion of words_for_payload for those.
    if type(payload) in (tuple, list) and all(
        type(item) in (int, float, bool) for item in payload
    ):
        words = 1 + len(payload)
    else:
        words = words_for_payload(payload, n)
    cache[key] = (payload, words)
    return words
