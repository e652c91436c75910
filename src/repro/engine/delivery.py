"""Batch bandwidth-constrained delivery of the vectorized backend.

The reference simulator materialises every word fragment in a per-edge deque
and pops one per edge per round — faithful, but ``O(directed edges)`` of
Python work *every round*.  The :class:`WordScheduler` here keeps whole
transfers on arrays.  Under the clean scenario it computes, at enqueue time,
the exact round in which each message completes under the same per-edge
FIFO discipline, and then delivers whole rounds by popping a bucket:
``O(1)`` per transfer plus ``O(deliveries)`` per round, with the per-edge
occupancy kept in a numpy array.  Intermediate fragments never exist as
Python objects, yet the word accounting (one word per busy edge per round)
is reproduced exactly via a difference array over rounds.

A run numbers its vertices and directed edges once, as the rows and slots of
one :class:`GraphIndex`; occupancy, scenario kernels and vector sends share it.

Under a faulty :class:`~repro.engine.scenarios.DeliveryScenario` no
completion round is known at enqueue time, so the scheduler runs the
reference simulator's round on arrays: every directed edge is a FIFO of
transfers, and each round every busy edge reads one transmit decision, a
set bit taking one word off its head transfer.  The decisions come from the
scenario's **batch transmit mask**
(:meth:`~repro.engine.scenarios.DeliveryScenario.transmit_mask`), read 64
rounds per busy edge at a time into one 64-bit integer.  Every faulty
scenario takes this path: the built-ins answer the mask query with a numpy
kernel, and a scenario that only implements the scalar ``transmits``
answers it through the base ``transmit_mask``, one ``transmits`` call per
cell.  Either way the schedule agrees word-for-word with the edge-by-edge
reference under the same scenario.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from typing import Hashable, Sequence

import networkx as nx
import numpy as np

from repro.congest.message import Message, words_for_payload
from repro.engine.scenarios import CleanSynchronous, DeliveryScenario
from repro.graphs.index import LabelCSR, distinct_counts
from repro.obs.tracer import NULL_TRACER, Tracer

Edge = tuple[Hashable, Hashable]

# A faulty run reads each busy edge's transmit decisions _BUFFER_ROUNDS
# rounds at a time, as the bits of one int64; one refill query spans at
# most _WINDOW_CELLS (edge, round) cells.
_BUFFER_ROUNDS = 64
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

    Under the clean scenario the scheduler keeps per directed edge only the
    last occupied round (``edge_free_at``, a numpy int64 array).  A transfer
    of ``w`` words enqueued in round ``r`` on edge ``e`` starts at
    ``max(edge_free_at[e] + 1, r)`` and completes ``w`` rounds later —
    exactly the FIFO head-of-line behaviour of the per-edge deques in the
    reference simulator.

    Under a faulty scenario each directed edge is a FIFO of transfers, and
    each delivery advances every busy edge by its transmit decision of the
    round (:meth:`_advance`).  Transfers get ids in enqueue order;
    ``_next``, ``_words`` and ``_payload`` hold those in flight (a
    delivered one has ``_words`` 0, and :meth:`_compact` drops those, in id
    order, when the store would grow), and ``_tail`` is each edge's last
    transfer (-1 while it idles).  ``_busy`` is five arrays aligned with
    the busy edges, so a round needs no gather per edge: the slot, its head
    transfer, the words the head has left, and the start round and bits of
    the edge's buffer of transmit decisions.  An idle edge keeps its buffer
    in ``_idle_start`` and ``_idle_bits``.

    The scheduler binds a faulty scenario to its index's directed edges
    (slot order) at construction, so a scenario instance schedules for one
    graph at a time (rebinding on the next run is automatic and cheap).
    """

    def __init__(
        self,
        index: GraphIndex,
        scenario: DeliveryScenario | None,
        tracer: Tracer = NULL_TRACER,
    ):
        self.index = index
        self.has_edge = index.has_edge
        self.scenario = scenario if scenario is not None else CleanSynchronous()
        # Observability sink; when (and only when) the tracer is enabled
        # the clean path emits one scheduler event per batch, the faulty
        # path one per round.
        self.tracer = tracer
        self.pending_messages = 0
        slots = index.targets.size
        self._faulty = not self.scenario.is_clean
        if self._faulty:
            self.scenario.bind_edges(index.edges)
            self._tail = np.full(slots, -1, dtype=np.int64)
            # A buffer that starts _BUFFER_ROUNDS before round 0 is used up.
            self._idle_start = np.full(slots, -_BUFFER_ROUNDS, dtype=np.int64)
            self._idle_bits = np.zeros(slots, dtype=np.int64)
            # Transfers in the store, and this round's with their edges.
            self._count = self._sent = self._sent_edges = 0
            self._next, self._words = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            self._payload: np.ndarray | None = None
            self._busy = [np.empty(0, dtype=np.int64) for _ in range(5)]
            return
        self.edge_free_at = np.full(slots, -1, dtype=np.int64)
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

    # -- the clean path: completion rounds by arithmetic ----------------------

    def _schedule_transfers(
        self, edge_ids: np.ndarray, words: np.ndarray, round_index: int
    ) -> np.ndarray:
        """Completion rounds (original array order) of a batch of clean
        transfers.

        Each row queues its words on its directed edge behind everything
        queued there before, rows of the same edge in array order (the
        reference simulator's per-edge FIFO), with occupancy
        (``edge_free_at``) and the word-level difference array updated.
        """
        count = int(edge_ids.size)
        # Group FIFO traffic per edge: a stable sort keeps each edge's
        # transfers in queue order.
        order = np.argsort(edge_ids, kind="stable")
        e = edge_ids[order]
        w = words[order]
        group_first = np.empty(count, dtype=bool)
        group_first[0] = True
        group_first[1:] = e[1:] != e[:-1]
        positions = np.arange(count)
        first_index = np.maximum.accumulate(np.where(group_first, positions, 0))
        # Within an edge's FIFO group, transfer k starts right after the
        # cumulative words of transfers 0..k-1 queued before it.
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
        done = np.empty(count, dtype=np.int64)
        done[order] = done_sorted
        tracer = self.tracer
        if tracer.enabled:
            tracer.scheduler_batch(
                round_index,
                path="clean",
                transfers=count,
                edges=int(group_first.sum()),
                deferred=int((done > round_index).sum()),
            )
        return done

    # -- the faulty path: per-edge FIFOs advanced round by round ---------------

    def _enqueue(self, edge_ids: np.ndarray, words: np.ndarray, payload: np.ndarray) -> None:
        """Append transfers (one ``payload`` column each) to their edges'
        FIFOs, rows of one edge in array order."""
        count = int(edge_ids.size)
        if self._payload is None:
            self._payload = np.empty((payload.shape[0], 0), dtype=payload.dtype)
        if self._count + count > self._words.size:
            self._compact(count)
        first_id = self._count
        self._count += count
        self._words[first_id : self._count] = words
        self._payload[:, first_id : self._count] = payload
        order = np.argsort(edge_ids, kind="stable")
        slots, ids = edge_ids[order], order + first_id
        ends = np.flatnonzero(slots[1:] != slots[:-1])
        firsts, lasts = np.concatenate(([0], ends + 1)), np.concatenate((ends, [count - 1]))
        # Each transfer links to the next on its edge; an edge's first new
        # transfer joins its old tail, if it has one.
        self._next[ids[:-1]] = ids[1:]
        self._next[ids[lasts]] = -1
        slots, heads = slots[firsts], ids[firsts]
        tails = self._tail[slots]
        queued = tails >= 0
        self._next[tails[queued]] = heads[queued]
        self._tail[slots] = ids[lasts]
        slots, heads = slots[~queued], heads[~queued]
        joined = (slots, heads, self._words[heads], self._idle_start[slots], self._idle_bits[slots])
        self._busy = [np.concatenate(pair) for pair in zip(self._busy, joined)]
        self._sent += count
        self._sent_edges += int(firsts.size)

    def _advance(self, round_index: int) -> tuple[np.ndarray, int]:
        """One round: each busy edge reads its transmit bit, a set bit takes
        one word off its head, and finished heads give way to their
        successors.  Returns the finished transfer ids, in id order, and
        the words crossed.

        An edge whose 64-round buffer is used up refills it from one
        ``transmit_mask`` query per ``_WINDOW_CELLS`` cells.  Traced, the
        round emits its ``scheduler`` event (``deferred``: sent this round
        and not delivered in it; ``windows`` and ``window_cells``: the
        refill queries and the cells they read) and, as the reference
        simulator does, its ``blocked`` busy edges.
        """
        slot, head, left, start, bits = self._busy
        offset = round_index - start
        stale = np.flatnonzero(offset >= _BUFFER_ROUNDS)
        rows_per_query = _WINDOW_CELLS // _BUFFER_ROUNDS
        for lo in range(0, stale.size, rows_per_query):
            rows = stale[lo : lo + rows_per_query]
            mask = self.scenario.transmit_mask(slot[rows], round_index, _BUFFER_ROUNDS)
            # Bit j of a buffer is the edge's decision in round start + j.
            bits[rows] = np.packbits(mask, axis=1, bitorder="little").view("<i8")[:, 0]
        start[stale] = round_index
        offset[stale] = 0
        sent = (bits >> offset) & 1
        left -= sent
        done = np.flatnonzero(left == 0)
        finished = head[done]
        if done.size:
            successors = self._next[finished]
            self._words[finished] = 0
            more = successors >= 0
            moving, successors = done[more], successors[more]
            head[moving] = successors
            left[moving] = self._words[successors]
            if moving.size < done.size:
                idle = done[~more]
                slots = slot[idle]
                self._tail[slots] = -1
                self._idle_start[slots] = start[idle]
                self._idle_bits[slots] = bits[idle]
                keep = np.ones(slot.size, dtype=bool)
                keep[idle] = False
                self._busy = [column[keep] for column in self._busy]
            finished.sort()
        crossed = int(np.count_nonzero(sent))
        self.pending_messages -= int(finished.size)
        tracer = self.tracer
        if tracer.enabled:
            # This round's transfers hold the last ``_sent`` ids.
            prompt = int(np.count_nonzero(finished >= self._count - self._sent))
            tracer.scheduler_batch(
                round_index,
                path="kernel",
                transfers=self._sent,
                edges=self._sent_edges,
                deferred=self._sent - prompt,
                windows=-(-int(stale.size) // rows_per_query),
                window_cells=int(stale.size) * _BUFFER_ROUNDS,
            )
            if slot.size > crossed:
                tracer.edges_blocked(round_index, slot.size - crossed)
        self._sent = self._sent_edges = 0
        return finished, crossed

    def _compact(self, incoming: int) -> None:
        """Renumber the transfers in flight ``0, 1, ...`` in id order, in a
        store with room for twice them and ``incoming`` more."""
        live = np.flatnonzero(self._words[: self._count])
        renumber = np.full(self._count + 1, -1, dtype=np.int64)  # [-1] stays -1
        renumber[live] = np.arange(live.size)
        size = max(2 * (live.size + incoming), 1024)

        def store(values: np.ndarray) -> np.ndarray:
            column = np.empty(values.shape[:-1] + (size,), dtype=values.dtype)
            column[..., : live.size] = values
            return column

        self._next = store(renumber[self._next[live]])
        self._words = store(self._words[live])
        self._payload = store(self._payload[:, live])
        self._tail = renumber[self._tail]
        head = self._busy[1]
        head[:] = renumber[head]
        self._count = int(live.size)

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
        simulator's FIFO): clean completion rounds for the whole batch come
        from :meth:`_schedule_transfers`, faulty transfers join their edges'
        FIFOs.
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
        self.pending_messages += count
        if self._faulty:
            column = np.empty((1, count), dtype=object)
            column[0] = messages
            self._enqueue(edge_ids, words_array, column)
            return
        done = self._schedule_transfers(edge_ids, words_array, round_index)
        buckets = self._buckets
        for message, when in zip(messages, done.tolist()):
            buckets[when].append(message)

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
        per directed edge in array order (the reference simulator's FIFO).

        Completed rounds must then be drained with :meth:`deliver_batch`;
        a scheduler instance uses either the message-object API or the
        array API for a whole run, never both.
        """
        count = int(edge_ids.size)
        if count == 0:
            return
        self.pending_messages += count
        if self._faulty:
            self._enqueue(edge_ids, words, np.stack((senders, receivers, values)))
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

    # -- delivery -------------------------------------------------------------

    def deliver_batch(
        self, round_index: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Array form of :meth:`deliver`: (senders, receivers, values, words).

        Must be called once per executed round, in increasing round order,
        after that round's :meth:`schedule_batch` calls.
        """
        empty = np.empty(0, dtype=np.int64)
        if self._faulty:
            finished, crossed = self._advance(round_index)
            if not finished.size:
                return empty, empty, empty, crossed
            senders, receivers, values = self._payload[:, finished]
            return senders, receivers, values, crossed
        self._level += self._level_diff.pop(round_index, 0)
        chunks = self._array_buckets.pop(round_index, None)
        if not chunks:
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
        if self._faulty:
            finished, crossed = self._advance(round_index)
            return self._payload[0, finished].tolist() if finished.size else [], crossed
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
