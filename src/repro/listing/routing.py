"""Load-aware routing of edge-learning packets (step 2 of Lemma 34).

Each owner of a ``V_C^*`` leaf part learns the edges between its part's
ancestor parts.  A demanded edge reaches its owner as one packet, injected
by one of the edge's endpoints and relayed along a path inside the cluster's
working graph.  The paper delivers these packets with the deterministic
expander routing of [CS20] (Theorem 6), whose cost follows the load per
unit degree.  The executed protocol moves one word per round over each
directed edge, so its round count follows the words on its busiest edge.

:func:`route_by_load` keeps every packet on a shortest path from an
endpoint at minimum distance to its owner, so hop counts, messages and
words do not depend on the routing.  Two choices are left: which endpoint
injects when both are equally far, and which neighbour one step closer to
the owner forwards.  Both are made by the words already on each directed
edge, in two passes:

* **Batch pass.**  Packets are routed in demand order, in a few batches.
  In each batch the packets with one nearest endpoint go first, then each
  tie injects from the endpoint whose lightest first hop is lighter.
  Packets move one hop at a time, all of them at once: the packets that
  share an owner and a position take that position's candidate next hops
  in turn, lightest first.
* **Reroute.**  Repeatedly take the busiest directed edge and re-walk the
  packets on it, each at most once: greedily the lightest candidate at each
  hop, from either endpoint on a tie.  A new route is kept when its busiest
  edge stays below the current maximum.  The pass stops when the busiest
  edge cannot be relieved.  Packets without an alternative (no tie, one
  candidate at every hop) are never re-walked.

Loads are words, so a label that costs more than one word weighs more.
Every tie is broken by dense id, so routes depend only on the plan.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graphs.index import LabelCSR

# Demand-order batches of the batch pass.
_BATCHES = 2
# Candidate-table cells (roots x directed edges) built at once.
_TABLE_CELLS = 1 << 18


def route_by_load(
    index: LabelCSR,
    owners: np.ndarray,
    us: np.ndarray,
    ws: np.ndarray,
    words: np.ndarray,
    load: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Route one packet per demand ``(owners[i], us[i], ws[i])`` to its owner,
    which is not an endpoint of its edge.

    ``words[i]`` is packet ``i``'s size and ``load`` the words each directed
    edge of ``index`` (by CSR slot) carries without the packets.

    Returns:
        ``(slots, lengths)``: the CSR slots the routes cross, concatenated in
        demand order, and each route's number of slots (its distance).  Slot
        ``s`` leaves ``index.rows[s]`` for ``index.indices[s]``.

    Raises:
        ValueError: when neither endpoint of a demanded edge can reach its
            owner.
    """
    router = _Router(index, owners, us, ws, words, load)
    router.batch_pass()
    router.reroute()
    return router.slots()


class _Router:
    """Routes and loads while :func:`route_by_load` runs.

    Packet ``d``'s owner is ``roots[root[d]]``; it leaves ``source[d]`` and
    takes ``length[d]`` hops, the slots ``route[d, :length[d]]``.  Root
    ``r``'s candidate next hops at ``v`` (the slots ``v -> x`` with ``x``
    one hop closer to the root) are ``slot[lo[r, v]:hi[r, v]]``, in slot
    order.
    """

    def __init__(self, index, owners, us, ws, words, load):
        self.index, self.us, self.ws, self.words = index, us, ws, words
        self.load = load.astype(np.int64)
        self.roots, self.root = np.unique(owners, return_inverse=True)
        distances = index.distances(self.roots)
        du, dw = distances[self.root, us], distances[self.root, ws]
        lost = np.flatnonzero((du < 0) & (dw < 0))
        if lost.size:
            u, w, owner = (index.labels[ids[lost[0]]] for ids in (us, ws, owners))
            raise ValueError(
                f"edge ({u}, {w}) unreachable from owner {owner} in the "
                "cluster working graph"
            )
        du, dw = np.where(du < 0, dw + 1, du), np.where(dw < 0, du + 1, dw)
        self.tie = du == dw
        self.source = np.where(dw < du, ws, us)
        self.length = np.minimum(du, dw)
        self.route = np.full((len(owners), int(self.length.max())), -1, dtype=np.int64)
        # Whether a packet may take another route: its endpoints tie, or it
        # met more than one candidate on its batch route.
        self.movable = self.tie.copy()
        self._index_candidates(distances)

    def _index_candidates(self, distances: np.ndarray) -> None:
        """Build ``slot``, ``lo`` and ``hi`` from the roots' distances."""
        index = self.index
        slots, n = index.indices.size, index.n
        step = max(1, _TABLE_CELLS // slots)
        keys = []  # root * slots + slot of every candidate, increasing
        for first in range(0, len(self.roots), step):
            block = distances[first : first + step]
            down = block[:, index.indices] < np.repeat(block, index.degrees, axis=1)
            keys.append(np.flatnonzero(down) + first * slots)
        keys = np.concatenate(keys)
        self.slot = keys % slots
        counts = np.bincount(
            keys // slots * n + index.rows[self.slot], minlength=len(self.roots) * n
        )
        self.hi = np.cumsum(counts).reshape(-1, n)
        self.lo = self.hi - counts.reshape(-1, n)

    def _expand(self, roots: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, ...]:
        """The candidates of each ``(roots[i], at[i])`` laid end to end: their
        positions in ``slot``, and where and how many each pair has."""
        lo, count = self.lo[roots, at], self.hi[roots, at] - self.lo[roots, at]
        offsets = np.cumsum(count) - count
        spots = np.arange(int(count.sum())) + np.repeat(lo - offsets, count)
        return spots, offsets, count

    # -- batch pass -----------------------------------------------------------

    def batch_pass(self) -> None:
        """Give every packet a source and a route (the module's batch pass)."""
        for batch in np.array_split(np.arange(len(self.root)), _BATCHES):
            tied = self.tie[batch]
            self._route(batch[~tied])
            ties = batch[tied]
            if ties.size:
                lighter = self._lightest(ties, self.ws[ties]) < self._lightest(
                    ties, self.us[ties]
                )
                self.source[ties] = np.where(lighter, self.ws[ties], self.us[ties])
                self._route(ties)

    def _lightest(self, packets: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Per packet, the load of its lightest candidate at ``at``."""
        spots, offsets, _ = self._expand(self.root[packets], at)
        return np.minimum.reduceat(self.load[self.slot[spots]], offsets)

    def _route(self, packets: np.ndarray) -> None:
        """Move ``packets`` from their sources to their owners, all at once."""
        at = self.source[packets]
        for hop in range(self.route.shape[1]):
            live = self.length[packets] > hop
            packets, at = packets[live], at[live]
            if not packets.size:
                return
            chosen = self._spread(packets, at)
            self.route[packets, hop] = chosen
            self.load += np.bincount(
                chosen, weights=self.words[packets], minlength=self.load.size
            ).astype(np.int64)
            at = self.index.indices[chosen]

    def _spread(self, packets: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Next hops at ``at``: the packets of each (owner, position) group,
        in demand order, take its candidates by (load, slot) in turn."""
        roots = self.root[packets]
        lo, hi = self.lo[roots, at], self.hi[roots, at]
        chosen = self.slot[lo]
        many = np.flatnonzero(hi - lo > 1)
        if not many.size:
            return chosen
        self.movable[packets[many]] = True
        key = roots[many] * self.index.n + at[many]
        order = np.argsort(key, kind="stable")
        many, key = many[order], key[order]
        starts = np.diff(key, prepend=-1) != 0
        first = np.flatnonzero(starts)
        group = np.cumsum(starts) - 1
        rank = np.arange(many.size) - first[group]
        spots, offsets, count = self._expand(roots[many[first]], at[many[first]])
        candidates = self.slot[spots]
        owning_group = np.repeat(np.arange(first.size), count)
        lightest = np.lexsort((self.load[candidates], owning_group))
        chosen[many] = candidates[lightest[offsets[group] + rank % count[group]]]
        return chosen

    # -- reroute --------------------------------------------------------------

    def reroute(self) -> None:
        """Relieve the busiest edge while a re-walk can (the module's reroute)."""
        index, route, n = self.index, self.route, self.index.n
        load = self.load.tolist()
        target = index.indices.tolist()
        slot, lo, hi, source = self.slot, self.lo, self.hi, self.source
        root, words, length = self.root.item, self.words.item, self.length.item
        roots, tie, us, ws = self.roots.item, self.tie.item, self.us.item, self.ws.item
        # The movable packets on each slot, in demand order; ``cursor[e]`` is
        # the first one on ``e`` not yet walked.  (A slot's narrowest dtype
        # lets numpy sort by radix.)
        cells = np.flatnonzero((route >= 0) & self.movable[:, None])
        hops = route.ravel()[cells].astype(np.min_scalar_type(len(load)))
        order = np.argsort(hops, kind="stable")
        riders = cells[order] // route.shape[1]
        bounds = np.searchsorted(hops[order], np.arange(len(load) + 1))
        del cells, hops, order
        cursor, stop = bounds[:-1].tolist(), bounds[1:].tolist()
        walked = bytearray(len(self.root))
        # The busiest slot is on top of ``heap``: a slot enters it once it
        # may be the busiest (``ranked`` orders the slots by their load
        # before this pass, ``before``), and again whenever its load changes.
        ranked = np.argsort(-self.load, kind="stable").tolist()
        before, admitted, heap = load.copy(), 0, []
        candidates: dict[int, list[int]] = {}
        moves: dict[int, tuple[int, list[int]]] = {}
        weight, push = load.__getitem__, heapq.heappush

        def walk(base: int, owner: int, v: int, size: int) -> tuple[int, list[int]]:
            """The greedy route from ``v`` to ``owner`` (root ``base // n``):
            its busiest edge's load with the packet on it, and its slots."""
            path, busiest = [], 0
            while v != owner:
                options = candidates.get(base + v)
                if options is None:
                    r = base // n
                    options = candidates[base + v] = slot[lo[r, v] : hi[r, v]].tolist()
                hop = min(options, key=weight) if len(options) > 1 else options[0]
                if load[hop] > busiest:
                    busiest = load[hop]
                path.append(hop)
                v = target[hop]
            return busiest + size, path

        while True:
            while admitted < len(ranked) and (
                not heap or before[ranked[admitted]] >= -heap[0][0]
            ):
                e = ranked[admitted]
                push(heap, (-load[e], e))
                admitted += 1
            top, e = heap[0]
            if -top != load[e]:
                heapq.heappop(heap)
                continue
            hottest, at, end = -top, cursor[e], stop[e]
            while at < end and load[e] >= hottest:
                d = riders.item(at)
                at += 1
                if walked[d]:
                    continue
                walked[d] = 1
                size, r = words(d), root(d)
                owner, base = roots(r), r * n
                old = route[d].tolist()[: length(d)]
                for s in old:
                    load[s] -= size
                start = source.item(d)
                best, path = walk(base, owner, start, size)
                if tie(d):
                    other = us(d) + ws(d) - start
                    other_best, other_path = walk(base, owner, other, size)
                    if (other_best, other) < (best, start):
                        best, path, start = other_best, other_path, other
                if best < hottest:
                    moves[d] = (start, path)
                    for s in path:
                        load[s] += size
                        push(heap, (-load[s], s))
                    for s in old:
                        push(heap, (-load[s], s))
                else:
                    for s in old:
                        load[s] += size
            cursor[e] = at
            if load[e] >= hottest:
                break
        for d, (start, path) in moves.items():
            source[d] = start
            route[d, : len(path)] = path

    def slots(self) -> tuple[np.ndarray, np.ndarray]:
        """The routes' slots, concatenated, and their lengths."""
        width = self.route.shape[1]
        return self.route[np.arange(width) < self.length[:, None]], self.length
