"""Sharded backend: vertex-partitioned execution across worker processes.

Vertices are split into contiguous shards (in ``graph.nodes`` order); each
shard is one :class:`~repro.engine.rounds.ShardState`, the per-vertex
compute step every backend runs, stepped in a forked worker process.  The
parent runs the round driver (:mod:`repro.engine.rounds`) on the
:class:`~repro.engine.delivery.WordScheduler`.  Shards never consult the
scenario: each round token carries the vertices crashed that round.

One synchronous round is one barrier: the parent broadcasts the round's
deliveries and crashes to every worker, the workers step their vertices
concurrently, and the parent collects the outgoing traffic.  The
request/response pair over each worker's pipe *is* the barrier — no worker
can run ahead of the round the parent is driving.

Workers are started with the ``fork`` start method so that arbitrary vertex
factories (including classes defined in test modules or notebooks) need not
be picklable.  Message traffic crosses process boundaries through
**shared-memory columnar blocks** (:mod:`repro.engine.shm`): five dense
``int64`` columns plus a payload arena per direction per worker, with the
pipe reduced to a tiny per-round control token.  A round that overflows its
block falls back to the pickled columnar batch (:func:`_pack_messages`) for
that round while the parent provisions a doubled replacement, and
``ShardedBackend(transport="pipe")`` selects the pickling transport
outright.  Where ``fork`` is unavailable (or for ``num_workers=1``) the
shards run in-process with identical semantics — and **no serialisation
layer at all**: in-process shards exchange the very ``Message`` objects the
parent holds.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from typing import Hashable

import networkx as nx

from repro.congest.message import Message
from repro.congest.metrics import CongestMetrics
from repro.congest.network import SynchronousRun
from repro.engine.backend import Backend, VertexFactory
from repro.engine.delivery import GraphIndex, WordScheduler
from repro.engine.registry import register_backend
from repro.engine.rounds import ShardState, ShardStep, run_rounds
from repro.engine.scenarios import DeliveryScenario, link_projection, resolve_scenario
from repro.engine.shm import (
    ColumnBlock,
    ColumnReader,
    ColumnWriter,
    shared_memory_available,
)
from repro.obs.tracer import Tracer, resolve_tracer

_ROUND = "round"
_FINISH = "finish"

# An empty columnar batch (see _pack_messages); shared so quiet rounds cost
# one memoised pickle record per pipe crossing.
_EMPTY_BATCH = ((), (), (), ())


def _pack_messages(messages: list[Message]) -> tuple[tuple, ...]:
    """Columnar batch for one pipe crossing: four parallel tuples.

    The pipe-fallback transport (and the ``transport="pipe"`` mode): one
    batched payload per worker per round instead of a list of
    :class:`Message` dataclass instances — pickling ``N`` instances spends
    per-object class/state records and a reconstruction call each, while
    four flat tuples cost one container record apiece and let pickle's
    memo share the repeated senders, tags, and (for broadcast-style
    workloads) identical payload objects across the whole round.
    :func:`_unpack_messages` rebuilds equal ``Message`` objects on the
    receiving side, so shard code above this layer never sees the batching.
    """
    if not messages:
        return _EMPTY_BATCH
    return (
        tuple(m.sender for m in messages),
        tuple(m.receiver for m in messages),
        tuple(m.tag for m in messages),
        tuple(m.payload for m in messages),
    )


def _unpack_messages(batch: tuple[tuple, ...]) -> list[Message]:
    """Inverse of :func:`_pack_messages`."""
    senders, receivers, tags, payloads = batch
    return [
        Message(sender, receiver, tag, payload)
        for sender, receiver, tag, payload in zip(senders, receivers, tags, payloads)
    ]


def _shard_worker(conn, vertices, factory, graph, channel) -> None:
    """Worker-process loop: step the shard once per parent request.

    ``channel`` is ``None`` for the pipe transport, or ``(down_block,
    up_block, nodes, vertex_index)`` — the fork-inherited shared-memory
    blocks plus the dense-id tables needed to decode deliveries and encode
    outgoing traffic.  Replacement blocks (after overflow resizes) arrive
    as descriptors in the round token and are attached by name.
    """
    down_reader = up_writer = None
    try:
        state = ShardState(vertices, factory, graph)
        if channel is not None:
            down_block, up_block, nodes, vertex_index = channel
            # The fork-inherited objects carry the parent's owner flag;
            # only the parent unlinks, so disown them on this side.
            down_block.owner = False
            up_block.owner = False
            down_reader = ColumnReader(down_block, nodes)
            up_writer = ColumnWriter(up_block, vertex_index)
        conn.send(("ready", state.initial_active, state.initial_halted))
        while True:
            request = conn.recv()
            if request[0] == _ROUND:
                _, round_index, part, new_down, new_up, crashes = request
                if new_down is not None:
                    down_reader.adopt(ColumnBlock.attach(new_down))
                if new_up is not None:
                    up_writer.adopt(ColumnBlock.attach(new_up))
                if part[0] == "shm":
                    down_reader.learn(part[2])
                    deliveries = down_reader.decode(part[1])
                else:
                    deliveries = _unpack_messages(part[1])
                state.begin_round(round_index, deliveries, crashes)
                outgoing, active, newly_halted = state.collect_round()
                if up_writer is not None:
                    encoded = up_writer.encode(outgoing)
                    if encoded is not None:
                        rows, _, new_tags = encoded
                        reply_part = ("shm", rows, new_tags)
                    else:
                        # Overflow: ship this round over the pipe and tell
                        # the parent how many rows a replacement needs.
                        reply_part = (
                            "pipe", _pack_messages(outgoing), len(outgoing)
                        )
                else:
                    reply_part = ("pipe", _pack_messages(outgoing), None)
                conn.send(("stepped", reply_part, active, newly_halted))
            elif request[0] == _FINISH:
                conn.send(("outputs", state.finish()))
                return
    except (KeyboardInterrupt, SystemExit):
        # Control flow must terminate the worker, not turn into an error
        # message: the parent detects the death via EOF on the pipe.
        raise
    except Exception as exc:  # surface worker failures to the parent
        try:
            conn.send(("error", exc))
        except (OSError, ValueError, pickle.PicklingError):
            # Parent pipe gone or exception unpicklable; dying is fine —
            # the parent reports EOF as an unexpected worker death.
            pass
    finally:
        if down_reader is not None:
            down_reader.block.close()
        if up_writer is not None:
            up_writer.block.close()
        conn.close()


class _ProcessShard:
    """A forked worker process driven over a duplex pipe.

    With ``transport="shm"`` the per-round message traffic crosses through
    a pair of parent-owned shared-memory column blocks (one per direction)
    and the pipe carries only control tokens; ``transport="pipe"`` keeps
    everything on the pickled columnar batches.
    """

    def __init__(
        self, context, vertices, factory, graph: nx.Graph, index: GraphIndex,
        transport: str, tracer: Tracer, shard_id: int,
    ):
        self.vertices = vertices
        self.transport = transport
        self.tracer = tracer
        self.shard_id = shard_id
        self._round = 0
        self._down_writer: ColumnWriter | None = None
        self._up_reader: ColumnReader | None = None
        self._up_rows_needed = 0
        channel = None
        if self.transport == "shm":
            down_block = ColumnBlock()
            up_block = ColumnBlock()
            self._down_writer = ColumnWriter(down_block, index.index)
            self._up_reader = ColumnReader(up_block, index.nodes)
            channel = (down_block, up_block, index.nodes, index.index)
        self._conn, child_conn = context.Pipe(duplex=True)
        self._process = context.Process(
            target=_shard_worker,
            args=(child_conn, vertices, factory, graph, channel),
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        self.initial_active, self.initial_halted = self._expect("ready")

    def _expect(self, kind: str):
        try:
            reply = self._conn.recv()
        except EOFError:
            raise RuntimeError(
                f"shard worker for vertices {self.vertices[:3]}... died unexpectedly"
            ) from None
        if reply[0] == "error":
            raise reply[1]
        if reply[0] != kind:
            raise RuntimeError(f"unexpected shard reply {reply[0]!r}")
        return reply[1:]

    def _replace_up_block(self) -> tuple[str, int, int]:
        """Provision a doubled worker->parent block after an overflow."""
        old = self._up_reader.block
        rows = max(old.rows_capacity * 2, self._up_rows_needed * 2)
        replacement = ColumnBlock(rows, old.arena_capacity * 2)
        self._up_reader.adopt(replacement)
        old.unlink()
        return replacement.descriptor()

    def begin_round(
        self, round_index: int, deliveries: list[Message], crashes: tuple
    ) -> None:
        """Publish the round's deliveries, crashes and go token (no reply yet)."""
        self._round = round_index
        tracer = self.tracer
        if tracer.enabled:
            start = time.perf_counter()
        if self.transport != "shm":
            part = ("pipe", _pack_messages(deliveries))
            new_down = new_up = None
        else:
            new_up = self._replace_up_block() if self._up_rows_needed else None
            self._up_rows_needed = 0
            new_down = None
            encoded = self._down_writer.encode(deliveries)
            while encoded is None:
                # Overflow: the parent owns both sides of the resize, so it
                # simply doubles until the round fits and announces the
                # replacement in the same token.
                if tracer.enabled:
                    tracer.shm_overflow(
                        round_index, self.shard_id, "down", action="resize"
                    )
                old = self._down_writer.block
                replacement = ColumnBlock(
                    max(old.rows_capacity * 2, 2 * len(deliveries)),
                    old.arena_capacity * 2,
                )
                self._down_writer.adopt(replacement)
                old.unlink()
                new_down = replacement.descriptor()
                encoded = self._down_writer.encode(deliveries)
            rows, arena_bytes, new_tags = encoded
            if tracer.enabled:
                block = self._down_writer.block
                tracer.shm_block(
                    round_index, self.shard_id, "down",
                    rows=rows,
                    rows_capacity=block.rows_capacity,
                    arena_bytes=arena_bytes,
                    arena_capacity=block.arena_capacity,
                )
            part = ("shm", rows, new_tags)
        self._conn.send((_ROUND, round_index, part, new_down, new_up, crashes))
        if tracer.enabled:
            tracer.span_add("broadcast", time.perf_counter() - start, round_index)

    def collect_round(self) -> tuple[list[Message], int, list[Hashable]]:
        """Receive the round's (outgoing, active, newly_halted)."""
        tracer = self.tracer
        if tracer.enabled:
            wait_start = time.perf_counter()
        part, active, newly_halted = self._expect("stepped")
        if tracer.enabled:
            # The recv blocks until the worker finishes the round: the wait
            # *is* the barrier, and its length is the straggler signal.
            tracer.barrier_wait(
                self._round, self.shard_id, time.perf_counter() - wait_start
            )
        if part[0] == "shm":
            self._up_reader.learn(part[2])
            messages = self._up_reader.decode(part[1])
            if tracer.enabled:
                block = self._up_reader.block
                tracer.shm_block(
                    self._round, self.shard_id, "up",
                    rows=part[1],
                    rows_capacity=block.rows_capacity,
                    arena_capacity=block.arena_capacity,
                )
        else:
            messages = _unpack_messages(part[1])
            if self.transport == "shm" and part[2] is not None:
                # The worker's block overflowed this round; remember the
                # demand so the next begin_round provisions a replacement.
                self._up_rows_needed = max(part[2], 1)
                if tracer.enabled:
                    tracer.shm_overflow(
                        self._round, self.shard_id, "up",
                        action="pipe-fallback",
                    )
        return messages, active, newly_halted

    def finish(self) -> dict[Hashable, object]:
        self._conn.send((_FINISH,))
        (outputs,) = self._expect("outputs")
        self._process.join(timeout=5)
        return outputs

    def close(self) -> None:
        try:
            self._conn.close()
        finally:
            try:
                if self._process.is_alive():
                    self._process.terminate()
                    self._process.join(timeout=5)
            finally:
                for holder in (self._down_writer, self._up_reader):
                    if holder is not None:
                        block = holder.block
                        block.close()
                        block.unlink()


@register_backend("sharded")
class ShardedBackend(Backend):
    """Multi-core backend: per-shard workers, per-round barrier sync.

    ``transport`` selects how message traffic crosses process boundaries:
    ``"shm"`` (default) uses the shared-memory columnar blocks of
    :mod:`repro.engine.shm` with the pipes reduced to control tokens,
    ``"pipe"`` uses the PR 4 pickled columnar batches.  Hosts without
    working POSIX shared memory fall back to ``"pipe"`` automatically.
    """

    name = "sharded"

    def __init__(
        self,
        num_workers: int | None = None,
        start_method: str = "fork",
        transport: str = "shm",
    ):
        if transport not in ("shm", "pipe"):
            raise ValueError(
                f"transport must be 'shm' or 'pipe'; got {transport!r}"
            )
        self.num_workers = num_workers
        self.start_method = start_method
        self.transport = transport

    def _resolve_workers(self, n: int) -> int:
        workers = self.num_workers
        if workers is None:
            # The cores this process may actually run on: cgroup/taskset
            # affinity masks, not the host's total core count — so a
            # container pinned to 2 of 64 cores forks 2 workers, and an
            # unrestricted 8-core host genuinely shards 8 ways.
            try:
                workers = len(os.sched_getaffinity(0))
            except (AttributeError, OSError):  # pragma: no cover - non-Linux
                workers = os.cpu_count() or 1
        return max(1, min(workers, n))

    def run(
        self,
        graph: nx.Graph,
        factory: VertexFactory,
        *,
        max_rounds: int = 10_000,
        phase: str = "simulated",
        metrics: CongestMetrics | None = None,
        scenario: DeliveryScenario | None = None,
        tracer: Tracer | None = None,
    ) -> SynchronousRun:
        factory = self.resolve_factory(factory)
        index = GraphIndex(graph)
        n = index.n
        tracer = resolve_tracer(tracer)
        scenario = resolve_scenario(scenario)
        workers = self._resolve_workers(n)
        use_processes = (
            workers > 1 and self.start_method in multiprocessing.get_all_start_methods()
        )
        transport = self.transport
        if use_processes and transport == "shm" and (
            self.start_method != "fork" or not shared_memory_available()
        ):
            # The shm blocks rely on fork inheritance (and on fork's shared
            # resource tracker for replacement-block attachment).
            transport = "pipe"
        # Contiguous blocks in graph.nodes order: concatenating shard
        # responses in shard order reproduces the reference simulator's
        # global vertex iteration order.
        block = (n + workers - 1) // workers
        partitions = [index.nodes[i : i + block] for i in range(0, n, block)]

        shards: list = []
        try:
            if use_processes:
                context = multiprocessing.get_context(self.start_method)
                for shard_id, part in enumerate(partitions):
                    shards.append(
                        _ProcessShard(
                            context, part, factory, graph, index,
                            transport, tracer, shard_id,
                        )
                    )
            else:
                shards = [ShardState(part, factory, graph) for part in partitions]
            return run_rounds(
                ShardStep(shards),
                WordScheduler(
                    index, link_projection(scenario), horizon=max_rounds, tracer=tracer
                ),
                scenario,
                index.nodes,
                max_rounds=max_rounds,
                phase=phase,
                metrics=metrics,
                tracer=tracer,
            )
        finally:
            for shard in shards:
                shard.close()
