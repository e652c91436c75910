"""Sharded backend: vertex-partitioned execution, in-process or forked.

Vertices are split into ``num_workers`` contiguous shards (in
``graph.nodes`` order); each shard is one
:class:`~repro.engine.rounds.ShardState`, the per-vertex compute step every
backend runs.  The parent runs the round driver (:mod:`repro.engine.rounds`)
on the :class:`~repro.engine.delivery.WordScheduler`.  Shards never consult
the scenario: each round token carries the vertices crashed that round.

The default, ``num_workers=1``, is one shard stepped in the parent process:
on every workload of this repository it beats forked workers (the README's
sharded table).  ``num_workers=k`` with ``k > 1`` forks one worker process
per shard, which pays off only when per-vertex compute dominates the pipe
traffic.

With forked workers one synchronous round is one barrier: the parent
broadcasts the round's deliveries and crashes to every worker, the workers
step their vertices concurrently, and the parent collects the outgoing
traffic.  The request/response pair over each worker's pipe *is* the
barrier — no worker can run ahead of the round the parent is driving.

Workers are started with the ``fork`` start method so that arbitrary vertex
factories (including classes defined in test modules or notebooks) need not
be picklable.  Per round, a forked shard and the parent exchange one
pickled columnar batch (:func:`_pack_messages`) each way over the shard's
pipe: the deliveries and crashes down, the outgoing traffic up.  With
``num_workers=1``, or where the start method is unavailable, the shards
run in-process with identical semantics — and **no serialisation layer at
all**: in-process shards exchange the very ``Message`` objects the parent
holds.
"""

from __future__ import annotations

import multiprocessing
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
from repro.obs.tracer import Tracer, resolve_tracer

_ROUND = "round"
_FINISH = "finish"

# An empty columnar batch (see _pack_messages); shared so quiet rounds cost
# one memoised pickle record per pipe crossing.
_EMPTY_BATCH = ((), (), (), ())


def _pack_messages(messages: list[Message]) -> tuple[tuple, ...]:
    """Columnar batch for one pipe crossing: four parallel tuples.

    How a forked shard's messages cross its pipe: one batch per worker per
    direction per round instead of a list of
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


def _shard_worker(conn, vertices, factory, graph) -> None:
    """Worker-process loop: step the shard once per parent request."""
    try:
        state = ShardState(vertices, factory, graph)
        conn.send(("ready", state.initial_active, state.initial_halted))
        while True:
            request = conn.recv()
            if request[0] == _ROUND:
                _, round_index, batch, crashes = request
                state.begin_round(round_index, _unpack_messages(batch), crashes)
                outgoing, active, newly_halted = state.collect_round()
                conn.send(("stepped", _pack_messages(outgoing), active, newly_halted))
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
        conn.close()


class _ProcessShard:
    """A forked worker process driven over a duplex pipe.

    Each round crosses the pipe as one request (the deliveries as a
    :func:`_pack_messages` batch plus the round's crashes) and one reply
    (the outgoing batch, the active count and the newly halted vertices).
    """

    def __init__(
        self, context, vertices, factory, graph: nx.Graph,
        tracer: Tracer, shard_id: int,
    ):
        self.vertices = vertices
        self.tracer = tracer
        self.shard_id = shard_id
        self._round = 0
        self._conn, child_conn = context.Pipe(duplex=True)
        self._process = context.Process(
            target=_shard_worker,
            args=(child_conn, vertices, factory, graph),
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        try:
            self.initial_active, self.initial_halted = self._expect("ready")
        except BaseException:
            # The caller never receives this shard, so it cannot close it.
            self.close()
            raise

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

    def begin_round(
        self, round_index: int, deliveries: list[Message], crashes: tuple
    ) -> None:
        """Send the round's deliveries, crashes and go token (no reply yet)."""
        self._round = round_index
        tracer = self.tracer
        if tracer.enabled:
            start = time.perf_counter()
        self._conn.send((_ROUND, round_index, _pack_messages(deliveries), crashes))
        if tracer.enabled:
            tracer.span_add("broadcast", time.perf_counter() - start, round_index)

    def collect_round(self) -> tuple[list[Message], int, list[Hashable]]:
        """Receive the round's (outgoing, active, newly_halted)."""
        tracer = self.tracer
        if tracer.enabled:
            wait_start = time.perf_counter()
        batch, active, newly_halted = self._expect("stepped")
        if tracer.enabled:
            # The recv blocks until the worker finishes the round: the wait
            # *is* the barrier, and its length is the straggler signal.
            tracer.barrier_wait(
                self._round, self.shard_id, time.perf_counter() - wait_start
            )
        return _unpack_messages(batch), active, newly_halted

    def finish(self) -> dict[Hashable, object]:
        self._conn.send((_FINISH,))
        (outputs,) = self._expect("outputs")
        self._process.join(timeout=5)
        return outputs

    def close(self) -> None:
        try:
            self._conn.close()
        finally:
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout=5)


@register_backend("sharded")
class ShardedBackend(Backend):
    """Per-vertex shards on the batch scheduler, optionally forked.

    ``num_workers`` (an ``int`` >= 1, default 1) is the shard count, capped
    by the vertex count.  One shard runs in the parent process.  With more
    than one and an available ``start_method``, every shard is a forked
    worker process that exchanges one pickled columnar batch each way per
    round with the parent; otherwise every shard runs in-process.
    """

    name = "sharded"

    def __init__(self, num_workers: int = 1, start_method: str = "fork"):
        # Spec parameters arrive as JSON: reject what would otherwise run
        # silently as one shard (0, -2, True) or fail mid-run (2.5, "2").
        if (
            not isinstance(num_workers, int)
            or isinstance(num_workers, bool)
            or num_workers < 1
        ):
            raise ValueError(
                f"num_workers must be an int >= 1; got {num_workers!r}"
            )
        self.num_workers = num_workers
        self.start_method = start_method

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
        workers = min(self.num_workers, n)
        use_processes = (
            workers > 1 and self.start_method in multiprocessing.get_all_start_methods()
        )
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
                        _ProcessShard(context, part, factory, graph, tracer, shard_id)
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
