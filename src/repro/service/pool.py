"""Multiprocessing cell-execution pool with fair share, timeouts, retry.

The execution backend of the experiment service: ``num_workers`` forked
processes, each running one cell at a time via
:func:`repro.experiments.session.run_cell` on a spec reconstructed from
JSON.  A dispatcher thread owns all scheduling state:

* **Fair share across clients.**  Pending cells live in per-client FIFO
  queues; assignment round-robins over the clients with work, so a client
  submitting a 1000-cell grid cannot starve a client submitting one cell
  — each gets every k-th idle worker.  The recent assignment order is
  kept in :attr:`WorkerPool.dispatch_log` so fairness is measurable
  (benchmark E18 records the interleaving).
* **Crash-stop retry.**  A worker that *dies* mid-cell (SIGKILL, OOM,
  hard crash) is detected through its process sentinel; the cell is
  requeued at the front of its client's queue with a bounded attempt
  budget (``max_attempts``), a replacement worker is forked, and the grid
  completes.  Only death is retried: a cell that raises an ordinary
  exception is deterministic and fails immediately
  (:class:`CellExecutionError`, traceback attached).
* **Per-cell timeouts.**  Python workers cannot be preempted mid-``on_round``,
  so an over-deadline cell's worker is killed and replaced and the cell
  is reported failed (:class:`CellTimeout`) — without stalling any other
  client's queue.

Workers are forked so registry entries defined in the submitting process
— test workloads, notebook scenarios — exist in the workers without
pickling; hosts without ``fork`` fall back to ``spawn``, where only
importable registrations resolve.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.experiments.session import run_cell
from repro.experiments.spec import ExperimentSpec
from repro.service.protocol import axis_entry_from_json


class CellExecutionError(RuntimeError):
    """The cell's code raised; deterministic, so never retried.

    Attributes:
        traceback: the worker-side traceback text.
    """

    def __init__(self, message: str, tb: str = ""):
        super().__init__(message)
        self.traceback = tb


class CellCrashed(RuntimeError):
    """The cell's worker died on every allowed attempt."""


class CellTimeout(RuntimeError):
    """The cell exceeded its wall-clock budget and its worker was killed."""


@dataclass
class CellJob:
    """One cell queued for execution.

    ``payload`` is everything a worker needs to execute the cell from
    scratch: the portable spec JSON plus the cell's backend / scenario /
    seed / cell_index coordinates (axis entries in their JSON forms).
    """

    client: str
    payload: dict[str, Any]
    digest: str | None = None
    timeout: float | None = None
    max_attempts: int = 2
    attempts: int = 0


def make_payload(
    spec_json: dict[str, Any],
    *,
    backend: Any,
    scenario: Any,
    seed: int,
    cell_index: int = 0,
) -> dict[str, Any]:
    """The :class:`CellJob` payload for one enumerated cell."""
    from repro.service.protocol import axis_entry_to_json

    return {
        "spec": spec_json,
        "backend": axis_entry_to_json(backend),
        "scenario": axis_entry_to_json(scenario),
        "seed": seed,
        "cell_index": cell_index,
    }


# Worker-side memo: grids resubmit the same graph source + params for every
# cell, and planted-clique construction at n=1000 costs more than a cell's
# margin; keyed by canonical JSON so it is exact.
_GRAPH_MEMO: dict[str, Any] = {}


def _execute_payload(payload: dict[str, Any]):
    spec = ExperimentSpec.from_json(payload["spec"])
    backend = axis_entry_from_json(payload["backend"], "backend")
    scenario = axis_entry_from_json(payload["scenario"], "scenario")
    graph = None
    if isinstance(spec.graph, str):
        key = json.dumps(
            {"source": spec.graph, "params": spec.graph_params},
            sort_keys=True,
            default=repr,
        )
        graph = _GRAPH_MEMO.get(key)
        if graph is None:
            graph = spec.build_graph()
            _GRAPH_MEMO[key] = graph
    return run_cell(
        spec,
        backend=backend,
        scenario=scenario,
        seed=payload["seed"],
        cell_index=payload["cell_index"],
        graph=graph,
    )


def _cell_worker(conn) -> None:
    """Worker-process loop: one cell per parent request, until ``None``."""
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if request is None:
            return
        try:
            reply = ("ok", _execute_payload(request))
        except (KeyboardInterrupt, SystemExit):
            # Die rather than report: the parent's sentinel watch treats
            # the death as a crash and retries the cell elsewhere.
            raise
        except BaseException as exc:
            reply = ("error", f"{type(exc).__name__}: {exc}", traceback.format_exc())
        try:
            conn.send(reply)
        except (OSError, BrokenPipeError):
            return


class _Worker:
    """Parent-side handle on one pool process."""

    def __init__(self, context, worker_id: int):
        self.id = worker_id
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_cell_worker, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()

    @property
    def sentinel(self) -> int:
        return self.process.sentinel

    def kill(self) -> None:
        try:
            if self.process.is_alive():
                self.process.kill()
            self.process.join(timeout=5)
        finally:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - teardown best-effort
                pass

    def retire(self) -> None:
        """Polite shutdown: ask the loop to return, then reap."""
        try:
            self.conn.send(None)
        except (OSError, BrokenPipeError):
            pass
        self.process.join(timeout=2)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.kill()
            self.process.join(timeout=5)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - teardown best-effort
            pass


@dataclass
class _Assignment:
    job: CellJob
    future: Future
    deadline: float | None
    started: float


class WorkerPool:
    """Fair-share multiprocessing pool executing experiment cells.

    Args:
        num_workers: pool size, an ``int`` >= 1 (default: the size of the
            scheduler affinity mask).
        max_attempts: total execution attempts per cell across worker
            crashes (>= 1); exhausted cells fail with :class:`CellCrashed`.
        default_timeout: per-cell wall-clock budget in seconds applied
            when a job carries none (``None`` = unlimited).
        start_method: multiprocessing start method (default ``fork`` when
            available — registry entries defined in the submitting process
            then exist in workers without pickling).
        on_event: optional callback receiving progress-event dicts
            (``cell_start`` / ``cell_done`` / ``cell_retry`` /
            ``cell_timeout`` / ``cell_error``) from the dispatcher thread.
    """

    def __init__(
        self,
        num_workers: int | None = None,
        max_attempts: int = 2,
        default_timeout: float | None = None,
        start_method: str | None = None,
        on_event: Callable[[dict], None] | None = None,
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1; got {max_attempts}")
        if num_workers is None:
            try:
                num_workers = len(os.sched_getaffinity(0))
            except (AttributeError, OSError):  # pragma: no cover - non-Linux
                num_workers = os.cpu_count() or 1
        elif (
            not isinstance(num_workers, int)
            or isinstance(num_workers, bool)
            or num_workers < 1
        ):
            # Checked before any process starts: 0, -2 and True would
            # otherwise serve silently with one worker, 2.5 fail in start().
            raise ValueError(f"num_workers must be an int >= 1; got {num_workers!r}")
        self.num_workers = num_workers
        self.max_attempts = max_attempts
        self.default_timeout = default_timeout
        self.on_event = on_event
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
        self._context = multiprocessing.get_context(start_method)
        self._lock = threading.Lock()
        self._queues: dict[str, deque[tuple[CellJob, Future]]] = {}
        self._client_order: deque[str] = deque()
        self._idle: list[_Worker] = []
        self._busy: dict[int, _Assignment] = {}  # worker id -> assignment
        self._workers: dict[int, _Worker] = {}
        self._next_worker_id = 0
        self._stop = False
        self._thread: threading.Thread | None = None
        self.dispatch_log: list[str] = []
        self.completed = 0
        self.retries = 0
        self.timeouts = 0
        self.crashes = 0
        self.errors = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "WorkerPool":
        if self._thread is not None:
            return self
        for _ in range(self.num_workers):
            self._spawn_worker()
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="cell-pool-dispatch", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        with self._lock:
            self._stop = True
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        with self._lock:
            pending = [
                (job, future)
                for queue in self._queues.values()
                for job, future in queue
            ]
            self._queues.clear()
            self._client_order.clear()
            busy_ids = set(self._busy)
            busy = list(self._busy.values())
            self._busy.clear()
            workers = list(self._workers.values())
            self._workers.clear()
            self._idle.clear()
        for job, future in pending:
            future.set_exception(RuntimeError("worker pool closed"))
        for assignment in busy:
            if not assignment.future.done():
                assignment.future.set_exception(
                    RuntimeError("worker pool closed")
                )
        for worker in workers:
            if worker.id in busy_ids:
                worker.kill()
            else:
                worker.retire()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission ----------------------------------------------------------

    def submit(self, job: CellJob) -> Future:
        """Queue ``job`` on its client's fair-share queue; returns a Future.

        The future resolves to the cell's
        :class:`~repro.experiments.RunResult`, or raises
        :class:`CellExecutionError` / :class:`CellCrashed` /
        :class:`CellTimeout`.
        """
        if self._thread is None:
            raise RuntimeError("pool not started; call start() first")
        future: Future = Future()
        with self._lock:
            if self._stop:
                raise RuntimeError("worker pool closed")
            queue = self._queues.get(job.client)
            if queue is None:
                queue = self._queues[job.client] = deque()
            if job.client not in self._client_order:
                self._client_order.append(job.client)
            queue.append((job, future))
        return future

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "workers": len(self._workers),
                "busy": len(self._busy),
                "queued": sum(len(q) for q in self._queues.values()),
                "queues": {c: len(q) for c, q in self._queues.items() if q},
                "completed": self.completed,
                "retries": self.retries,
                "timeouts": self.timeouts,
                "crashes": self.crashes,
                "errors": self.errors,
                "max_attempts": self.max_attempts,
            }

    # -- dispatcher internals --------------------------------------------------

    def _emit(self, kind: str, job: CellJob, **fields: Any) -> None:
        if self.on_event is None:
            return
        event = {
            "kind": kind,
            "client": job.client,
            "digest": job.digest,
            "seed": job.payload.get("seed"),
            "attempt": job.attempts,
            **fields,
        }
        try:
            self.on_event(event)
        except Exception:  # pragma: no cover - observer must not kill the pool
            pass

    def _spawn_worker(self) -> None:
        worker = _Worker(self._context, self._next_worker_id)
        self._next_worker_id += 1
        self._workers[worker.id] = worker
        self._idle.append(worker)

    def _take_next_job(self) -> tuple[CellJob, Future] | None:
        """Round-robin fair share: next job, rotating the client order."""
        while self._client_order:
            client = self._client_order[0]
            queue = self._queues.get(client)
            if not queue:
                self._client_order.popleft()
                continue
            job, future = queue.popleft()
            self._client_order.rotate(-1)
            if not queue:
                # Leave the client in the rotation only while it has work.
                try:
                    self._client_order.remove(client)
                except ValueError:  # pragma: no cover - already rotated out
                    pass
            if not future.set_running_or_notify_cancel():
                continue  # pragma: no cover - cancelled before dispatch
            return job, future
        return None

    def _assign_ready(self) -> None:
        while True:
            with self._lock:
                if not self._idle:
                    return
                taken = self._take_next_job()
                if taken is None:
                    return
                job, future = taken
                worker = self._idle.pop()
                job.attempts += 1
                timeout = (
                    job.timeout if job.timeout is not None else self.default_timeout
                )
                deadline = (
                    time.monotonic() + timeout if timeout is not None else None
                )
                self._busy[worker.id] = _Assignment(
                    job, future, deadline, time.monotonic()
                )
                if len(self.dispatch_log) < 100_000:
                    self.dispatch_log.append(job.client)
            try:
                worker.conn.send(job.payload)
            except (OSError, BrokenPipeError):
                # The worker died between cells; treat as a crash of this
                # attempt so the normal retry path handles it.
                self._handle_crash(worker)
                continue
            self._emit("cell_start", job, worker=worker.id)

    def _complete(self, worker: _Worker, reply: tuple) -> None:
        with self._lock:
            assignment = self._busy.pop(worker.id, None)
            if assignment is None:  # pragma: no cover - already failed
                self._idle.append(worker)
                return
            self._idle.append(worker)
        job, future = assignment.job, assignment.future
        seconds = time.monotonic() - assignment.started
        if reply[0] == "ok":
            self.completed += 1
            self._emit("cell_done", job, seconds=seconds, worker=worker.id)
            future.set_result(reply[1])
        else:
            self.errors += 1
            self._emit(
                "cell_error", job, error=reply[1], worker=worker.id
            )
            future.set_exception(CellExecutionError(reply[1], reply[2]))

    def _handle_crash(self, worker: _Worker) -> None:
        with self._lock:
            assignment = self._busy.pop(worker.id, None)
            self._workers.pop(worker.id, None)
            if worker in self._idle:  # pragma: no cover - idle death
                self._idle.remove(worker)
            self._spawn_worker()
        worker.kill()
        if assignment is None:
            return
        job, future = assignment.job, assignment.future
        self.crashes += 1
        if job.attempts < job.max_attempts:
            self.retries += 1
            self._emit("cell_retry", job, worker=worker.id)
            with self._lock:
                queue = self._queues.get(job.client)
                if queue is None:
                    queue = self._queues[job.client] = deque()
                retry_future: Future = Future()
                queue.appendleft((job, retry_future))
                if job.client not in self._client_order:
                    self._client_order.appendleft(job.client)
            _chain_future(retry_future, future)
        else:
            self._emit("cell_crashed", job, worker=worker.id)
            future.set_exception(
                CellCrashed(
                    f"cell worker died {job.attempts} time(s) executing "
                    f"cell {job.digest or job.payload.get('seed')!r} "
                    f"(client {job.client!r}); attempts exhausted"
                )
            )

    def _handle_timeout(self, worker: _Worker) -> None:
        with self._lock:
            assignment = self._busy.pop(worker.id, None)
            self._workers.pop(worker.id, None)
            self._spawn_worker()
        worker.kill()
        if assignment is None:  # pragma: no cover - raced with completion
            return
        job, future = assignment.job, assignment.future
        self.timeouts += 1
        timeout = job.timeout if job.timeout is not None else self.default_timeout
        self._emit("cell_timeout", job, timeout=timeout, worker=worker.id)
        future.set_exception(
            CellTimeout(
                f"cell exceeded its {timeout:.3f}s budget (client "
                f"{job.client!r}); worker killed, cell reported failed"
            )
        )

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                if self._stop:
                    return
            self._assign_ready()
            with self._lock:
                busy = [
                    (self._workers[wid], assignment)
                    for wid, assignment in self._busy.items()
                    if wid in self._workers
                ]
            if not busy:
                time.sleep(0.005)
                continue
            waitables: list[Any] = []
            for worker, _ in busy:
                waitables.append(worker.conn)
                waitables.append(worker.sentinel)
            try:
                multiprocessing.connection.wait(waitables, timeout=0.05)
            except OSError:  # pragma: no cover - conn closed under us
                pass
            now = time.monotonic()
            for worker, assignment in busy:
                if worker.id not in self._busy:
                    continue
                replied = False
                try:
                    if worker.conn.poll():
                        reply = worker.conn.recv()
                        replied = True
                except (EOFError, OSError):
                    replied = False
                if replied:
                    self._complete(worker, reply)
                elif not worker.process.is_alive():
                    self._handle_crash(worker)
                elif (
                    assignment.deadline is not None
                    and now > assignment.deadline
                ):
                    self._handle_timeout(worker)


def _chain_future(source: Future, target: Future) -> None:
    """Propagate a retry attempt's outcome onto the original future."""

    def _copy(done: Future) -> None:
        exc = done.exception()
        if exc is not None:
            target.set_exception(exc)
        else:
            target.set_result(done.result())

    source.add_done_callback(_copy)
