"""``reprod`` — the experiment-service daemon and its CLI.

Three subcommands:

* ``serve`` — start the long-lived experiment server: a multiprocessing
  cell pool with fair-share queueing across clients, per-cell timeouts,
  crash-stop retry, and a content-addressed result cache answering
  identical cells across requests and clients.  ``--log progress.jsonl``
  mirrors every progress event into a durable JSONL log; ``--import
  module`` loads extra registry entries (benchmark workloads, custom
  scenarios) before serving.
* ``submit`` — send an :class:`~repro.experiments.ExperimentSpec` JSON
  file to a running server, optionally widening the backend / scenario
  grid axes, streaming per-cell progress to stderr and printing (or
  ``--summary-out``-writing) the final result document.
* ``status`` — the server's pool / cache / request counters.

Examples::

    PYTHONPATH=src python scripts/reprod.py serve --port 8321 --workers 4
    PYTHONPATH=src python scripts/reprod.py submit spec.json \
        --port 8321 --scenario clean --scenario link-drop
    PYTHONPATH=src python scripts/reprod.py status --port 8321
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import JsonlTracer  # noqa: E402
from repro.service import (  # noqa: E402
    CellCache,
    ExperimentServer,
    ExperimentService,
    ProtocolError,
    ServiceClient,
    ServiceError,
    SubmitRequest,
    WorkerPool,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprod", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the experiment server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="listen port (0 = ephemeral; default 8321)")
    serve.add_argument("--workers", type=int, default=None,
                       help="pool size (default: CPU affinity count)")
    serve.add_argument("--max-attempts", type=int, default=2,
                       help="execution attempts per cell across worker "
                            "crashes (default 2)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="default per-cell wall-clock budget in seconds")
    serve.add_argument("--cache-entries", type=int, default=None,
                       help="LRU bound on cached cells (default unbounded)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persist cached cells to digest-named files in "
                            "DIR (survives restarts; large pinned outputs "
                            "spill here instead of staying in memory)")
    serve.add_argument("--cache-gc-bytes", type=int, default=None,
                       help="cap the persistent cache's total size; oldest "
                            "digest files are pruned at startup and on "
                            "write-through")
    serve.add_argument("--cache-gc-days", type=float, default=None,
                       help="prune persisted cells older than this many days")
    serve.add_argument("--log", default=None, metavar="PATH",
                       help="mirror progress events into a JSONL file")
    serve.add_argument("--import", dest="imports", action="append",
                       default=[], metavar="MODULE",
                       help="import a module (registry registrations) "
                            "before serving; repeatable")

    submit = sub.add_parser("submit", help="submit a spec JSON file")
    submit.add_argument("spec", help="path to an ExperimentSpec JSON file")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8321)
    submit.add_argument("--client", default=None,
                        help="fair-share client label (default: spec name)")
    submit.add_argument("--backend", action="append", default=None,
                        metavar="NAME[:JSON]",
                        help="backend axis entry (repeatable); "
                             "'name' or 'name:{\"param\": ...}'")
    submit.add_argument("--scenario", action="append", default=None,
                        metavar="NAME[:JSON]",
                        help="scenario axis entry (repeatable); "
                             "'clean', 'name', or 'name:{\"param\": ...}'")
    submit.add_argument("--timeout", type=float, default=None,
                        help="per-cell budget in seconds for this request")
    submit.add_argument("--retries", type=int, default=3,
                        help="connection attempts beyond the first on "
                             "refused/reset (default 3; 0 disables)")
    submit.add_argument("--retry-backoff", type=float, default=0.25,
                        help="base seconds of the exponential retry "
                             "backoff (deterministic jitter on top)")
    submit.add_argument("--no-stream", action="store_true",
                        help="single final reply instead of NDJSON progress")
    submit.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress on stderr")
    submit.add_argument("--summary-out", default=None, metavar="PATH",
                        help="write the final result document to a file")

    status = sub.add_parser("status", help="query a running server")
    status.add_argument("--host", default="127.0.0.1")
    status.add_argument("--port", type=int, default=8321)
    return parser


def parse_axis_entry(text: str):
    """``name`` or ``name:{json params}`` into the grid-cell form."""
    name, sep, params = text.partition(":")
    if not sep:
        return text
    try:
        decoded = json.loads(params)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"bad axis entry {text!r}: params are not JSON ({exc})")
    if not isinstance(decoded, dict):
        raise SystemExit(f"bad axis entry {text!r}: params must be a JSON object")
    return [name, decoded]


def cmd_serve(args: argparse.Namespace) -> int:
    for module in args.imports:
        importlib.import_module(module)
    try:
        pool = WorkerPool(
            num_workers=args.workers,
            max_attempts=args.max_attempts,
            default_timeout=args.timeout,
        )
    except ValueError as exc:
        raise SystemExit(f"reprod: {exc}")
    log_file = None
    tracer = None
    if args.log:
        # Line-buffered so the progress log is durable even if the server
        # is killed (CI uploads it as an artifact after SIGTERM).
        log_file = open(args.log, "w", buffering=1, encoding="utf-8")
        tracer = JsonlTracer(log_file)
    pool.start()
    service = ExperimentService(
        pool,
        CellCache(
            max_entries=args.cache_entries,
            cache_dir=args.cache_dir,
            gc_bytes=args.cache_gc_bytes,
            gc_days=args.cache_gc_days,
        ),
        default_timeout=args.timeout,
        tracer=tracer,
    )
    server = ExperimentServer(service, host=args.host, port=args.port)
    def _sigterm(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.start_in_background()
        print(
            f"reprod: serving on http://{args.host}:{server.port} "
            f"({pool.num_workers} workers, max {pool.max_attempts} "
            f"attempts/cell)",
            flush=True,
        )
        server._thread.join()
    except (KeyboardInterrupt, SystemExit):
        print("reprod: shutting down", flush=True)
    finally:
        server.stop()
        pool.close()
        if tracer is not None:
            tracer.close()
        if log_file is not None:
            log_file.close()
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    spec_json = json.loads(Path(args.spec).read_text())
    backends = (
        [parse_axis_entry(b) for b in args.backend]
        if args.backend else None
    )
    scenarios = (
        [None if s == "clean" else parse_axis_entry(s) for s in args.scenario]
        if args.scenario else None
    )
    try:
        request = SubmitRequest.from_json(
            {
                "spec": spec_json,
                "client": args.client or spec_json.get("name", "cli"),
                **({"backends": backends} if backends else {}),
                **({"scenarios": scenarios} if scenarios else {}),
                **({"timeout": args.timeout} if args.timeout else {}),
                "stream": not args.no_stream,
            }
        )
    except ProtocolError as exc:
        raise SystemExit(f"reprod: bad request: {exc}")

    def on_event(event: dict) -> None:
        if args.quiet:
            return
        kind = event.get("kind")
        if kind == "accepted":
            print(
                f"reprod: accepted {event['spec']!r}: {event['cells']} cells",
                file=sys.stderr, flush=True,
            )
        elif kind == "cell_end":
            if event.get("cached"):
                tag = "cache"
            elif event.get("deduped"):
                tag = "dedup"
            else:
                tag = f"{event['seconds']:.3f}s"
            print(
                f"reprod: cell seed={event['seed']} "
                f"scenario={event['scenario']!r} done ({tag})",
                file=sys.stderr, flush=True,
            )
        elif kind == "cell_failed":
            print(
                f"reprod: cell seed={event['seed']} FAILED "
                f"{event['error']}: {event['message']}",
                file=sys.stderr, flush=True,
            )

    client = ServiceClient(
        host=args.host, port=args.port,
        retries=args.retries, backoff=args.retry_backoff,
    )
    try:
        reply = client.submit(request, on_event=on_event)
    except (ServiceError, ConnectionError) as exc:
        raise SystemExit(f"reprod: submit failed: {exc}")
    if args.summary_out:
        Path(args.summary_out).write_text(json.dumps(reply, indent=2) + "\n")
        print(
            f"reprod: {reply['cells']} cells "
            f"({reply['cached']} cached, {reply['executed']} executed, "
            f"{reply.get('deduped', 0)} deduped, "
            f"{reply['failed']} failed) digest={reply['digest']} "
            f"-> {args.summary_out}",
            flush=True,
        )
    else:
        json.dump(reply, sys.stdout, indent=2)
        print()
    return 1 if reply["failed"] else 0


def cmd_status(args: argparse.Namespace) -> int:
    client = ServiceClient(host=args.host, port=args.port)
    try:
        json.dump(client.status(), sys.stdout, indent=2)
    except (ServiceError, ConnectionError) as exc:
        raise SystemExit(f"reprod: status failed: {exc}")
    print()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "submit":
        return cmd_submit(args)
    return cmd_status(args)


if __name__ == "__main__":
    raise SystemExit(main())
