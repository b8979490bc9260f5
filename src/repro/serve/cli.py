"""``qbss-serve`` — the console entry point of the scheduling daemon.

Two modes:

* **daemon** (default): bind the HTTP surface (``--bind``, or the
  ``QBSS_SERVE_BIND`` environment variable), serve until SIGTERM/SIGINT,
  then drain gracefully — stop admitting, finish every in-flight shard,
  flush waiting responses, shut the evaluation workers down, close the
  warm session — and exit 0.
* **one-shot** (``--stdin``): read one JSONL job stream from stdin,
  write the JSONL response stream to stdout, exit.  Same validation,
  same evaluation, in-process, same envelopes; the pipe is the
  backpressure.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading

from .. import __version__ as PACKAGE_VERSION
from ..cli import (
    _add_robustness_arguments,
    _backend_arg,
    _check_evaluation_args,
    _retry_policy,
)
from ..engine.backends.base import parse_backend_spec
from ..engine.backends.worker import parse_bind, write_port_file
from ..engine.runner import resolve_jobs
from ..traces.replay import load_evaluation
from .server import QbssServer, ServeConfig

#: Environment override for the default bind address.
BIND_ENV = "QBSS_SERVE_BIND"
DEFAULT_BIND = "127.0.0.1:8457"


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbss-serve",
        description=(
            "Long-lived QBSS scheduling service: accepts streams of job "
            "requests over HTTP/JSON (or stdin JSONL), validates them "
            "into trace records, shards them into time windows, and "
            "evaluates competitive ratios, --jobs submissions at once on "
            "warm forked worker processes.  Endpoints: POST /v1/jobs, "
            "GET /healthz, GET /metrics (Prometheus)."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {PACKAGE_VERSION}",
    )
    parser.add_argument(
        "--bind",
        default=os.environ.get(BIND_ENV, DEFAULT_BIND),
        metavar="HOST:PORT",
        help=(
            "listen address; port 0 picks a free port "
            f"(default: ${BIND_ENV} or {DEFAULT_BIND})"
        ),
    )
    parser.add_argument(
        "--port-file",
        default=None,
        metavar="FILE",
        help="write the actually-bound HOST:PORT to FILE after startup",
    )
    parser.add_argument(
        "--stdin",
        action="store_true",
        help="one-shot mode: JSONL job requests on stdin, JSONL results on stdout",
    )
    parser.add_argument(
        "--algorithms",
        default="avrq,bkpq",
        metavar="A,B,...",
        help="comma-separated online algorithms (default: avrq,bkpq)",
    )
    parser.add_argument(
        "--alpha", type=float, default=3.0, help="power exponent (default 3.0)"
    )
    parser.add_argument(
        "--shard-window",
        type=float,
        default=3600.0,
        metavar="W",
        help="time-window width of one shard (default 3600)",
    )
    parser.add_argument(
        "--noise-model",
        default="multiplicative",
        metavar="NAME",
        help="uncertainty synthesis model (default: multiplicative)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="noise-synthesis seed (default 0)"
    )
    parser.add_argument(
        "--deadline-slack",
        type=float,
        default=2.0,
        metavar="F",
        help="deadline window factor for records without one (default 2.0)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=4096,
        metavar="N",
        help="admission-queue capacity in pending jobs (default 4096)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="R",
        help="per-client token-bucket rate in jobs/second (default: unlimited)",
    )
    parser.add_argument(
        "--burst",
        type=float,
        default=None,
        metavar="B",
        help="per-client burst capacity in jobs (default: one second of --rate)",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=300.0,
        metavar="S",
        help="max seconds one submission may wait for evaluation (default 300)",
    )
    parser.add_argument(
        "--jobs",
        default=None,
        metavar="N",
        help=(
            "submissions evaluated at once, each on its own forked worker "
            "process; 1 evaluates in-process; 0/'auto' = per CPU (default "
            "auto; under --backend remote: it sizes the session, default 1)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="shard-result cache directory (default: $QBSS_CACHE_DIR or ~/.cache/qbss-repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the shard cache entirely",
    )
    _add_robustness_arguments(parser)
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        metavar="S",
        help="max seconds to wait for in-flight shards on shutdown (default: unbounded)",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help=(
            "write-ahead admission journal directory: submissions are "
            "fsync'd before acknowledgement and incomplete entries are "
            "replayed on restart, so a hard crash (kill -9, power loss) "
            "never silently loses admitted work (default: no journal)"
        ),
    )
    return parser


def _config_from_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> ServeConfig:
    from ..traces.replay import validate_replay_algorithms
    from ..traces.synthesize import get_noise_model

    try:
        host, port = parse_bind(args.bind)
    except ValueError as exc:
        parser.error(str(exc))
    # Serve keeps its own --jobs under a remote backend: only the spec
    # is validated here.
    backend, _remote_jobs = _backend_arg(parser, args, 1)
    jobs: int | str | None = args.jobs
    if jobs is None:
        # A worker per CPU on the local pool.  Under remote: --jobs sizes
        # the session instead, and at 1 its shards in flight are not
        # capped at 2 x jobs, so the whole fleet stays fed.
        local = backend is None or parse_backend_spec(backend)[0] == "pool"
        jobs = "auto" if local else 1
    try:
        resolve_jobs(jobs)
    except ValueError as exc:
        parser.error(str(exc))
    algorithms = tuple(
        name.strip() for name in args.algorithms.split(",") if name.strip()
    )
    try:
        validate_replay_algorithms(algorithms)
        get_noise_model(args.noise_model)
    except (KeyError, ValueError) as exc:
        parser.error(str(exc.args[0] if exc.args else exc))
    _check_evaluation_args(parser, args)
    if args.queue_limit < 1:
        parser.error("--queue-limit must be >= 1")
    if args.rate is not None and args.rate <= 0:
        parser.error("--rate must be > 0")
    if args.burst is not None and args.burst <= 0:
        parser.error("--burst must be > 0")
    if args.request_timeout <= 0:
        parser.error("--request-timeout must be > 0")
    retry = _retry_policy(parser, args)
    return ServeConfig(
        host=host,
        port=port,
        algorithms=algorithms,
        alpha=args.alpha,
        shard_window=args.shard_window,
        noise_model=args.noise_model,
        seed=args.seed,
        deadline_slack=args.deadline_slack,
        queue_limit=args.queue_limit,
        rate=args.rate,
        burst=args.burst,
        request_timeout=args.request_timeout,
        jobs=jobs,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        task_timeout=args.task_timeout,
        retry=retry,
        backend=backend,
        journal_dir=args.journal,
    )


def _run_stdin(server: QbssServer) -> int:
    body = sys.stdin.read()
    try:
        code, text = server.serve_once(body)
        sys.stdout.write(text)
        sys.stdout.flush()
        return code
    finally:
        server.begin_drain()
        server.drain()


def _run_daemon(
    server: QbssServer, port_file: str | None, drain_timeout: float | None
) -> int:
    stop = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        print(
            f"qbss-serve: received signal {signum}, draining...",
            file=sys.stderr,
            flush=True,
        )
        stop.set()

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    # Everything from here on runs inside the try: once server.start()
    # has launched its non-daemon threads, only the drain and stop below
    # let the process exit, whatever fails.
    try:
        # Readiness means ready: the shard-evaluation path is imported
        # before the port file announces the daemon, not inside its
        # first request, and before start() forks the workers that
        # inherit it.
        load_evaluation(server.config.algorithms)
        server.start()
        bound = f"{server.config.host}:{server.port}"
        if port_file:
            write_port_file(port_file, bound)
        print(
            f"qbss-serve {PACKAGE_VERSION} listening on http://{bound} "
            f"(queue limit {server.queue.max_jobs} jobs, "
            f"pool {server.pool_jobs})",
            file=sys.stderr,
            flush=True,
        )
        # Poll-wait instead of a bare wait(): the OS may deliver the
        # signal to a non-main thread, and a main thread parked in an
        # untimed lock acquire never reaches the bytecode boundary where
        # CPython runs Python-level signal handlers.  The timeout bounds
        # handler latency at half a second.
        while not stop.wait(0.5):
            pass
    except OSError as exc:
        print(f"qbss-serve: error: {exc}", file=sys.stderr, flush=True)
        return 1
    finally:
        server.begin_drain()
        drained = server.drain(drain_timeout)
        server.stop()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    if not drained:
        print(
            f"qbss-serve: drain timed out after {drain_timeout}s",
            file=sys.stderr,
            flush=True,
        )
        return 1
    print("qbss-serve: drained cleanly, bye", file=sys.stderr, flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(parser, args)
    server = QbssServer(config)
    recovery = server.recover()
    if recovery is not None:
        print(f"qbss-serve: {recovery.summary_line()}", file=sys.stderr, flush=True)
    if args.stdin:
        return _run_stdin(server)
    return _run_daemon(server, args.port_file, args.drain_timeout)


if __name__ == "__main__":
    sys.exit(main())
