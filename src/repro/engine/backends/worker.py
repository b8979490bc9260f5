"""``qbss-worker``: a long-lived TCP execution worker.

One worker process serves one driver connection at a time (the remote
backend keeps exactly one task in flight per worker, so there is nothing
to parallelise here).  Per task it:

1. resolves the requested worker function (restricted to module-level
   callables inside the :mod:`repro` package — a frame cannot name
   arbitrary code to run);
2. runs the function on the frame's args — worker bodies such as
   :func:`repro.engine.runner._execute` run under
   :func:`~repro.engine.faults.run_guarded` with the fault plan their
   args carry, exactly like local pool workers; the guard captures their
   exceptions into the outcome dict, and this loop turns anything that
   still escapes into the same failure outcome;
3. on success, *publishes* the result into this worker's
   content-addressed :class:`~repro.engine.cache.ResultCache` (when the
   task carries a publish spec — the driver's
   :meth:`~repro.engine.session.ExecutionSession.cache_entry` — and
   ``--cache-dir`` points at a store), **before** replying.  With
   workers sharing a cache directory the cache becomes the coordination
   point: if this worker dies after publishing but before replying, the
   retrying driver finds the digest already computed.

Startup announces the bound address through ``--port-file`` (written
atomically: temp file + fsync + rename), so ``--bind 127.0.0.1:0`` plus
``remote:@FILE`` driver entries need no port arithmetic.  ``qbss-serve``
shares :func:`parse_bind` and :func:`write_port_file` for its own
``--bind`` / ``--port-file``.

A real ``kill`` fault (or SIGKILL from outside) terminates the process
mid-task; the driver sees the connection drop and books a transient
crash attempt — that is the failure mode this backend is built around.
"""

from __future__ import annotations

import argparse
import os
import pickle
import signal
import socket
import sys
import time
import traceback
from collections.abc import Callable
from pathlib import Path
from typing import Any

from ..cache import ResultCache
from ..faults import failure_outcome
from .remote import WIRE_VERSION, recv_frame, send_frame

#: Default bind address when neither ``--bind`` nor the env hook is set.
DEFAULT_BIND = "127.0.0.1:0"

#: Environment fallback for ``--bind`` (HOST:PORT; port 0 = ephemeral).
BIND_ENV = "QBSS_WORKER_BIND"


def _log(message: str) -> None:
    # stderr only, no wall-clock timestamps: worker logs are collected as
    # CI artifacts and must stay deterministic-friendly.
    print(f"qbss-worker[{os.getpid()}]: {message}", file=sys.stderr, flush=True)


def parse_bind(value: str) -> tuple[str, int]:
    """``HOST:PORT`` → address tuple (port 0 asks for an ephemeral port)."""
    host, sep, port_text = value.strip().rpartition(":")
    if not sep or not host:
        raise ValueError(f"--bind expects HOST:PORT, got {value!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid port in --bind {value!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"--bind port must be in [0, 65535], got {port}")
    return host, port


def write_port_file(path: str | Path, bound: str) -> None:
    """Atomically publish the bound ``HOST:PORT`` (readers poll this file
    while the process boots and never see a torn one).

    Written to a pid-suffixed sibling, fsync'd, then renamed into place,
    so the content appears all at once or not at all; the parent
    directory is created first.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    with open(tmp, "w") as fh:
        fh.write(bound + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def resolve_task_fn(spec: str) -> Callable[..., Any]:
    """``module:qualname`` → the callable, restricted to the repro package.

    Refuses anything outside :mod:`repro` and any dunder path component:
    a task frame selects among this package's module-level worker bodies,
    it does not get an arbitrary-import gadget.
    """
    module_name, sep, qualname = spec.partition(":")
    if not sep or not module_name or not qualname:
        raise ValueError(f"task fn must be 'module:qualname', got {spec!r}")
    if module_name != "repro" and not module_name.startswith("repro."):
        raise ValueError(f"task fn must live in the repro package, got {spec!r}")
    parts = qualname.split(".")
    if any(not p or p.startswith("__") for p in parts):
        raise ValueError(f"refusing dunder path in task fn {spec!r}")
    import importlib

    obj: Any = importlib.import_module(module_name)
    for part in parts:
        obj = getattr(obj, part)
    if not callable(obj):
        raise ValueError(f"task fn {spec!r} is not callable")
    return obj  # type: ignore[no-any-return]


def _publish_outcome(
    store: ResultCache, publish: dict[str, Any], outcome: dict[str, Any]
) -> bool:
    """Best-effort cache publication of one successful outcome; whether
    the entry was written."""
    payload = outcome.get("payload")
    if not isinstance(payload, dict):
        return False
    try:
        store.put(
            str(publish["key"]),
            str(publish.get("experiment", "task")),
            dict(publish.get("params") or {}),
            payload,
            float(outcome.get("wall", 0.0)),
            publish.get("package_version"),
        )
    except (OSError, KeyError, TypeError, ValueError) as exc:
        # The reply still carries the payload; the driver's own cache
        # write (or the next recompute) covers for a failed publication.
        _log(f"cache publish failed for {publish.get('key')!r}: {exc}")
        return False
    return True


def _run_task(frame: dict[str, Any], store: ResultCache | None) -> dict[str, Any]:
    """Execute one task frame, returning the outcome dict to send back."""
    start = time.perf_counter()
    try:
        fn = resolve_task_fn(str(frame["fn"]))
        outcome = fn(*tuple(frame.get("args") or ()))
        if not isinstance(outcome, dict) or "ok" not in outcome:
            raise TypeError(
                f"worker fn returned {type(outcome).__name__}, expected an outcome dict"
            )
    except Exception:
        # Worker bodies catch their own errors; this guards the frame
        # plumbing itself (bad fn spec, unpicklable args, contract drift).
        return failure_outcome(
            traceback.format_exc(limit=8), time.perf_counter() - start
        )
    publish = frame.get("publish")
    if (
        outcome.get("ok")
        and isinstance(publish, dict)
        and store is not None
        and _publish_outcome(store, publish, outcome)
    ):
        # The driver skips its own write of an entry it finds published.
        outcome["published"] = True
    return outcome


def _serve_connection(
    conn: socket.socket, peer: str, store: ResultCache | None
) -> bool:
    """Serve one driver connection; ``True`` means shut the worker down."""
    reader = conn.makefile("rb")
    try:
        send_frame(
            conn,
            {
                "kind": "hello",
                "wire_version": WIRE_VERSION,
                "pid": os.getpid(),
            },
        )
        while True:
            try:
                frame = recv_frame(reader)
            except (ConnectionError, ValueError, pickle.UnpicklingError, EOFError):
                _log(f"torn frame from {peer}; dropping connection")
                return False
            if frame is None:
                return False  # driver went away; wait for the next one
            kind = frame.get("kind")
            if kind == "task":
                outcome = _run_task(frame, store)
                send_frame(
                    conn,
                    {"kind": "result", "id": frame.get("id"), "outcome": outcome},
                )
            elif kind == "ping":
                send_frame(conn, {"kind": "pong"})
            elif kind == "shutdown":
                send_frame(conn, {"kind": "bye"})
                return True
            else:
                _log(f"ignoring unknown frame kind {kind!r} from {peer}")
    except OSError:
        return False  # reply failed: driver is gone
    finally:
        try:
            reader.close()
            conn.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbss-worker",
        description=(
            "Long-lived TCP execution worker for the qbss remote backend "
            "(see docs/backends.md)."
        ),
    )
    parser.add_argument(
        "--bind",
        default=None,
        metavar="HOST:PORT",
        help=(
            "address to listen on (port 0 = ephemeral; default: "
            f"${BIND_ENV} or {DEFAULT_BIND})"
        ),
    )
    parser.add_argument(
        "--port-file",
        type=Path,
        default=None,
        metavar="PATH",
        help="atomically write the bound HOST:PORT here once listening "
        "(drivers point remote:@PATH at it)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache to publish successful outcomes into "
        "(share one directory across workers to make the cache the "
        "coordination point)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="never publish outcomes to a cache, even with --cache-dir",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    bind_text = args.bind or os.environ.get(BIND_ENV) or DEFAULT_BIND
    try:
        address = parse_bind(bind_text)
    except ValueError as exc:
        build_parser().error(str(exc))
    store: ResultCache | None = None
    if args.cache_dir is not None and not args.no_cache:
        store = ResultCache(args.cache_dir)

    def _on_sigterm(signum: int, frame: Any) -> None:
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _on_sigterm)

    # Readiness means ready: the shard-evaluation path is imported before
    # the port file announces this worker, not inside its first task.
    from ...traces.replay import load_evaluation

    load_evaluation()
    server = socket.create_server(address, backlog=4)
    bound_host, bound_port = server.getsockname()[:2]
    if args.port_file is not None:
        write_port_file(args.port_file, f"{bound_host}:{bound_port}")
    _log(f"listening on {bound_host}:{bound_port} (wire v{WIRE_VERSION})")
    # SIGTERM raises SystemExit(0), which propagates and still
    # exits 0; Ctrl-C propagates as KeyboardInterrupt.
    try:
        while True:
            # Untimed accept() is deliberate: PEP 475 makes it
            # signal-interruptible, and SIGTERM above raises SystemExit.
            conn, peer_addr = server.accept()
            peer = f"{peer_addr[0]}:{peer_addr[1]}"
            _log(f"driver connected from {peer}")
            if _serve_connection(conn, peer, store):
                _log("shutdown requested; exiting")
                return 0
            _log(f"driver at {peer} disconnected")
    finally:
        server.close()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
