"""The TCP work-queue backend: a stdlib-socket driver for ``qbss-worker``.

One driver fans tasks out to a fleet of long-lived ``qbss-worker``
processes (see :mod:`repro.engine.backends.worker`), one task in flight
per worker.  The protocol is deliberately minimal:

**Wire format** — length-prefixed pickle frames: an 8-byte big-endian
unsigned length (``!Q``) followed by that many bytes of pickled dict.
Pickle (protocol 4) is used because task arguments are exactly the
tuples the local pool would pickle — floats, tuples and nested dicts
round-trip identically, which the byte-identity contract requires.
Frames larger than :data:`MAX_FRAME_BYTES` are refused.

**Handshake** — on connect the worker sends a ``hello`` frame carrying
:data:`WIRE_VERSION`; a missing, slow or mismatched hello fails the
connection (a worker mid-hang accepts TCP via the listen backlog but
cannot greet, so the timeout is what detects it).

**Frames** — driver → worker: ``task`` (id, worker function as
``module:qualname``, pickled args, an optional cache-publish spec) and
``shutdown``; worker → driver: ``hello``, ``result`` (id + outcome
dict), ``bye``.  The task's fault plan is one of its args, exactly as
in a local pool, so the same ``FaultPlan`` harness drives remote
workers.

**Failure semantics** — a worker that dies mid-task (connection reset /
EOF) resolves that task's handle to a *transient crash outcome*, exactly
what a dead local pool worker produces, so the driver's seeded retry
resubmits it to a surviving worker.  A worker whose task was cancelled
(deadline timeout) stays **pinned**: no new work is sent until its stale
result arrives and is discarded.  When no worker is reachable at all,
``submit``/``ensure_open`` raise
:class:`~repro.engine.backends.base.BackendBroken` and the driver walks
its rebuild-once-then-degrade-to-serial escalation — a fleet outage
still yields a complete (degraded) run.

Workers publish successful results into the content-addressed
:class:`~repro.engine.cache.ResultCache` *before* replying when the task
carries a publish spec, so a shared cache directory (or replicated
store) makes the cache the coordination point: the driver — or the next
driver — only recomputes misses.
"""

from __future__ import annotations

import itertools
import pickle
import socket
import struct
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import Future
from pathlib import Path
from typing import Any

from ...obs import lockwatch
from ..faults import crash_outcome
from .base import Backend, BackendBroken

#: Version of the frame protocol; bumped on any incompatible change
#: (v2: the fault plan moved from a frame field into the task's args).
WIRE_VERSION = 2

#: Refuse frames beyond this size — a corrupt length prefix must not
#: trigger a gigantic allocation.
MAX_FRAME_BYTES = 1 << 30

#: Seconds to wait for a TCP connect plus the worker's hello frame.
DEFAULT_CONNECT_TIMEOUT = 10.0

_HEADER = struct.Struct("!Q")


def send_frame(sock: socket.socket, frame: dict[str, Any]) -> None:
    """Write one length-prefixed pickle frame."""
    blob = pickle.dumps(frame, protocol=4)
    if len(blob) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(blob)} bytes exceeds the wire limit")
    sock.sendall(_HEADER.pack(len(blob)) + blob)


def recv_frame(reader: Any) -> dict[str, Any] | None:
    """Read one frame from a buffered binary reader.

    Returns ``None`` on clean EOF (no bytes at a frame boundary); raises
    :class:`ConnectionError` on a torn frame and :class:`ValueError` on
    an oversized or non-dict frame.
    """
    header = reader.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise ConnectionError("connection closed mid-frame header")
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {length} bytes exceeds the wire limit")
    blob = reader.read(length)
    if len(blob) < length:
        raise ConnectionError("connection closed mid-frame body")
    frame = pickle.loads(blob)
    if not isinstance(frame, dict):
        raise ValueError(f"expected a dict frame, got {type(frame).__name__}")
    return frame


def resolve_worker_address(entry: str) -> tuple[str, int]:
    """``HOST:PORT`` — or ``@FILE`` naming a ``qbss-worker`` port file —
    resolved to a connectable address."""
    text = entry.strip()
    if text.startswith("@"):
        try:
            text = Path(text[1:]).read_text().strip()
        except OSError as exc:
            raise ValueError(f"cannot read worker port file {entry[1:]!r}: {exc}") from exc
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"worker address must be HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid port in worker address {text!r}") from None
    if not 1 <= port <= 65535:
        raise ValueError(f"worker port must be in [1, 65535], got {port}")
    return host, port


def worker_fn_spec(fn: Callable[..., Any]) -> str:
    """The ``module:qualname`` name a worker resolves back to a callable."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        raise ValueError(
            f"remote worker functions must be module-level callables, got {fn!r}"
        )
    return f"{module}:{qualname}"


class _WorkerLink:
    """One driver↔worker connection: socket, reader thread, bookkeeping.

    ``pending`` holds the single in-flight task (id, handle, start time);
    ``abandoned`` holds ids whose deadline expired — the link is *pinned*
    (no new work) until the worker's stale results for them drain.
    All mutable state is guarded by ``lock`` (driver thread vs reader
    thread).
    """

    __slots__ = (
        "address", "sock", "reader", "thread", "lock",
        "alive", "pinned", "pending", "abandoned",
    )

    def __init__(self, address: tuple[str, int]) -> None:
        self.address = address
        self.sock: socket.socket | None = None
        self.reader: Any = None
        self.thread: threading.Thread | None = None
        self.lock = lockwatch.new_lock("_WorkerLink.lock")
        self.alive = False
        self.pinned = False
        self.pending: tuple[int, Future, float] | None = None
        self.abandoned: set[int] = set()

    @property
    def label(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"


class RemoteBackend(Backend):
    """Drive a fleet of ``qbss-worker`` processes over TCP."""

    name = "remote"
    bounded = True

    def __init__(
        self,
        workers: Sequence[str | tuple[str, int]],
        *,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ) -> None:
        if not workers:
            raise ValueError("remote backend needs at least one worker address")
        self.connect_timeout = connect_timeout
        self._entries = list(workers)
        self._links: list[_WorkerLink] | None = None
        self._ids = itertools.count(1)

    # -- lifecycle ------------------------------------------------------------------

    def ensure_open(self) -> None:
        if self._links is None:
            # @FILE entries resolve here, not in __init__, so a backend
            # built before its workers wrote their port files still works.
            addresses = [
                entry if isinstance(entry, tuple) else resolve_worker_address(entry)
                for entry in self._entries
            ]
            self._links = [_WorkerLink(addr) for addr in addresses]
        live = 0
        for link in self._links:
            if link.alive or self._connect(link):
                live += 1
        if live == 0:
            raise BackendBroken(
                f"no live qbss-worker among {len(self._links)} address(es)"
            )

    def _connect(self, link: _WorkerLink) -> bool:
        try:
            sock = socket.create_connection(link.address, timeout=self.connect_timeout)
        except OSError:
            return False
        reader = None
        try:
            reader = sock.makefile("rb")
            hello = recv_frame(reader)
            if (
                hello is None
                or hello.get("kind") != "hello"
                or hello.get("wire_version") != WIRE_VERSION
            ):
                raise ConnectionError(
                    f"bad hello from qbss-worker at {link.label}: {hello!r}"
                )
            sock.settimeout(None)
        except (OSError, ValueError, pickle.UnpicklingError):
            for closable in (reader, sock):
                if closable is not None:
                    try:
                        closable.close()
                    except OSError:  # pragma: no cover - best-effort cleanup
                        pass
            return False
        with link.lock:
            link.sock = sock
            link.reader = reader
            link.alive = True
            link.pinned = False
            link.pending = None
            link.abandoned = set()
        thread = threading.Thread(
            target=self._reader_loop,
            args=(link, sock, reader),
            name=f"qbss-remote-{link.label}",
            daemon=True,
        )
        link.thread = thread
        thread.start()
        return True

    def release(self, kill: bool = False) -> None:
        # Keep idle links warm across batches; drop anything dead, still
        # pinned by a hung task, or (defensively) mid-task.
        for link in self._links or []:
            if not link.alive or link.pinned or link.pending is not None:
                self._fail_link(link, sock=link.sock)

    def close(self, kill: bool = False) -> None:
        for link in self._links or []:
            self._fail_link(link, sock=link.sock)

    # -- the protocol surface -------------------------------------------------------

    def free_slots(self) -> int:
        # Usable capacity: live links not pinned by an abandoned task.
        # (Mirrors the pool's ``jobs - hung``; a link mid-task counts —
        # the driver compares against *total* in-flight tasks.)
        return sum(
            1 for link in self._links or [] if link.alive and not link.pinned
        )

    def submit(
        self,
        fn: Callable[..., dict[str, Any]],
        args: Sequence[Any],
        task: Any | None = None,
    ) -> Future:
        idle = next(
            (
                link
                for link in self._links or []
                if link.alive and not link.pinned and link.pending is None
            ),
            None,
        )
        if idle is None:
            raise BackendBroken("no idle qbss-worker link (fleet dead or pinned)")
        task_id = next(self._ids)
        frame = {
            "kind": "task",
            "id": task_id,
            "fn": worker_fn_spec(fn),
            "args": tuple(args),
            "publish": getattr(task, "publish", None),
        }
        handle: Future = Future()
        with idle.lock:
            sock = idle.sock
            idle.pending = (task_id, handle, time.monotonic())
        try:
            assert sock is not None
            send_frame(sock, frame)
        except (OSError, ValueError):
            # The worker vanished between selection and send: resolve the
            # handle as a crashed attempt (transient — the retry lands on
            # a surviving worker) rather than failing the whole batch.
            self._fail_link(idle, sock=sock)
        return handle

    def result(self, handle: Future) -> dict[str, Any]:
        outcome: dict[str, Any] = handle.result()
        return outcome

    def cancel(self, handle: Future) -> bool:
        for link in self._links or []:
            with link.lock:
                if link.pending is not None and link.pending[1] is handle:
                    # Already on the wire: the worker cannot be preempted.
                    # Pin the link until its stale result drains.
                    link.abandoned.add(link.pending[0])
                    link.pending = None
                    link.pinned = True
                    return False
        return handle.cancel() or handle.done()

    # -- reader side ----------------------------------------------------------------

    def _reader_loop(self, link: _WorkerLink, sock: socket.socket, reader: Any) -> None:
        try:
            self._read_results(link, sock, reader)
        finally:
            # The reader object is closed here, in the only thread that
            # reads from it (see _fail_link); this also releases the
            # last reference to the fd.
            try:
                reader.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def _read_results(
        self, link: _WorkerLink, sock: socket.socket, reader: Any
    ) -> None:
        while True:
            try:
                frame = recv_frame(reader)
            except (OSError, ValueError, pickle.UnpicklingError, EOFError):
                frame = None
            if frame is None:
                self._fail_link(link, sock=sock)
                return
            if frame.get("kind") != "result":
                continue
            task_id = frame.get("id")
            handle: Future | None = None
            started = 0.0
            with link.lock:
                if link.sock is not sock:
                    return  # the link was re-established; this reader is stale
                if task_id in link.abandoned:
                    link.abandoned.discard(task_id)
                    if not link.abandoned:
                        link.pinned = False  # stale results drained; usable again
                    continue
                if link.pending is not None and link.pending[0] == task_id:
                    _tid, handle, started = link.pending
                    link.pending = None
            if handle is None or handle.done():
                continue
            outcome = frame.get("outcome")
            if not isinstance(outcome, dict):
                outcome = crash_outcome(
                    f"qbss-worker at {link.label} disconnected mid-task",
                    time.monotonic() - started,
                )
            handle.set_result(outcome)

    def _fail_link(self, link: _WorkerLink, sock: socket.socket | None) -> None:
        """Retire a link (idempotent): close the socket, crash-complete
        whatever was in flight.  Safe from driver and reader threads."""
        with link.lock:
            if sock is not None and link.sock is not sock:
                return  # already retired and possibly reconnected
            dead_sock, link.sock = link.sock, None
            link.reader = None
            link.alive = False
            link.pinned = False
            link.abandoned = set()
            pending, link.pending = link.pending, None
        # shutdown() (not just close()) so the worker sees EOF at once —
        # the makefile reader still references the fd, and the reader
        # thread may be blocked inside reader.read(), so this thread must
        # neither close the reader (BufferedReader.close would deadlock on
        # the read lock) nor rely on close() alone to send the FIN.  The
        # reader thread closes its own reader object on the way out.
        if dead_sock is not None:
            try:
                dead_sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover - already disconnected
                pass
            try:
                dead_sock.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        if pending is not None:
            _tid, handle, started = pending
            if not handle.done():
                # Same shape and semantics as a dead local pool worker.
                handle.set_result(
                    crash_outcome(
                        f"qbss-worker at {link.label} disconnected mid-task",
                        time.monotonic() - started,
                    )
                )
