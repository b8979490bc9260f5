"""Pluggable execution backends for the hardened driver.

:func:`repro.engine.runner.execute_hardened` used to know exactly one
way to run a task: a local :class:`concurrent.futures.ProcessPoolExecutor`
with serial degradation.  This package extracts that knowledge behind the
small :class:`Backend` protocol — ``submit`` / ``cancel`` / ``drain`` /
``close`` — so the same driver loop (deadlines, seeded retries,
broken-backend rebuilds, degradation) runs against either
implementation:

* :class:`PoolBackend` — the existing hardened local process pool
  (``pool``, the default; behavior-identical to the pre-protocol driver;
  ``serial`` is the same default at one worker, which the driver runs
  inline);
* :class:`RemoteBackend` — a stdlib-socket TCP work queue fanning tasks
  out to ``qbss-worker`` processes (``remote:HOST:PORT[,HOST:PORT...]``),
  where workers publish results into the content-addressed
  :class:`~repro.engine.cache.ResultCache` by digest so the cache is the
  coordination point and a lost worker is just a transient retry.

Backend selection threads through
:class:`~repro.engine.session.ExecutionSession` and the ``--backend``
flag of ``qbss-report``, ``qbss-replay`` and ``qbss-serve``; see
``docs/backends.md`` for the protocol, the wire format and the failure
semantics.
"""

from typing import TYPE_CHECKING

from ... import _lazy

#: Package-level name -> the submodule that defines it (loaded on first
#: use: the socket and frame layer of ``remote`` only for a remote backend).
_SOURCES = {
    "Backend": "base",
    "BackendBroken": "base",
    "PoolBackend": "local",
    "RemoteBackend": "remote",
    "create_backend": "base",
    "parse_backend_spec": "base",
    "resolve_worker_address": "remote",
}

__all__ = list(_SOURCES)

__getattr__, __dir__ = _lazy.attach(__name__, _SOURCES)

if TYPE_CHECKING:
    from .base import (
        Backend as Backend,
        BackendBroken as BackendBroken,
        create_backend as create_backend,
        parse_backend_spec as parse_backend_spec,
    )
    from .local import PoolBackend as PoolBackend
    from .remote import (
        RemoteBackend as RemoteBackend,
        resolve_worker_address as resolve_worker_address,
    )
