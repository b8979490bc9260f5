"""Derived classical instances used by the QBSS algorithms and analyses.

The paper's machinery reduces uncertain jobs to classical jobs in a handful
of recurring ways:

* the clairvoyant instance ``I*`` — ``(r_j, d_j, p*_j)`` (Sec. 3);
* the analysis instances of Sec. 4.3 / Figure 1: ``I'`` keeps the original
  windows but splits queried jobs into a ``c_j`` job and a ``w*_j`` job, and
  ``I'_1/2`` additionally halves the windows (query in the first half,
  revealed load in the second);
* the *online derivation*: each queried job spawns a query job
  ``(r_j, tau_j, c_j)`` at time ``r_j`` and a revealed job
  ``(tau_j, d_j, w*_j)`` at time ``tau_j``; an unqueried job spawns
  ``(r_j, d_j, w_j)``.  Each derived job arrives at its own release.
  This is the input AVRQ/BKPQ/OAQ/AVRQ(m) feed to their classical
  counterparts.

Information discipline: the online derivation obtains ``w*`` through the
:class:`~repro.core.qjob.QJobView` query protocol, stamping the revelation
at the split point; the analysis instances read the truth directly (they are
proof devices, not algorithms) and take raw :class:`QJob`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from ..core.events import OnlineStream
from ..core.instance import Instance, QBSSInstance
from ..core.job import Job
from ..core.qjob import QJob, QJobView
from .decisions import DecisionLog, QueryDecision
from .policies import QueryPolicy, SplitPolicy


# -- analysis instances (Figure 1) ------------------------------------------------


def instance_star(qinstance: QBSSInstance) -> Instance:
    """``I*``: the clairvoyant instance ``(r_j, d_j, p*_j)``."""
    return qinstance.clairvoyant_instance()


def instance_prime(
    qinstance: QBSSInstance, queried: Callable[[QJob], bool]
) -> Instance:
    """``I'``: queried jobs split into ``(r, d, c)`` and ``(r, d, w*)``.

    ``queried`` decides membership of the set ``B`` (e.g. the golden-ratio
    rule applied to the known attributes).
    """
    jobs: list[Job] = []
    for j in qinstance:
        if queried(j):
            jobs.append(Job(j.release, j.deadline, j.query_cost, j.id + ":q"))
            jobs.append(Job(j.release, j.deadline, j.work_true, j.id + ":w"))
        else:
            jobs.append(Job(j.release, j.deadline, j.work_upper, j.id + ":full"))
    return Instance(jobs, qinstance.machines)


def instance_prime_half(
    qinstance: QBSSInstance, queried: Callable[[QJob], bool]
) -> Instance:
    """``I'_1/2``: like ``I'`` but with halved windows for queried jobs.

    Queried job ``j`` becomes ``(r, (r+d)/2, c)`` and ``((r+d)/2, d, w*)``.
    The paper states it for common release 0 where the midpoint is ``d/2``;
    we keep the general form so the same code serves online analyses.
    """
    jobs: list[Job] = []
    for j in qinstance:
        if queried(j):
            mid = j.midpoint
            jobs.append(Job(j.release, mid, j.query_cost, j.id + ":q"))
            jobs.append(Job(mid, j.deadline, j.work_true, j.id + ":w"))
        else:
            jobs.append(Job(j.release, j.deadline, j.work_upper, j.id + ":full"))
    return Instance(jobs, qinstance.machines)


# -- online derivation --------------------------------------------------------------


@dataclass
class DerivedOnline:
    """Result of deriving the online classical stream from a QBSS instance.

    Attributes
    ----------
    jobs:
        The derived jobs in arrival order: sorted by release, ties in
        derivation order.  Every derived job arrives at its own release
        (query jobs and unqueried jobs at ``r_j``, revealed jobs at
        ``tau_j``).
    decisions:
        What was decided per original job.
    views:
        The views used, with their revelation audit trail.
    """

    jobs: list[Job]
    decisions: DecisionLog
    views: list[QJobView]

    @property
    def stream(self) -> OnlineStream:
        """Arrivals of the derived classical jobs, each at its release."""
        return OnlineStream.from_jobs(self.jobs)

    def instance(self, machines: int = 1) -> Instance:
        """The derived jobs as a classical instance (for feasibility checks)."""
        return Instance(self.jobs, machines)


def derive_online(
    qinstance: QBSSInstance,
    query_policy: QueryPolicy,
    split_policy: SplitPolicy,
) -> DerivedOnline:
    """Apply the policies to every job and derive the online classical jobs.

    The decision for a job is taken at its release from the *view* only.
    For queried jobs the exact load is obtained via ``view.reveal(tau)``,
    which stamps the revelation at the split point — reading it earlier is
    structurally impossible.
    """
    log = DecisionLog()
    jobs: list[Job] = []
    views = qinstance.views()
    for view in views:
        if query_policy.should_query(view):
            x = split_policy.split_fraction(view)
            tau = view.split_point(x)
            jobs.append(Job(view.release, tau, view.query_cost, view.id + ":query"))
            wstar = view.reveal(tau)
            jobs.append(Job(tau, view.deadline, wstar, view.id + ":work"))
            log.record(view.id, QueryDecision(True, x))
        else:
            jobs.append(view.as_upper_bound_job())
            log.record(view.id, QueryDecision(False))
    # A stable sort: the arrival order an OnlineStream of the jobs keeps.
    jobs.sort(key=lambda j: j.release)
    return DerivedOnline(jobs, log, views)


# -- helpers shared by the offline algorithms ---------------------------------------


def partition_golden(
    qinstance: QBSSInstance,
) -> tuple[list[QJob], list[QJob]]:
    """Split jobs into ``(A, B)`` per the golden-ratio rule.

    ``A`` holds the jobs executed without a query (``c_j > w_j / phi``),
    ``B`` the queried ones (``c_j <= w_j / phi``) — the notation of
    Sections 4.2–4.4.
    """
    from ..core.constants import PHI

    a_set = [j for j in qinstance if j.query_cost > j.work_upper / PHI]
    b_set = [j for j in qinstance if j.query_cost <= j.work_upper / PHI]
    return a_set, b_set
