"""The Average Rate (AVR) online heuristic (Yao, Demers, Shenker 1995).

At every time ``t`` the machine runs at the sum of the densities of the
active jobs, ``s(t) = sum_{j : t in (r_j, d_j]} delta_j``, executing the
pending job with the earliest deadline.  AVR is ``2^{alpha-1} alpha^alpha``-
competitive for energy (tight up to lower-order terms, Bansal et al. 2011).

The speed at ``t`` depends only on jobs released by ``t``, so constructing
the profile from the full job list is *exactly* the online behaviour; tests
verify this against an explicit arrival-by-arrival replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..core import profile_kernel as _pk
from ..core.edf import EDFResult, run_edf
from ..core.job import Job
from ..core.profile import SpeedProfile


@dataclass
class AVRResult:
    """Profile plus the EDF realisation of an AVR run."""

    profile: SpeedProfile
    edf: EDFResult

    @property
    def schedule(self):
        return self.edf.schedule

    @property
    def feasible(self) -> bool:
        return self.edf.feasible


def avr_profile(jobs: Sequence[Job]) -> SpeedProfile:
    """The AVR speed profile: pointwise sum of per-job density rectangles.

    Every job whose density is positive is one row of the kernel's sum.
    The filter is on the density, not the work: a positive work can have
    a density that underflows to 0.0, and such a job adds no breakpoint.
    """
    releases, deadlines, densities = _pk.as_float_array(
        [(j.release, j.deadline, j.density) for j in jobs]
    ).reshape(-1, 3).T
    keep = densities > 0.0
    return SpeedProfile._from_arrays(
        _pk.combine(
            releases[keep], deadlines[keep], densities[keep],
            np.arange(np.count_nonzero(keep)),
        )
    )


def avr(jobs: Sequence[Job]) -> AVRResult:
    """Run AVR: build the density-sum profile, realise it with EDF.

    AVR is always feasible — the fluid schedule that processes every active
    job at exactly its density finishes each job at its deadline, and EDF
    dominates any fixed-profile scheduler — so ``result.feasible`` holds for
    every valid instance (asserted by property-based tests).
    """
    profile = avr_profile(jobs)
    return AVRResult(profile, run_edf(jobs, profile))


def avr_profile_online_replay(jobs: Sequence[Job]) -> list[SpeedProfile]:
    """Arrival-by-arrival prefixes of the AVR profile (for causality tests).

    Element ``i`` is the profile computed from the first ``i+1`` arrivals
    (sorted by release).  Causality of AVR means prefix ``i`` agrees with the
    final profile on all times up to the next arrival.
    """
    ordered = sorted(jobs, key=lambda j: (j.release, j.id))
    return [avr_profile(ordered[: i + 1]) for i in range(len(ordered))]
