"""The pre-kernel profile loops: the test oracle for ``repro.core.profile_kernel``.

Before the numpy kernel, :class:`~repro.core.profile.SpeedProfile`,
:class:`~repro.core.schedule.Schedule` and YDS's compressed-timeline step
were plain loops over segments and slices.  They live on here, with their
arithmetic unchanged, as the reference the kernel must reproduce bit for
bit.  :func:`reference_mode` patches them back over the kernel-backed code,
together with the per-period YDS discovery and the per-midpoint BKP sweep
of ``tests/_reference_kernels.py``, so a whole pipeline (YDS, a replay)
runs exactly as it did before the kernel and the batched window sums.
Test and bench use only: the patches are process-wide, so it is not
thread safe.
"""

from __future__ import annotations

import contextlib
import sys
from collections.abc import Iterator, Sequence
from unittest import mock

import numpy as np

import _reference_kernels as _kernels
from repro.core import profile as _profile
from repro.core import profile_kernel as _pk
from repro.core.constants import EPS
from repro.core.job import Job
from repro.core.power import PowerFunction
from repro.core.profile import Segment, SpeedProfile
from repro.core.schedule import Schedule
from repro.core.timeline import dedupe_times
from repro.qbss.clairvoyant import clairvoyant_values as _clairvoyant_values
from repro.speed_scaling.avr import avr_profile as _avr_profile
from repro.speed_scaling.bkp import bkp_profile as _bkp_profile
from repro.speed_scaling.yds import TimelineCompressor
from repro.speed_scaling.yds import _discover as _yds_discover

# -- SpeedProfile -------------------------------------------------------------------


def from_breakpoints(
    cls, *, times: Sequence[float], speeds: Sequence[float]
) -> SpeedProfile:
    if len(speeds) != len(times) - 1:
        raise ValueError("need exactly one speed per consecutive breakpoint pair")
    segs = [
        Segment(a, b, v)
        for a, b, v in zip(times, times[1:], speeds)
        if v > 0
    ]
    return cls(segs)


def from_segments(
    cls,
    *,
    starts: Sequence[float],
    ends: Sequence[float],
    speeds: Sequence[float],
) -> SpeedProfile:
    if not (len(starts) == len(ends) == len(speeds)):
        raise ValueError("starts, ends and speeds must have equal length")
    return cls(Segment(a, b, v) for a, b, v in zip(starts, ends, speeds))


def speeds_at(self: SpeedProfile, times) -> np.ndarray:
    return _pk.as_float_array([self.speed_at(float(t)) for t in times])


def breakpoints(self: SpeedProfile) -> list[float]:
    raw = sorted(
        {seg.start for seg in self._segments}
        | {seg.end for seg in self._segments}
    )
    pts: list[float] = []
    for t in raw:
        if not pts or t - pts[-1] > EPS:
            pts.append(t)
    return pts


def total_work(self: SpeedProfile) -> float:
    return sum(seg.work for seg in self._segments)


def work_in(self: SpeedProfile, start: float, end: float) -> float:
    if end <= start:
        return 0.0
    total = 0.0
    for seg in self._segments:
        lo = max(seg.start, start)
        hi = min(seg.end, end)
        if hi > lo:
            total += seg.speed * (hi - lo)
    return total


def work_in_many(self: SpeedProfile, starts, ends) -> np.ndarray:
    return _pk.as_float_array(
        [self.work_in(float(a), float(b)) for a, b in zip(starts, ends)]
    )


def max_speed(self: SpeedProfile) -> float:
    return max((seg.speed for seg in self._segments), default=0.0)


def energy(self: SpeedProfile, power: PowerFunction) -> float:
    return sum(power.energy(seg.speed, seg.duration) for seg in self._segments)


def scale(self: SpeedProfile, factor: float) -> SpeedProfile:
    if factor < 0:
        raise ValueError(f"scale factor must be >= 0, got {factor}")
    return SpeedProfile(
        Segment(s.start, s.end, factor * s.speed) for s in self._segments
    )


def restrict(self: SpeedProfile, start: float, end: float) -> SpeedProfile:
    segs = []
    for seg in self._segments:
        lo = max(seg.start, start)
        hi = min(seg.end, end)
        if hi > lo:
            segs.append(Segment(lo, hi, seg.speed))
    return SpeedProfile(segs)


def shift(self: SpeedProfile, delta: float) -> SpeedProfile:
    return SpeedProfile(
        Segment(s.start + delta, s.end + delta, s.speed) for s in self._segments
    )


def dominates(self: SpeedProfile, other: SpeedProfile, tol: float = EPS) -> bool:
    pts = sorted(set(self.breakpoints()) | set(other.breakpoints()))
    for a, b in zip(pts, pts[1:]):
        mid = 0.5 * (a + b)
        if self.speed_at(mid) < other.speed_at(mid) - tol:
            return False
    return True


def sum_profiles(profiles: Sequence[SpeedProfile]) -> SpeedProfile:
    pts: list[float] = []
    for p in profiles:
        for seg in p.segments:
            pts.append(seg.start)
            pts.append(seg.end)
    if not pts:
        return SpeedProfile()
    uniq = sorted(set(pts))
    # collapse numerically-equal points
    collapsed: list[float] = [uniq[0]]
    for t in uniq[1:]:
        if t - collapsed[-1] > EPS:
            collapsed.append(t)
    segs = []
    for a, b in zip(collapsed, collapsed[1:]):
        mid = 0.5 * (a + b)
        speed = sum(p.speed_at(mid) for p in profiles)
        if speed > 0:
            segs.append(Segment(a, b, speed))
    return SpeedProfile(segs)


def max_profiles(profiles: Sequence[SpeedProfile]) -> SpeedProfile:
    pts: list[float] = []
    for p in profiles:
        for seg in p.segments:
            pts.append(seg.start)
            pts.append(seg.end)
    if not pts:
        return SpeedProfile()
    uniq = sorted(set(pts))
    collapsed: list[float] = [uniq[0]]
    for t in uniq[1:]:
        if t - collapsed[-1] > EPS:
            collapsed.append(t)
    segs = []
    for a, b in zip(collapsed, collapsed[1:]):
        mid = 0.5 * (a + b)
        speed = max((p.speed_at(mid) for p in profiles), default=0.0)
        if speed > 0:
            segs.append(Segment(a, b, speed))
    return SpeedProfile(segs)


def avr_profile(jobs: Sequence[Job]) -> SpeedProfile:
    return sum_profiles(
        [
            SpeedProfile.constant(j.release, j.deadline, j.density)
            for j in jobs
            if j.work > 0
        ]
    )


# -- Schedule -----------------------------------------------------------------------


def schedule_energy(self: Schedule, power: PowerFunction) -> float:
    return sum(
        power.energy(s.speed, s.duration)
        for per in self._slices
        for s in per
    )


def schedule_max_speed(self: Schedule) -> float:
    return max(
        (s.speed for per in self._slices for s in per), default=0.0
    )


# -- YDS compressed timeline ---------------------------------------------------------


def compress_many(self: TimelineCompressor, times) -> np.ndarray:
    """The scalar :meth:`TimelineCompressor.compress` loop, one time each."""
    return np.array([self.compress(t) for t in times])


def collapse_times(values) -> np.ndarray:
    """:func:`~repro.core.timeline.dedupe_times` (Python sort + collapse)."""
    return np.array(dedupe_times(values))


# -- reference_mode() ---------------------------------------------------------------


class KernelPathReached(BaseException):
    """A kernel-only :class:`SpeedProfile` entry point ran in reference mode.

    A ``BaseException`` so the engine's worker guard, which records an
    ``Exception`` as a failed task, cannot turn it into a quietly failed
    replay shard that a test compares or a bench times.
    """


def _kernel_reached(*args: object, **kwargs: object) -> None:
    raise KernelPathReached(
        "SpeedProfile kernel arrays were used inside reference_mode()"
    )


_METHODS: tuple[tuple[type, str, object], ...] = (
    (SpeedProfile, "from_breakpoints", classmethod(from_breakpoints)),
    (SpeedProfile, "from_segments", classmethod(from_segments)),
    (SpeedProfile, "speeds_at", speeds_at),
    (SpeedProfile, "breakpoints", breakpoints),
    (SpeedProfile, "total_work", total_work),
    (SpeedProfile, "work_in", work_in),
    (SpeedProfile, "work_in_many", work_in_many),
    (SpeedProfile, "max_speed", max_speed),
    (SpeedProfile, "energy", energy),
    (SpeedProfile, "scale", scale),
    (SpeedProfile, "restrict", restrict),
    (SpeedProfile, "shift", shift),
    (SpeedProfile, "dominates", dominates),
    (SpeedProfile, "_get_arrays", _kernel_reached),
    (SpeedProfile, "_from_arrays", _kernel_reached),
    (Schedule, "energy", schedule_energy),
    (Schedule, "max_speed", schedule_max_speed),
    (TimelineCompressor, "compress_many", compress_many),
)


def _no_shared_baseline(*args: object, **kwargs: object) -> None:
    """Replay then lets every algorithm compute its own clairvoyant baseline."""
    return None


#: Module-level functions that other modules import by name
#: (``from ..core.profile import sum_profiles`` in CRP2D, ``avr_profile``
#: in AVRQ and AVRQ-NM, ``bkp_profile`` in BKPQ, the package re-exports,
#: a bench script's globals), kernel first.  YDS's ``_discover`` is what
#: both ``yds`` and ``yds_profile`` drive.
_FUNCTIONS: dict[str, tuple[object, object]] = {
    "sum_profiles": (_profile.sum_profiles, sum_profiles),
    "max_profiles": (_profile.max_profiles, max_profiles),
    "avr_profile": (_avr_profile, avr_profile),
    "bkp_profile": (_bkp_profile, _kernels.bkp_profile_sweep),
    "_discover": (_yds_discover, _kernels.period_discover),
    "collapse_times": (_pk.collapse_times, collapse_times),
    "clairvoyant_values": (_clairvoyant_values, _no_shared_baseline),
}


def _kernel_bindings() -> list[tuple[object, str]]:
    """``(module, name)`` for every loaded module whose global ``name`` *is*
    the kernel function of that name in :data:`_FUNCTIONS`."""
    found = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", {})
        for name, (kernel_fn, _) in _FUNCTIONS.items():
            if namespace.get(name) is kernel_fn:
                found.append((module, name))
    return found


@contextlib.contextmanager
def reference_mode() -> Iterator[None]:
    """Run profiles, schedules and YDS on the pre-kernel loops.

    Patches the loops above over the kernel-backed methods, and rebinds
    ``sum_profiles``/``max_profiles``/``avr_profile``/``bkp_profile`` and
    YDS's ``_discover`` in *every* loaded module that holds the kernel
    function, found by identity (patching ``repro.core.profile`` alone
    would leave CRP2D's, AVRQ's and BKPQ's imported names on the kernel).  ``clairvoyant_values`` returns ``None``, so
    trace replay computes one baseline per algorithm as it did before the
    kernel.  ``SpeedProfile._get_arrays``/``_from_arrays`` raise
    :class:`KernelPathReached`, so a kernel path that escapes the patches
    fails loudly.  Not thread safe.
    """
    with contextlib.ExitStack() as stack:
        for owner, name, replacement in _METHODS:
            stack.enter_context(mock.patch.object(owner, name, replacement))
        for module, name in _kernel_bindings():
            stack.enter_context(
                mock.patch.object(module, name, _FUNCTIONS[name][1])
            )
        yield
