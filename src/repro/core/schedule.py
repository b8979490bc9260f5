"""Executed schedules: which job runs on which machine, when, at what speed.

A :class:`Schedule` is the concrete output of an algorithm run: per machine,
a list of :class:`Slice` entries ``(start, end, speed, job_id)``.  Preemption
appears as multiple slices of one job; migration as slices of one job on
different machines.  :mod:`repro.core.feasibility` validates schedules
against instances; this module only stores and aggregates.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from collections.abc import Iterable

from . import profile_kernel as _pk
from .power import PowerFunction
from .profile import Segment, SpeedProfile


@dataclass(frozen=True)
class Slice:
    """``job_id`` runs on one machine during ``[start, end)`` at ``speed``."""

    start: float
    end: float
    speed: float
    job_id: str

    def __post_init__(self) -> None:
        if not self.end > self.start:
            raise ValueError(f"slice end {self.end} must exceed start {self.start}")
        if self.speed < 0:
            raise ValueError(f"slice speed must be >= 0, got {self.speed}")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def work(self) -> float:
        return self.speed * self.duration


class Schedule:
    """A complete executed schedule over ``machines`` identical machines."""

    def __init__(self, machines: int = 1) -> None:
        if machines < 1:
            raise ValueError(f"machines must be >= 1, got {machines}")
        self.machines = machines
        self._slices: list[list[Slice]] = [[] for _ in range(machines)]

    # -- construction -----------------------------------------------------------

    def add(
        self,
        start: float,
        end: float,
        speed: float,
        job_id: str,
        machine: int = 0,
    ) -> None:
        """Append a slice on ``machine`` (slices may be added in any order)."""
        if not 0 <= machine < self.machines:
            raise ValueError(f"machine {machine} out of range 0..{self.machines - 1}")
        if speed <= 0:
            return  # zero-speed slices carry no work and no energy
        self._slices[machine].append(Slice(start, end, speed, job_id))

    def extend(self, slices: Iterable[Slice], machine: int = 0) -> None:
        for s in slices:
            self.add(s.start, s.end, s.speed, s.job_id, machine)

    # -- access -----------------------------------------------------------------

    def slices(self, machine: int | None = None) -> list[Slice]:
        """Slices of one machine, or all machines, sorted by start time."""
        if machine is None:
            out = [s for per in self._slices for s in per]
        else:
            out = list(self._slices[machine])
        return sorted(out, key=lambda s: (s.start, s.end, s.job_id))

    def machine_slices(self) -> list[list[Slice]]:
        return [sorted(per, key=lambda s: s.start) for per in self._slices]

    def job_ids(self) -> list[str]:
        return sorted({s.job_id for per in self._slices for s in per})

    # -- aggregates --------------------------------------------------------------

    def work_of(self, job_id: str) -> float:
        """Total work executed for ``job_id`` across all machines."""
        return sum(
            s.work for per in self._slices for s in per if s.job_id == job_id
        )

    def work_by_job(self) -> dict[str, float]:
        acc: dict[str, float] = defaultdict(float)
        for per in self._slices:
            for s in per:
                acc[s.job_id] += s.work
        return dict(acc)

    def completion_time(self, job_id: str) -> float:
        """Latest end time of any slice of ``job_id`` (-inf when absent)."""
        return self.completion_times().get(job_id, float("-inf"))

    def completion_times(self) -> dict[str, float]:
        """:meth:`completion_time` of every scheduled job, in one pass."""
        done: dict[str, float] = {}
        for per in self._slices:
            for s in per:
                if s.end > done.get(s.job_id, float("-inf")):
                    done[s.job_id] = s.end
        return done

    def machine_profile(self, machine: int) -> SpeedProfile:
        """The speed profile of one machine."""
        return SpeedProfile(
            Segment(s.start, s.end, s.speed) for s in self._slices[machine]
        )

    def energy(self, power: PowerFunction) -> float:
        """Total energy over all machines."""
        speeds = _pk.as_float_array([s.speed for per in self._slices for s in per])
        durations = _pk.as_float_array(
            [s.duration for per in self._slices for s in per]
        )
        return _pk.sequential_sum(_pk.powers(speeds, power.alpha) * durations)

    def max_speed(self) -> float:
        """Peak speed over all machines and times."""
        return _pk.max_speed(
            _pk.as_float_array([s.speed for per in self._slices for s in per])
        )

    def span(self) -> tuple[float, float]:
        allslices = [s for per in self._slices for s in per]
        if not allslices:
            return (0.0, 0.0)
        return (min(s.start for s in allslices), max(s.end for s in allslices))

    def busy_time(self, machine: int) -> float:
        """Total time ``machine`` spends executing (sum of slice durations)."""
        if not 0 <= machine < self.machines:
            raise ValueError(f"machine {machine} out of range 0..{self.machines - 1}")
        return sum(s.duration for s in self._slices[machine])

    def utilization(self, machine: int, horizon: tuple[float, float] | None = None) -> float:
        """Fraction of the horizon ``machine`` is busy (horizon = span default)."""
        lo, hi = horizon if horizon is not None else self.span()
        if hi <= lo:
            return 0.0
        return self.busy_time(machine) / (hi - lo)

    def __repr__(self) -> str:
        n = sum(len(per) for per in self._slices)
        return f"Schedule(machines={self.machines}, slices={n})"


def merge_schedules(schedules: Iterable[Schedule]) -> Schedule:
    """Concatenate schedules over the same machine set into one.

    The caller is responsible for the inputs occupying disjoint time ranges
    per machine (e.g. CRCD's first and second half-intervals); the combined
    schedule is re-validated downstream by the feasibility checker.
    """
    schedules = list(schedules)
    if not schedules:
        return Schedule(1)
    machines = max(s.machines for s in schedules)
    merged = Schedule(machines)
    for sched in schedules:
        for m in range(sched.machines):
            merged.extend(sched.slices(m), m)
    return merged
