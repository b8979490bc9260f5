"""Executed schedules: which job runs on which machine, when, at what speed.

A :class:`Schedule` is the concrete output of an algorithm run: per machine,
the slices ``(start, end, speed, job_id)`` it executed, stored as columns
and handed out as :class:`Slice` entries on request.  Preemption
appears as multiple slices of one job; migration as slices of one job on
different machines.  :mod:`repro.core.feasibility` validates schedules
against instances; this module only stores and aggregates.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from collections.abc import Iterable, Iterator

from . import profile_kernel as _pk
from .power import PowerFunction
from .profile import Segment, SpeedProfile


#: One machine's slices as parallel lists: starts, ends, speeds, job ids.
Columns = tuple[list[float], list[float], list[float], list[str]]


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
    """A complete executed schedule over ``machines`` identical machines.

    Each machine's slices are kept as four parallel columns (starts, ends,
    speeds, job ids) in the order they were added; :class:`Slice` objects
    are built only by :meth:`slices` and :meth:`machine_slices`.  Every
    aggregate walks the columns in that order, so its sums add the same
    values in the same order as a walk over the slices would.
    """

    def __init__(self, machines: int = 1) -> None:
        if machines < 1:
            raise ValueError(f"machines must be >= 1, got {machines}")
        self.machines = machines
        self._columns: list[Columns] = [([], [], [], []) for _ in range(machines)]

    # -- construction -----------------------------------------------------------

    def _check_machine(self, machine: int) -> None:
        if not 0 <= machine < self.machines:
            raise ValueError(f"machine {machine} out of range 0..{self.machines - 1}")

    def add(
        self,
        start: float,
        end: float,
        speed: float,
        job_id: str,
        machine: int = 0,
    ) -> None:
        """Append a slice on ``machine`` (slices may be added in any order)."""
        self._check_machine(machine)
        if speed <= 0:
            return  # zero-speed slices carry no work and no energy
        if not end > start:
            raise ValueError(f"slice end {end} must exceed start {start}")
        starts, ends, speeds, ids = self._columns[machine]
        starts.append(start)
        ends.append(end)
        speeds.append(speed)
        ids.append(job_id)

    def _extend_columns(self, machine: int, columns: Columns) -> None:
        """Append already-valid slices (``end > start``, ``speed > 0``) as
        columns: EDF's path, which builds no :class:`Slice` per step."""
        self._check_machine(machine)
        for mine, more in zip(self._columns[machine], columns):
            mine.extend(more)

    def extend(self, slices: Iterable[Slice], machine: int = 0) -> None:
        for s in slices:
            self.add(s.start, s.end, s.speed, s.job_id, machine)

    # -- access -----------------------------------------------------------------

    def columns(self, machine: int) -> Columns:
        """``machine``'s slices as parallel ``(starts, ends, speeds, job_ids)``
        lists, in the order they were added (read-only views)."""
        return self._columns[machine]

    def _machine_slices(self, machine: int) -> list[Slice]:
        return [Slice(*row) for row in zip(*self._columns[machine])]

    def slices(self, machine: int | None = None) -> list[Slice]:
        """Slices of one machine, or all machines, sorted by start time."""
        if machine is None:
            out = [s for m in range(self.machines) for s in self._machine_slices(m)]
        else:
            out = self._machine_slices(machine)
        return sorted(out, key=lambda s: (s.start, s.end, s.job_id))

    def machine_slices(self) -> list[list[Slice]]:
        return [
            sorted(self._machine_slices(m), key=lambda s: s.start)
            for m in range(self.machines)
        ]

    def job_ids(self) -> list[str]:
        return sorted({j for _, _, _, ids in self._columns for j in ids})

    def _rows(self) -> Iterator[tuple[float, float, float, str]]:
        """Every slice as ``(start, end, speed, job_id)``, machine by machine,
        in the order added."""
        for columns in self._columns:
            yield from zip(*columns)

    # -- aggregates --------------------------------------------------------------

    def work_of(self, job_id: str) -> float:
        """Total work executed for ``job_id`` across all machines."""
        return sum(v * (b - a) for a, b, v, j in self._rows() if j == job_id)

    def work_by_job(self) -> dict[str, float]:
        acc: dict[str, float] = defaultdict(float)
        for starts, ends, speeds, ids in self._columns:
            for a, b, v, j in zip(starts, ends, speeds, ids):
                acc[j] += v * (b - a)
        return dict(acc)

    def completion_time(self, job_id: str) -> float:
        """Latest end time of any slice of ``job_id`` (-inf when absent)."""
        return self.completion_times().get(job_id, float("-inf"))

    def completion_times(self) -> dict[str, float]:
        """:meth:`completion_time` of every scheduled job, in one pass."""
        done: dict[str, float] = {}
        for _, ends, _, ids in self._columns:
            for b, j in zip(ends, ids):
                if b > done.get(j, float("-inf")):
                    done[j] = b
        return done

    def machine_profile(self, machine: int) -> SpeedProfile:
        """The speed profile of one machine."""
        starts, ends, speeds, _ = self._columns[machine]
        return SpeedProfile(Segment(*row) for row in zip(starts, ends, speeds))

    def energy(self, power: PowerFunction) -> float:
        """Total energy over all machines."""
        speeds = _pk.as_float_array([v for _, _, v, _ in self._rows()])
        durations = _pk.as_float_array([b - a for a, b, _, _ in self._rows()])
        return _pk.sequential_sum(_pk.powers(speeds, power.alpha) * durations)

    def max_speed(self) -> float:
        """Peak speed over all machines and times."""
        return _pk.max_speed(
            _pk.as_float_array([v for _, _, speeds, _ in self._columns for v in speeds])
        )

    def span(self) -> tuple[float, float]:
        starts = [a for s, _, _, _ in self._columns for a in s]
        if not starts:
            return (0.0, 0.0)
        return (min(starts), max(b for _, e, _, _ in self._columns for b in e))

    def busy_time(self, machine: int) -> float:
        """Total time ``machine`` spends executing (sum of slice durations)."""
        self._check_machine(machine)
        starts, ends, _, _ = self._columns[machine]
        return sum(b - a for a, b in zip(starts, ends))

    def utilization(self, machine: int, horizon: tuple[float, float] | None = None) -> float:
        """Fraction of the horizon ``machine`` is busy (horizon = span default)."""
        lo, hi = horizon if horizon is not None else self.span()
        if hi <= lo:
            return 0.0
        return self.busy_time(machine) / (hi - lo)

    def __repr__(self) -> str:
        n = sum(len(ids) for _, _, _, ids in self._columns)
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
