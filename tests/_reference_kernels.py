"""The pre-histogram EDF, BKP and YDS kernels and the per-record synthesizer:
test oracles for the live ones.

Before the window-sum kernel (:func:`repro.core.profile_kernel.window_work`),
BKP and YDS rebuilt a ``starts x jobs x ends`` matmul at every step, YDS ran
on one timeline for the whole instance, and :func:`run_edf` rescanned every
job and event at every step.  Those versions live on here with their
arithmetic unchanged:

* :func:`run_edf` must give bit-identical schedules and ``unfinished`` maps
  (the heap picks the same job at the same instant);
* :func:`bkp_profile` and :func:`yds_profile` must agree with the live code
  to rounding only (the histogram sums in a different order than BLAS).

Before the vectorized seeding kernel
(:func:`repro.traces.synthesize._pcg64_states`), the synthesizer built one
``default_rng((seed, index))`` per record; :func:`synthesize_job` keeps that
path, ``np.clip`` included, and the live ``synthesize_jobs`` must equal it
bit for bit.

Test use only.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.core import profile_kernel as _pk
from repro.core.constants import E_CONST, EPS, PHI
from repro.core.edf import EDFResult
from repro.core.job import Job
from repro.core.profile import Segment, SpeedProfile
from repro.core.qjob import QJob
from repro.core.schedule import Schedule
from repro.core.timeline import dedupe_times
from repro.speed_scaling.yds import (
    TimelineCompressor,
    _criticals_profile,
    _DiscoveryStep,
    _step_critical,
)
from repro.traces.records import TraceRecord
from repro.traces.synthesize import QUERY_FRAC_HIGH, QUERY_FRAC_LOW, NoiseModel

# -- EDF: candidate scan and linear breakpoint search ---------------------------------


def run_edf(
    jobs: Sequence[Job],
    profile: SpeedProfile,
    machine: int = 0,
    machines: int = 1,
    tol: float = EPS,
) -> EDFResult:
    schedule = Schedule(machines)
    remaining: dict[str, float] = {
        j.id: j.work for j in jobs if j.work > tol
    }
    by_id: dict[str, Job] = {j.id: j for j in jobs}

    if not remaining:
        return EDFResult(schedule)

    events = dedupe_times(
        [j.release for j in jobs]
        + [j.deadline for j in jobs]
        + profile.breakpoints(),
        tol,
    )
    horizon = max(
        max(j.deadline for j in jobs),
        profile.end if not profile.is_empty else 0.0,
    )

    t = events[0]
    while t < horizon - tol and remaining:
        nxt = horizon
        for e in events:
            if e > t:
                nxt = e
                break
        speed = profile.speed_at(0.5 * (t + nxt))
        cands = [
            by_id[jid]
            for jid, rem in remaining.items()
            if by_id[jid].release <= t + tol and by_id[jid].deadline > t + tol
        ]
        if not cands or speed <= 0.0:
            t = nxt
            continue
        job = min(cands, key=lambda j: (j.deadline, j.id))
        rem = remaining[job.id]
        finish_in = rem / speed
        run_until = min(nxt, t + finish_in, job.deadline)
        if run_until <= t + tol:
            if rem <= speed * tol * (1 + 1e-6):
                del remaining[job.id]
                continue
            credited = speed * max(nxt - t, 0.0)
            rem -= credited
            if rem <= tol:
                del remaining[job.id]
            else:
                remaining[job.id] = rem
            t = nxt
            continue
        executed = speed * (run_until - t)
        schedule.add(t, run_until, speed, job.id, machine)
        if executed >= rem - tol * max(1.0, rem):
            del remaining[job.id]
        else:
            remaining[job.id] = rem - executed
        t = run_until

    dust = tol * (1.0 + len(events) * profile.max_speed())
    unfinished = {jid: rem for jid, rem in remaining.items() if rem > dust}
    return EDFResult(schedule, unfinished)


# -- BKP: one matmul per midpoint ------------------------------------------------------


def bkp_intensity_at(jobs: Sequence[Job], t: float) -> float:
    arrived = [j for j in jobs if j.release <= t and j.work > 0]
    if not arrived:
        return 0.0
    r = np.array([j.release for j in arrived])
    d = np.array([j.deadline for j in arrived])
    w = np.array([j.work for j in arrived])

    t1s = np.array(dedupe_times(r[r < t]))
    t2s = np.array(dedupe_times(d[d >= t]))
    if t1s.size == 0 or t2s.size == 0:
        return 0.0

    lo = r[None, :] >= t1s[:, None] - EPS
    hi = d[None, :] <= t2s[:, None] + EPS
    work = (lo * w[None, :]) @ hi.T.astype(float)
    span = t2s[None, :] - t1s[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(span > EPS, work / span, 0.0)
    return float(ratio.max(initial=0.0))


def bkp_profile(jobs: Sequence[Job]) -> SpeedProfile:
    live = [j for j in jobs if j.work > EPS]
    if not live:
        return SpeedProfile()
    events = dedupe_times(
        [j.release for j in live] + [j.deadline for j in live]
    )
    segments = []
    for a, b in zip(events, events[1:]):
        mid = 0.5 * (a + b)
        speed = E_CONST * bkp_intensity_at(live, mid)
        if speed > 0:
            segments.append(Segment(a, b, speed))
    return SpeedProfile(segments)


# -- YDS: one timeline, one matmul per critical interval ------------------------------


def _max_intensity(
    jobs: Sequence[Job], compressor: TimelineCompressor
) -> tuple[float, float, float, list[Job], list[tuple[float, float]]] | None:
    comp_all = compressor.compress_many(
        [j.release for j in jobs] + [j.deadline for j in jobs]
    )
    comp_r, comp_d = comp_all[: len(jobs)], comp_all[len(jobs):]
    starts = _pk.collapse_times(comp_r)
    ends = _pk.collapse_times(comp_d)
    works = np.array([j.work for j in jobs])

    in_start = comp_r[None, :] >= starts[:, None] - EPS
    in_end = comp_d[None, :] <= ends[:, None] + EPS
    work_matrix = (in_start * works[None, :]) @ in_end.T.astype(float)

    lengths = ends[None, :] - starts[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        intensity = np.where(lengths > EPS, work_matrix / lengths, -np.inf)
    intensity[work_matrix <= 0] = -np.inf

    flat = int(np.argmax(intensity))
    i, k = divmod(flat, intensity.shape[1])
    if not np.isfinite(intensity[i, k]):
        return None
    a, b = float(starts[i]), float(ends[k])
    inside: list[Job] = []
    windows: list[tuple[float, float]] = []
    for j, r, d in zip(jobs, comp_r.tolist(), comp_d.tolist()):
        if r >= a - EPS and d <= b + EPS:
            inside.append(j)
            windows.append((r, d))
    return (float(intensity[i, k]), a, b, inside, windows)


def discover(jobs: Sequence[Job]) -> Iterator[_DiscoveryStep]:
    pending = [j for j in jobs if j.work > EPS]
    if not pending:
        return
    origin = min(j.release for j in pending)
    compressor = TimelineCompressor(origin)
    while pending:
        found = _max_intensity(pending, compressor)
        if found is None:
            break
        speed, c1, c2, critical_jobs, comp_windows = found
        original_cover = compressor.expand_interval(c1, c2)
        yield _DiscoveryStep(
            speed, c1, c2, critical_jobs, comp_windows, original_cover, compressor
        )
        compressor.cut(original_cover)
        scheduled_ids = {j.id for j in critical_jobs}
        pending = [j for j in pending if j.id not in scheduled_ids]


def yds_criticals(jobs: Sequence[Job]):
    """The critical-interval decomposition, in discovery order."""
    return [_step_critical(step) for step in discover(jobs)]


def yds_profile(jobs: Sequence[Job]) -> SpeedProfile:
    return _criticals_profile(yds_criticals(jobs))


# -- synthesis: one default_rng per record ---------------------------------------------


def record_rng(seed: int, index: int) -> np.random.Generator:
    """Per-record generator — chunking/sharding cannot change the draws."""
    return np.random.default_rng((seed, index))


def synthesize_job(
    record: TraceRecord,
    model: NoiseModel,
    *,
    seed: int = 0,
    deadline_slack: float = 2.0,
) -> QJob:
    if record.runtime <= 0.0:
        raise ValueError(f"record {record.id}: runtime must be > 0")
    if deadline_slack <= 0.0:
        raise ValueError(f"deadline_slack must be > 0, got {deadline_slack}")
    w_star = record.runtime
    rng = record_rng(seed, record.index)
    w = float(model.draw_upper(rng, w_star))
    w = max(w, w_star)  # defensive: the contract, even for custom models

    if record.query_cost is not None:
        c = min(record.query_cost, w)
    elif model.name == "adversarial":
        c = max(w_star, 1.0) / PHI
    else:
        c = float(rng.uniform(QUERY_FRAC_LOW, QUERY_FRAC_HIGH)) * w
    c = float(np.clip(c, np.nextafter(0.0, 1.0), w))

    if record.deadline is not None:
        d = record.deadline
    else:
        base = (
            record.requested
            if record.requested is not None and record.requested > 0
            else w_star
        )
        d = record.release + deadline_slack * base
    if d <= record.release:
        raise ValueError(
            f"record {record.id}: derived deadline {d} does not exceed "
            f"release {record.release}"
        )
    return QJob(
        release=record.release,
        deadline=d,
        query_cost=c,
        work_upper=w,
        work_true=w_star,
        id=record.id,
    )
