"""The columnar schedule, the pointer EDF, the columnar feasibility check and
the online derivation against the object paths they replaced.

``tests/_reference_objects.py`` keeps the schedule of one ``Slice`` per
slice, the heap EDF that looked up every step with ``bisect_right`` and
``speed_at``, the feasibility walk over ``Slice`` objects and the
derivation through ``Arrival`` objects.  The live code must equal them
exactly: the same slices (``float.hex``), ``unfinished`` maps, feasibility
reports (texts and order), derived jobs, decisions and revelation stamps.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference_objects as ref
from repro.core.constants import EPS, PHI
from repro.core.edf import run_edf
from repro.core.feasibility import check_feasible
from repro.core.instance import Instance, QBSSInstance
from repro.core.job import Job
from repro.core.profile import Segment, SpeedProfile
from repro.core.qjob import QJob
from repro.core.schedule import Schedule
from repro.qbss.policies import (
    AlwaysQuery,
    EqualWindowSplit,
    FixedSplit,
    NeverQuery,
    ProportionalSplit,
    ThresholdQuery,
    golden_ratio_policy,
)
from repro.qbss.transform import derive_online
from repro.speed_scaling.avr import avr_profile
from repro.speed_scaling.bkp import bkp_profile
from repro.speed_scaling.yds import yds_profile

# -- strategies --------------------------------------------------------------------

#: Times on a coarse grid (equal releases, deadlines and breakpoints are
#: common) plus shifts of about EPS and a large origin.
GRID = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
JITTER = st.sampled_from([0.0, 0.0, EPS * 0.5, EPS, EPS * 1.5])
ORIGINS = st.sampled_from([0.0, 0.0, 100.0, 2.0**20])


@st.composite
def classical_jobs(draw, max_jobs=7):
    origin = draw(ORIGINS)
    jobs = []
    for i in range(draw(st.integers(1, max_jobs))):
        r = origin + draw(GRID) + draw(JITTER)
        d = r + draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]) | st.floats(0.01, 3.0))
        w = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(1e-12, 5.0))
        jobs.append(Job(r, d, w, f"j{i}"))
    return jobs


def _hex(x) -> str:
    return float(x).hex()


def _slices(schedule) -> list:
    return [(_hex(s.start), _hex(s.end), _hex(s.speed), s.job_id) for s in schedule.slices()]


def _unfinished(result) -> list:
    return [(k, _hex(v)) for k, v in result.unfinished.items()]


def _profiles(jobs):
    """Kernel-built profiles (BKP, AVR, YDS, starved) and one built from
    segments, which EDF reads without the kernel."""
    yield yds_profile(jobs)
    yield yds_profile(jobs).scale(0.7)  # starved: leaves unfinished work
    yield bkp_profile(jobs)
    yield avr_profile(jobs)
    yield SpeedProfile(Segment(j.release, j.deadline, 1.0 + k) for k, j in enumerate(jobs[:1]))


# -- EDF ------------------------------------------------------------------------------

EXPIRED_BEHIND_LATER = [
    Job(0.0, 0.5, 1.0, "early"),
    Job(0.25, 3.0, 1.0, "late"),
    Job(1.0, 1.5, 2.0, "spike"),
]
#: Breakpoints and events closer than EPS: the sliver branch credits them.
SLIVERS = [
    Job(0.0, 1.0, 1.0, "a"),
    Job(0.5e-9, 1.0 + 0.5e-9, 1.0, "b"),
    Job(1.0 + 0.9e-9, 2.0, 0.5, "c"),
]


@settings(max_examples=80, deadline=None)
@given(classical_jobs())
@example(EXPIRED_BEHIND_LATER)
@example(SLIVERS)
@example([Job(2.0**24, 2.0**24 + 1.0, 1.0, "big"), Job(2.0**24 + 0.5, 2.0**24 + 2.0, 3.0, "b2")])
def test_edf_equals_the_heap_with_slice_objects(jobs):
    for profile in _profiles(jobs):
        new, old = run_edf(jobs, profile), ref.run_edf(jobs, profile)
        assert isinstance(old.schedule, ref.ObjectSchedule)
        assert _slices(new.schedule) == _slices(old.schedule)
        assert _unfinished(new) == _unfinished(old)
        # The columns hold the slices in the order EDF ran them.
        starts, ends, speeds, ids = new.schedule.columns(0)
        assert list(zip(starts, ends, speeds, ids)) == [
            (s.start, s.end, s.speed, s.job_id) for s in old.schedule._slices[0]
        ]


def test_edf_reads_a_segment_starting_at_a_midpoint():
    """The breakpoint 0.8e-9 collapses into the event at 0, and the first
    midpoint, 0.5 * (0 + 1.6e-9), is exactly where the second segment
    starts: the speed there is the second segment's."""
    profile = SpeedProfile([Segment(0.0, 0.8e-9, 1.0), Segment(0.8e-9, 5.0, 2.0)])
    jobs = [Job(0.0, 1.6e-9, 1e-9, "short"), Job(0.0, 5.0, 1.0, "long")]
    new, old = run_edf(jobs, profile), ref.run_edf(jobs, profile)
    assert _slices(new.schedule) == _slices(old.schedule)
    assert new.schedule.slices()[0].speed == 2.0
    assert _unfinished(new) == _unfinished(old)


def test_edf_places_its_slices_on_the_given_machine():
    jobs = [Job(0.0, 1.0, 1.0, "a")]
    result = run_edf(jobs, SpeedProfile.constant(0.0, 1.0, 1.0), machine=1, machines=2)
    assert result.schedule.slices(1) and not result.schedule.slices(0)
    assert _slices(result.schedule) == _slices(
        ref.run_edf(jobs, SpeedProfile.constant(0.0, 1.0, 1.0), machine=1, machines=2).schedule
    )


# -- the schedule's aggregates ----------------------------------------------------------


def _both(rows, machines):
    new, old = Schedule(machines), ref.ObjectSchedule(machines)
    for start, end, speed, job_id, machine in rows:
        new.add(start, end, speed, job_id, machine)
        old.add(start, end, speed, job_id, machine)
    return new, old


@st.composite
def slice_rows(draw, machines=3):
    """Arbitrary slices: some outside their job's window, overlapping,
    of unknown jobs, of zero speed, on any machine."""
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        start = draw(GRID) + draw(JITTER)
        end = start + draw(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(1e-7, 2.0))
        speed = draw(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 4.0))
        job_id = draw(st.sampled_from(["a", "b", "c", "ghost"]))
        rows.append((start, end, speed, job_id, draw(st.integers(0, machines - 1))))
    return rows


INSTANCE_JOBS = [Job(0.0, 2.0, 1.0, "a"), Job(0.5, 3.0, 2.0, "b"), Job(1.0, 1.5, 0.5, "c")]


@settings(max_examples=120, deadline=None)
@given(slice_rows(), st.integers(1, 3), st.integers(1, 3), st.booleans())
@example([(0.0, 1.0, 1.0, "a", 0), (1.0 - 1e-6, 2.0, 1.0, "b", 0)], 1, 1, True)
@example([(0.0, 1.0, 1.0, "a", 0), (1.0 - 1e-6, 2.0, 1.0, "a", 1)], 2, 2, True)
@example([(0.5 - 1e-6, 3.0 + 1e-6, 1.0, "b", 0)], 1, 1, False)
def test_feasibility_reports_equal_the_object_walk(rows, machines, instance_machines, all_work):
    rows = [r[:4] + (r[4] % machines,) for r in rows]
    new, old = _both(rows, machines)
    instance = Instance(INSTANCE_JOBS, instance_machines)
    got = check_feasible(new, instance, require_all_work=all_work)
    want = ref.check_feasible(old, instance, require_all_work=all_work)
    assert (got.ok, got.violations) == (want.ok, want.violations)
    # The aggregates add the same values in the same order.
    assert _hex(new.work_of("a")) == _hex(old.work_of("a"))
    assert {k: _hex(v) for k, v in new.work_by_job().items()} == {
        k: _hex(v) for k, v in old.work_by_job().items()
    }
    assert new.completion_times() == old.completion_times()
    assert new.job_ids() == old.job_ids()
    assert new.span() == old.span()
    assert [s for per in new.machine_slices() for s in per] == [
        s for per in old.machine_slices() for s in per
    ]
    for m in range(machines):
        assert _hex(new.busy_time(m)) == _hex(old.busy_time(m))
        assert _outcome(new.machine_profile, m) == _outcome(old.machine_profile, m)


def _outcome(fn, *args):
    """``fn(*args)``, or the text of the ``ValueError`` it raised."""
    try:
        return ("value", fn(*args))
    except ValueError as exc:
        return ("error", str(exc))


@settings(max_examples=40, deadline=None)
@given(classical_jobs())
def test_feasibility_of_edf_schedules_equals_the_object_walk(jobs):
    instance = Instance(jobs)
    for profile in _profiles(jobs):
        new, old = run_edf(jobs, profile), ref.run_edf(jobs, profile)
        got, want = check_feasible(new.schedule, instance), ref.check_feasible(
            old.schedule, instance
        )
        assert (got.ok, got.violations) == (want.ok, want.violations)


def test_add_keeps_its_checks():
    import pytest

    s = Schedule(2)
    with pytest.raises(ValueError, match="out of range"):
        s.add(0.0, 1.0, 1.0, "a", machine=2)
    with pytest.raises(ValueError, match="must exceed start"):
        s.add(1.0, 1.0, 1.0, "a")
    s.add(0.0, 1.0, 0.0, "idle")  # zero speed: no slice
    assert s.slices() == [] and s.columns(0) == ([], [], [], [])


# -- the online derivation ---------------------------------------------------------


@st.composite
def qbss_instances(draw):
    jobs = []
    for i in range(draw(st.integers(1, 8))):
        r = draw(GRID) + draw(JITTER)
        d = r + draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.01, 3.0))
        w = draw(st.sampled_from([1.0, 2.0]) | st.floats(0.01, 5.0))
        c = draw(st.sampled_from([min(0.1, w), w / PHI, w]) | st.floats(1e-6, w))
        jobs.append(QJob(r, d, c, w, draw(st.floats(0.0, w)), f"q{i}"))
    return QBSSInstance(jobs)


QUERY_POLICIES = [AlwaysQuery(), NeverQuery(), golden_ratio_policy(), ThresholdQuery(0.3)]
SPLIT_POLICIES = [EqualWindowSplit(), FixedSplit(0.2), FixedSplit(0.9), ProportionalSplit()]


def _derived(d) -> tuple:
    return (
        [(j.id, _hex(j.release), _hex(j.deadline), _hex(j.work)) for j in d.jobs],
        dict(d.decisions.decisions),
        [(v.id, v.revealed_at) for v in d.views],
    )


@settings(max_examples=80, deadline=None)
@given(
    qbss_instances(),
    st.sampled_from(QUERY_POLICIES),
    st.sampled_from(SPLIT_POLICIES),
)
def test_derive_online_equals_the_arrival_stream(qi, query, split):
    new, old = derive_online(qi, query, split), ref.derive_online(qi, query, split)
    assert _derived(new) == _derived(old)
    # The stream is the jobs, each arriving at its own release.
    assert [(a.time, a.job) for a in new.stream] == [(j.release, j) for j in old.jobs]


def test_derived_jobs_keep_derivation_order_among_equal_releases():
    """A revealed job whose split point equals a later job's release
    arrives before it, as the stable stream sort ordered them."""
    qi = QBSSInstance(
        [
            QJob(0.0, 2.0, 0.1, 1.0, 0.5, "first"),  # split point 1.0
            QJob(1.0, 3.0, 0.1, 1.0, 0.5, "second"),
        ]
    )
    d = derive_online(qi, AlwaysQuery(), EqualWindowSplit())
    assert [j.id for j in d.jobs] == [
        "first:query", "first:work", "second:query", "second:work"
    ]
    assert math.isclose(d.views[0].revealed_at, 1.0)
