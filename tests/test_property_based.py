"""Property-based tests (hypothesis) on core invariants.

These cover the load-bearing mathematical facts the paper's analyses rely
on: Lemma 3.1's per-job guarantee, YDS optimality/dominance, AVR and BKP
feasibility, profile algebra, and the information-hiding protocol.
"""

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.constants import PHI
from repro.core.edf import run_edf
from repro.core.job import Job
from repro.core.power import PowerFunction
from repro.core.profile import Segment, SpeedProfile, sum_profiles
from repro.core.qjob import QJob
from repro.speed_scaling.avr import avr, avr_profile
from repro.speed_scaling.bkp import bkp
from repro.speed_scaling.yds import yds, yds_profile

# -- strategies --------------------------------------------------------------------

finite = st.floats(
    min_value=0.05, max_value=50.0, allow_nan=False, allow_infinity=False
)


@st.composite
def classical_jobs(draw, max_jobs=6):
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    for i in range(n):
        r = draw(st.floats(min_value=0.0, max_value=10.0))
        span = draw(st.floats(min_value=0.1, max_value=5.0))
        w = draw(st.floats(min_value=0.0, max_value=10.0))
        jobs.append(Job(r, r + span, w, f"h{i}"))
    return jobs


@st.composite
def qjobs(draw):
    r = draw(st.floats(min_value=0.0, max_value=5.0))
    span = draw(st.floats(min_value=0.2, max_value=5.0))
    w = draw(st.floats(min_value=0.1, max_value=10.0))
    c = draw(st.floats(min_value=1e-3, max_value=1.0)) * w
    wstar = draw(st.floats(min_value=0.0, max_value=1.0)) * w
    return QJob(r, r + span, c, w, min(wstar, w))


@st.composite
def segment_lists(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    segs, t = [], 0.0
    for _ in range(n):
        gap = draw(st.floats(min_value=0.0, max_value=1.0))
        length = draw(st.floats(min_value=0.1, max_value=2.0))
        speed = draw(st.floats(min_value=0.0, max_value=5.0))
        start = t + gap
        segs.append((start, start + length, speed))
        t = start + length
    return [Segment(a, b, s) for a, b, s in segs if s > 0]


# -- Lemma 3.1 ----------------------------------------------------------------------


@given(qjobs())
def test_lemma31_golden_rule_guarantee(qjob):
    """If the golden rule is followed, the load run is <= phi * p*."""
    if qjob.query_cost <= qjob.work_upper / PHI:
        executed = qjob.query_cost + qjob.work_true
    else:
        executed = qjob.work_upper
    assert executed <= PHI * qjob.optimal_load * (1 + 1e-9)


@given(qjobs())
def test_optimal_load_definition(qjob):
    assert qjob.optimal_load <= qjob.work_upper + 1e-12
    assert qjob.optimal_load <= qjob.query_cost + qjob.work_true + 1e-12


# -- profile algebra ----------------------------------------------------------------


@given(segment_lists())
def test_profile_work_equals_segment_sum(segs):
    prof = SpeedProfile(segs)
    # abs tolerance covers the constructor's EPS-merging of adjacent
    # segments with near-equal speeds (error <= EPS * total duration)
    total_duration = sum(s.duration for s in segs)
    assert math.isclose(
        prof.total_work(),
        sum(s.work for s in segs),
        rel_tol=1e-9,
        abs_tol=1e-9 * max(1.0, total_duration),
    )


@given(segment_lists(), st.floats(min_value=0.0, max_value=4.0))
# Speeds 1 and 2 scaled to 1e-9 and 2e-9 differ by under the absolute EPS;
# they must stay two segments.
@example(segs=[Segment(0.0, 1.0, 1.0), Segment(1.0, 2.0, 2.0)], k=1e-9)
def test_profile_scale_linearity(segs, k):
    prof = SpeedProfile(segs)
    assert math.isclose(
        prof.scale(k).total_work(), k * prof.total_work(), rel_tol=1e-9, abs_tol=1e-9
    )


@given(segment_lists(), segment_lists())
def test_sum_profiles_pointwise(a_segs, b_segs):
    a, b = SpeedProfile(a_segs), SpeedProfile(b_segs)
    s = sum_profiles([a, b])
    pts = sorted(set(a.breakpoints()) | set(b.breakpoints()))
    for lo, hi in zip(pts, pts[1:]):
        if hi - lo <= 1e-9:
            # sub-tolerance slivers are deliberately collapsed by the sum
            continue
        mid = 0.5 * (lo + hi)
        # abs tolerance >= the constructor's EPS merge threshold: adjacent
        # segments whose speeds differ by <= 1e-9 are deliberately merged
        assert math.isclose(
            s.speed_at(mid),
            a.speed_at(mid) + b.speed_at(mid),
            rel_tol=1e-9,
            abs_tol=5e-9,
        )


@given(segment_lists(), st.floats(min_value=1.5, max_value=4.0))
def test_energy_scaling_power_law(segs, alpha):
    prof = SpeedProfile(segs)
    p = PowerFunction(alpha)
    assert math.isclose(
        prof.scale(2.0).energy(p), 2.0**alpha * prof.energy(p), rel_tol=1e-9,
        abs_tol=1e-12,
    )


# -- YDS ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(classical_jobs())
def test_yds_conserves_work_and_is_feasible(jobs):
    result = yds(jobs)
    total = sum(j.work for j in jobs)
    assert math.isclose(
        result.profile.total_work(), total, rel_tol=1e-6, abs_tol=1e-6
    )
    # EDF under the YDS profile completes everything
    assert run_edf(jobs, result.profile).feasible


@settings(max_examples=40, deadline=None)
@given(classical_jobs(), st.floats(min_value=1.5, max_value=4.0))
def test_yds_no_worse_than_avr(jobs, alpha):
    """AVR is feasible, so the optimum can only be cheaper."""
    p = PowerFunction(alpha)
    assert yds_profile(jobs).energy(p) <= avr_profile(jobs).energy(p) * (1 + 1e-6)


@settings(max_examples=30, deadline=None)
@given(classical_jobs())
def test_yds_speeds_dominated_by_total_density_peak(jobs):
    """The YDS max speed never exceeds the AVR peak (sum of densities)."""
    assert yds_profile(jobs).max_speed() <= avr_profile(jobs).max_speed() * (
        1 + 1e-9
    )


# -- AVR / BKP feasibility -----------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(classical_jobs())
def test_avr_always_feasible(jobs):
    assert avr(jobs).feasible


@settings(max_examples=20, deadline=None)
@given(classical_jobs(max_jobs=4))
def test_bkp_always_feasible(jobs):
    assert bkp(jobs).feasible


# -- EDF dominance -------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(classical_jobs(), st.floats(min_value=1.0, max_value=2.0))
def test_edf_feasible_for_scaled_up_yds(jobs, factor):
    """Any profile dominating the YDS profile is EDF-feasible."""
    prof = yds_profile(jobs).scale(factor)
    assert run_edf(jobs, prof).feasible


# -- executor / validator cross-validation --------------------------------------------


@settings(max_examples=30, deadline=None)
@given(classical_jobs(), st.floats(min_value=0.1, max_value=3.0))
def test_edf_output_always_passes_the_checker(jobs, speed):
    """Whatever EDF produces (even on starved profiles) is a valid partial
    schedule: windows respected, no overlap, never over-executed."""
    from repro.core.feasibility import check_feasible
    from repro.core.instance import Instance

    span_end = max(j.deadline for j in jobs)
    profile = SpeedProfile.constant(0.0, span_end, speed)
    result = run_edf(jobs, profile)
    report = check_feasible(
        result.schedule, Instance(jobs), require_all_work=False
    )
    assert report.ok, report.violations


@settings(max_examples=30, deadline=None)
@given(classical_jobs())
def test_edf_executed_plus_unfinished_accounts_for_all_work(jobs):
    from repro.speed_scaling.avr import avr_profile

    profile = avr_profile(jobs)
    result = run_edf(jobs, profile)
    executed = sum(result.schedule.work_by_job().values())
    leftover = sum(result.unfinished.values())
    total = sum(j.work for j in jobs)
    # abs tolerance covers forgiven float-dust residuals (see design notes:
    # bounded by tol * #events * max_speed)
    assert math.isclose(executed + leftover, total, rel_tol=1e-6, abs_tol=1e-4)


# -- query protocol ------------------------------------------------------------------


@given(qjobs())
def test_view_reveal_protocol(qjob):
    v = qjob.view()
    mid = qjob.midpoint
    got = v.reveal(mid)
    assert got == qjob.work_true
    assert v.revealed_at == mid
