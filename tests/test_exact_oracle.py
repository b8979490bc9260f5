"""The float YDS and BKP kernels against exact rational arithmetic.

``tests/_exact_oracle.py`` computes YDS (repeated removal of the densest
interval, with timeline excision) and BKP's intensity in
:class:`fractions.Fraction`.  Unlike the kernel oracles, it shares no code
and no EPS decision with the float path, so these properties check the
float code against the mathematics, not against an older copy of itself.
Times sit on a 1e-3 grid, far from every EPS tolerance, and the answers
must agree to 1e-12 relative.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import _exact_oracle as exact
from repro.core.constants import E_CONST
from repro.core.job import Job
from repro.core.power import PowerFunction
from repro.speed_scaling.bkp import bkp_profile
from repro.speed_scaling.yds import yds_profile

REL = 1e-12

GRID = st.integers(0, 10_000).map(lambda k: k / 1000)
SPANS = st.integers(1, 10_000).map(lambda k: k / 1000)
WORKS = st.integers(1, 5_000).map(lambda k: k / 1000)


@st.composite
def grid_jobs(draw, max_jobs=8):
    """Up to 8 jobs with releases, spans and works on a 1e-3 grid."""
    jobs = []
    for i in range(draw(st.integers(1, max_jobs))):
        r = draw(GRID)
        jobs.append(Job(r, r + draw(SPANS), draw(WORKS), f"j{i}"))
    return jobs


NESTED = [
    Job(0.0, 10.0, 1.0, "outer"),
    Job(2.0, 3.0, 4.0, "spike"),
    Job(4.0, 6.0, 1.5, "mid"),
    Job(1.0, 9.0, 0.5, "wide"),
]
EQUAL_WINDOWS = [Job(0.0, 1.0, 1.0, "a"), Job(0.0, 1.0, 2.0, "b"), Job(1.0, 2.0, 1.0, "c")]
TWO_PERIODS = [Job(0.0, 1.0, 2.0, "a"), Job(5.0, 5.5, 1.0, "b"), Job(5.25, 7.0, 0.25, "c")]


def _close(got: float, want: Fraction) -> bool:
    return math.isclose(got, float(want), rel_tol=REL, abs_tol=0.0)


@settings(max_examples=150, deadline=None)
@given(grid_jobs())
@example(NESTED)
@example(EQUAL_WINDOWS)
@example(TWO_PERIODS)
def test_yds_energy_and_peak_are_exact(jobs):
    profile = yds_profile(jobs)
    assert _close(profile.energy(PowerFunction(3.0)), exact.yds_energy(jobs, 3))
    assert _close(profile.max_speed(), exact.yds_max_speed(jobs))


@settings(max_examples=150, deadline=None)
@given(grid_jobs())
@example(NESTED)
@example(EQUAL_WINDOWS)
@example(TWO_PERIODS)
def test_bkp_speed_is_e_times_the_exact_intensity(jobs):
    profile = bkp_profile(jobs)
    events = sorted({j.release for j in jobs} | {j.deadline for j in jobs})
    for a, b in zip(events, events[1:]):
        mid = 0.5 * (a + b)
        want = exact.bkp_intensity(jobs, Fraction(mid))
        got = profile.speed_at(mid)
        if want == 0:
            assert got == 0.0
        else:
            assert math.isclose(got, E_CONST * float(want), rel_tol=REL, abs_tol=0.0)


def test_oracle_on_a_hand_checked_instance():
    """NESTED: the spike alone is densest (4 on [2, 3]); after excising it
    the window [4, 6] holds 1.5 over 2; then the outer and wide jobs share
    the 7 units left of [0, 10]."""
    assert exact.yds_intervals(NESTED) == [
        (Fraction(4), Fraction(1)),
        (Fraction(3, 4), Fraction(2)),
        (Fraction(3, 14), Fraction(7)),
    ]
    assert exact.yds_max_speed(NESTED) == 4
