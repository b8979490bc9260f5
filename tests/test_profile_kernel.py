"""The kernel determinism contract: numpy path == pure-Python path, bitwise.

The whole point of ``repro.core.profile_kernel`` is that it may not change
a single bit of any published number — cached engine entries, replay
reports and golden experiment outputs must survive the swap.  These tests
pin that:

* hypothesis equality suite — every kernel-dispatched operation on random
  breakpoint profiles equals the pure-Python reference **bit for bit**
  (``struct.pack`` comparison, not ``isclose``);
* the density stack — ``combine`` (``sum_profiles``, ``max_profiles``,
  ``avr_profile``) equals the loops at cell budgets small enough to cross
  every column block, and its memory stays bounded by the budget;
* YDS — the vectorised compressed-timeline arithmetic and the
  discovery-only :func:`~repro.speed_scaling.yds.yds_profile` fast path
  reproduce the original schedules and profiles exactly;
* replay byte-identity — a kernel-backed replay serialises to the same
  JSON bytes as the pre-kernel pure-Python path (the acceptance test for
  ``qbss-replay``).

The pure-Python reference is the pre-kernel loops kept in
``tests/_reference_profile.py``; ``reference_mode()`` patches them in.
"""

import importlib
import json
import random
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference_kernels as kernels
import _reference_profile as oracle
from _reference_profile import KernelPathReached, reference_mode
from repro.core import profile_kernel as pk
from repro.core.constants import EPS
from repro.core.job import Job
from repro.core.power import PowerFunction
from repro.core.profile import (
    Segment,
    SpeedProfile,
    max_profiles,
    profiles_energy,
    profiles_max_speed,
    sum_profiles,
)
from repro.core.qjob import QJob
from repro.qbss.policies import AlwaysQuery, EqualWindowSplit
from repro.qbss.transform import derive_online
from repro.speed_scaling.avr import avr_profile
from repro.speed_scaling.bkp import bkp_profile
from repro.speed_scaling.yds import TimelineCompressor, yds, yds_profile
from repro.workloads.generators import online_instance


def bits(x: float) -> bytes:
    """The exact IEEE-754 byte pattern (equality stricter than ==)."""
    return struct.pack("<d", float(x))


def same_number(a, b) -> bool:
    """Bitwise equality, including the int-0 vs float-0.0 distinction."""
    if isinstance(a, int) != isinstance(b, int):
        return False
    if isinstance(a, int):
        return a == b
    return bits(a) == bits(b)


def profile_bits(p: SpeedProfile) -> list[tuple[bytes, bytes, bytes]]:
    return [(bits(s.start), bits(s.end), bits(s.speed)) for s in p.segments]


# -- strategies ---------------------------------------------------------------------


@st.composite
def breakpoint_profiles(draw, max_segments=8):
    """Random non-overlapping segment lists, gaps and touches included."""
    n = draw(st.integers(min_value=0, max_value=max_segments))
    t = draw(st.floats(min_value=-5.0, max_value=5.0))
    segs = []
    for _ in range(n):
        gap = draw(st.sampled_from([0.0, 0.3, 1.7]))
        dur = draw(st.floats(min_value=1e-3, max_value=4.0))
        speed = draw(
            st.one_of(
                st.floats(min_value=0.0, max_value=8.0),
                st.sampled_from([0.0, 1.0, 2.0]),
            )
        )
        start = t + gap
        segs.append(Segment(start, start + dur, speed) if speed > 0 else None)
        t = start + dur
    return [s for s in segs if s is not None]


@st.composite
def admitted_segments(draw, max_segments=5):
    """:func:`breakpoint_profiles` plus the sub-EPS corners the constructor
    admits: durations, gaps and overlaps under EPS, and equal starts (a
    segment may start where a sub-EPS one did)."""
    n = draw(st.integers(min_value=0, max_value=max_segments))
    start = draw(st.floats(min_value=-5.0, max_value=5.0))
    segs = []
    for _ in range(n):
        dur = draw(
            st.one_of(
                st.floats(min_value=1e-3, max_value=4.0),
                st.sampled_from([3e-10, 1.0]),
            )
        )
        speed = draw(
            st.one_of(
                st.floats(min_value=0.0, max_value=8.0),
                st.sampled_from([0.0, 1.0, 2.0]),
            )
        )
        if speed > 0:
            segs.append(Segment(start, start + dur, speed))
        if dur < EPS and draw(st.booleans()):
            continue  # the next segment starts where this one did
        gaps = [0.0, 0.3, 1.7, 4e-10] + ([-4e-10] if dur > EPS else [])
        start = start + dur + draw(st.sampled_from(gaps))
    return segs


alphas = st.sampled_from([1.5, 2.0, 2.5, 3.0, 3.7])
queries = st.floats(min_value=-6.0, max_value=40.0, allow_nan=False)


def sum_and_max_bits(segment_lists):
    profiles = [SpeedProfile(segs) for segs in segment_lists]
    return (
        profile_bits(sum_profiles(profiles)),
        profile_bits(max_profiles(profiles)),
    )


def assert_stack_matches_reference(segment_lists):
    """Kernel sum and max equal the loops bit for bit, at the default cell
    budget and at budgets small enough to cross every block boundary."""
    with reference_mode():
        expected = sum_and_max_bits(segment_lists)
    for budget in (1, 3, 7, pk._CELL_BUDGET):
        with mock.patch.object(pk, "_CELL_BUDGET", budget):
            assert sum_and_max_bits(segment_lists) == expected, budget


def both_modes(segs, fn):
    """Run ``fn`` on a profile built on the kernel and on the reference loops."""
    kernel = fn(SpeedProfile(segs))
    with reference_mode():
        reference = fn(SpeedProfile(segs))
    return kernel, reference


# -- hypothesis equality suite -------------------------------------------------------


class TestKernelEqualsReference:
    @given(segs=breakpoint_profiles(), alpha=alphas)
    @settings(max_examples=150, deadline=None)
    def test_energy(self, segs, alpha):
        k, r = both_modes(segs, lambda p: p.energy(PowerFunction(alpha)))
        assert same_number(k, r)

    @given(segs=breakpoint_profiles())
    @settings(max_examples=100, deadline=None)
    def test_total_work_and_max_speed(self, segs):
        k, r = both_modes(segs, lambda p: (p.total_work(), p.max_speed()))
        assert same_number(k[0], r[0])
        assert same_number(k[1], r[1])

    @given(segs=breakpoint_profiles(), lo=queries, hi=queries)
    @settings(max_examples=150, deadline=None)
    def test_work_in(self, segs, lo, hi):
        k, r = both_modes(segs, lambda p: p.work_in(lo, hi))
        assert same_number(k, r)

    @given(segs=breakpoint_profiles(), t=queries)
    @settings(max_examples=100, deadline=None)
    def test_speed_at_matches_batched(self, segs, t):
        p = SpeedProfile(segs)
        scalar = p.speed_at(t)
        batched = float(p.speeds_at([t])[0])
        assert bits(scalar) == bits(batched)

    @given(segs=breakpoint_profiles(), factor=st.sampled_from([0.0, 0.5, 1.7, 3.0]))
    @settings(max_examples=100, deadline=None)
    def test_scale(self, segs, factor):
        k, r = both_modes(segs, lambda p: profile_bits(p.scale(factor)))
        assert k == r

    @given(segs=breakpoint_profiles(), lo=queries, hi=queries)
    @settings(max_examples=100, deadline=None)
    def test_restrict(self, segs, lo, hi):
        k, r = both_modes(segs, lambda p: profile_bits(p.restrict(lo, hi)))
        assert k == r

    @given(segs=breakpoint_profiles(), delta=st.floats(-7.0, 7.0))
    @settings(max_examples=80, deadline=None)
    def test_shift(self, segs, delta):
        k, r = both_modes(segs, lambda p: profile_bits(p.shift(delta)))
        assert k == r

    @given(many=st.lists(admitted_segments(), max_size=40))
    @settings(max_examples=100, deadline=None)
    @example(  # subnormal and tiny densities, as the synthesizer's floor gives
        many=[
            [Segment(0.0, 1.0, 5e-324)],
            [Segment(0.5, 2.0, 1e-310), Segment(2.0, 3.0, 1e-4)],
            [Segment(0.25, 3.0, 2.0)],
            [Segment(0.75, 1.5, 5e-324)],
        ]
    )
    def test_sum_and_max_profiles(self, many):
        assert_stack_matches_reference(many)

    @given(segs=breakpoint_profiles(), other=breakpoint_profiles())
    @settings(max_examples=80, deadline=None)
    def test_add_and_dominates(self, segs, other):
        k_add = profile_bits(SpeedProfile(segs) + SpeedProfile(other))
        k_dom = SpeedProfile(segs).dominates(SpeedProfile(other))
        with reference_mode():
            r_add = profile_bits(SpeedProfile(segs) + SpeedProfile(other))
            r_dom = SpeedProfile(segs).dominates(SpeedProfile(other))
        assert k_add == r_add
        assert k_dom == r_dom

    @given(many=st.lists(breakpoint_profiles(max_segments=4), max_size=4), alpha=alphas)
    @settings(max_examples=60, deadline=None)
    def test_profiles_energy_helpers(self, many, alpha):
        power = PowerFunction(alpha)
        ks = [SpeedProfile(s) for s in many]
        k_e, k_s = profiles_energy(ks, power), profiles_max_speed(ks)
        with reference_mode():
            rs = [SpeedProfile(s) for s in many]
            r_e, r_s = profiles_energy(rs, power), profiles_max_speed(rs)
        assert same_number(k_e, r_e)
        assert same_number(k_s, r_s)


# -- the density stack: combine() -------------------------------------------------


def avrq_derived_jobs(n, seed=0):
    """The classical jobs AVRQ hands AVR: a query and a revealed job each."""
    qi = online_instance(n, seed=seed)
    return derive_online(qi, AlwaysQuery(), EqualWindowSplit()).jobs


class TestCombine:
    def test_one_cell_grid_adds_in_profile_order(self):
        """40 rectangles over one cell: a pairwise sum of these speeds
        differs from the sequential one, so only accumulation passes."""
        rng = random.Random(1)
        speeds = [rng.uniform(0.1, 3.0) for _ in range(40)]
        sequential = 0.0
        for v in speeds:
            sequential += v
        assert bits(np.array(speeds)[:, None].sum(axis=0)[0]) != bits(sequential)
        stack = [[Segment(0.0, 1.0, v)] for v in speeds]
        assert profile_bits(sum_profiles([SpeedProfile(s) for s in stack])) == [
            (bits(0.0), bits(1.0), bits(sequential))
        ]
        assert_stack_matches_reference(stack)

    def test_equal_starts_later_segment_wins(self):
        # The middle profile holds two segments starting at 1 + 3e-10; the
        # first is sub-EPS long, and the outer profiles put a grid
        # midpoint (1 + 5.5e-10) inside both of them.
        tied = [Segment(1.0 + 3e-10, 1.0 + 8e-10, 2.0), Segment(1.0 + 3e-10, 3.0, 1.0)]
        assert len(SpeedProfile(tied)) == 2
        assert_stack_matches_reference(
            [[Segment(0.0, 1.0, 1.0)], tied, [Segment(1.0 + 1.1e-9, 5.0, 0.5)]]
        )

    def test_sub_eps_overlap_later_segment_wins(self):
        overlapping = [Segment(0.5, 1.0 + 8e-10, 2.0), Segment(1.0 + 3e-10, 3.0, 1.0)]
        assert len(SpeedProfile(overlapping)) == 2
        assert_stack_matches_reference(
            [[Segment(0.0, 1.0, 1.0)], overlapping, [Segment(1.0 + 1.1e-9, 5.0, 0.5)]]
        )

    def test_empty_inputs(self):
        for profiles in ([], [SpeedProfile()], [SpeedProfile(), SpeedProfile()]):
            assert sum_profiles(profiles).is_empty
            assert max_profiles(profiles).is_empty
        assert avr_profile([]).is_empty
        assert avr_profile([Job(0.0, 1.0, 0.0)]).is_empty

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 60, 150])
    def test_avr_equals_reference_on_avrq_jobs(self, n):
        jobs = avrq_derived_jobs(n, seed=n)
        with reference_mode():
            expected = profile_bits(oracle.avr_profile(jobs))
        assert profile_bits(avr_profile(jobs)) == expected
        with mock.patch.object(pk, "_CELL_BUDGET", 7):
            assert profile_bits(avr_profile(jobs)) == expected

    def test_avr_filters_on_density_not_work(self):
        """A positive work whose density underflows to 0.0 adds no
        rectangle, so its release (sub-EPS below 3.0) never enters the
        grid and cannot pull the breakpoint at 3.0 away."""
        jobs = [Job(0, 10, 5), Job(3 - 4e-10, 1003, 5e-324), Job(3, 8, 2)]
        assert jobs[1].work > 0 and jobs[1].density == 0.0
        with reference_mode():
            expected = profile_bits(oracle.avr_profile(jobs))
        profile = avr_profile(jobs)
        assert profile_bits(profile) == expected
        assert profile.segments[0].end == 3.0

    def test_memory_is_bounded_by_the_cell_budget(self):
        """4,000 rectangles over 5,999 cells would be a 192 MB matrix; one
        block and its running sums hold 2 x _CELL_BUDGET float64 cells."""
        jobs = avrq_derived_jobs(2000)
        assert len(jobs) == 4000
        tracemalloc.start()
        try:
            avr_profile(jobs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * pk._CELL_BUDGET + 2 * 2**20


# -- batched queries -----------------------------------------------------------------


class TestBatchedQueries:
    @given(segs=breakpoint_profiles(), qs=st.lists(st.tuples(queries, queries), max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_work_in_many_rows_equal_scalars(self, segs, qs):
        p = SpeedProfile(segs)
        los = [a for a, _ in qs]
        his = [b for _, b in qs]
        batch = p.work_in_many(los, his)
        assert len(batch) == len(qs)
        for got, (lo, hi) in zip(batch.tolist(), qs):
            assert bits(got) == bits(p.work_in(lo, hi))

    def test_empty_profile_batches(self):
        p = SpeedProfile()
        assert p.work_in_many([0.0], [1.0]).tolist() == [0.0]
        assert p.speeds_at([0.5]).tolist() == [0.0]


# -- constructor parity --------------------------------------------------------------


class TestConstructorParity:
    @given(
        n=st.integers(min_value=2, max_value=7),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_from_breakpoints_modes_agree(self, n, data):
        t = 0.0
        times = []
        for _ in range(n):
            times.append(t)
            t += data.draw(st.floats(min_value=1e-3, max_value=3.0))
        speeds = [
            data.draw(st.floats(min_value=0.0, max_value=5.0))
            for _ in range(n - 1)
        ]
        k = SpeedProfile.from_breakpoints(times=times, speeds=speeds)
        with reference_mode():
            r = SpeedProfile.from_breakpoints(times=times, speeds=speeds)
        assert profile_bits(k) == profile_bits(r)

    def test_from_segments_modes_agree(self):
        kwargs = dict(
            starts=[4.0, 0.0, 1.0], ends=[5.0, 1.0, 2.0], speeds=[2.0, 1.0, 1.0]
        )
        k = SpeedProfile.from_segments(**kwargs)
        with reference_mode():
            r = SpeedProfile.from_segments(**kwargs)
        assert profile_bits(k) == profile_bits(r)

    def test_from_segments_rejects_overlap_in_both_modes(self):
        kwargs = dict(starts=[0.0, 1.0], ends=[2.0, 3.0], speeds=[1.0, 1.0])
        with pytest.raises(ValueError):
            SpeedProfile.from_segments(**kwargs)
        with reference_mode(), pytest.raises(ValueError):
            SpeedProfile.from_segments(**kwargs)


# -- YDS and clairvoyant fast paths --------------------------------------------------


@st.composite
def classical_jobs(draw, max_jobs=8):
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    for i in range(n):
        r = draw(st.floats(min_value=0.0, max_value=20.0))
        span = draw(st.floats(min_value=0.1, max_value=8.0))
        w = draw(st.floats(min_value=0.0, max_value=10.0))
        jobs.append(Job(r, r + span, w, f"j{i}"))
    return jobs


class TestYDSKernelPaths:
    @given(jobs=classical_jobs())
    @settings(max_examples=80, deadline=None)
    def test_compress_many_equals_scalar(self, jobs):
        compressor = TimelineCompressor(min(j.release for j in jobs))
        compressor.cut([(1.0, 2.0), (4.0, 4.5), (9.0, 12.0)])
        times = [j.release for j in jobs] + [j.deadline for j in jobs]
        batched = compressor.compress_many(times)
        for t, got in zip(times, batched.tolist()):
            assert bits(got) == bits(compressor.compress(t))

    @given(jobs=classical_jobs())
    @settings(max_examples=50, deadline=None)
    def test_yds_profile_equals_full_yds(self, jobs):
        fast = yds_profile(jobs)
        full = yds(jobs)
        assert profile_bits(fast) == profile_bits(full.profile)

    @given(jobs=classical_jobs(max_jobs=6))
    @settings(max_examples=40, deadline=None)
    def test_yds_matches_pure_python(self, jobs):
        power = PowerFunction(3.0)
        k = yds(jobs)
        k_rows = [
            (bits(s.start), bits(s.end), bits(s.speed), s.job_id)
            for s in k.schedule.slices()
        ]
        with reference_mode():
            r = yds(jobs)
            r_rows = [
                (bits(s.start), bits(s.end), bits(s.speed), s.job_id)
                for s in r.schedule.slices()
            ]
            r_energy = r.profile.energy(power)
            r_sched_energy = r.schedule.energy(power)
        assert profile_bits(k.profile) == profile_bits(r.profile)
        assert k_rows == r_rows
        assert same_number(k.profile.energy(power), r_energy)
        assert same_number(k.schedule.energy(power), r_sched_energy)

    def test_clairvoyant_values_equals_clairvoyant(self):
        from repro.core.instance import QBSSInstance
        from repro.qbss.clairvoyant import clairvoyant, clairvoyant_values

        qi = QBSSInstance(
            [
                QJob(0.0, 10.0, 1.0, 4.0, 2.5, "a"),
                QJob(1.0, 6.0, 0.5, 3.0, 1.0, "b"),
                QJob(2.0, 9.0, 1.5, 5.0, 4.0, "c"),
            ]
        )
        full = clairvoyant(qi, alpha=3.0)
        fast = clairvoyant_values(qi, alpha=3.0)
        assert same_number(fast.energy_value, full.energy_value)
        assert same_number(fast.max_speed_value, full.max_speed_value)
        assert fast.exact == full.exact


# -- the oracle itself ---------------------------------------------------------------


class TestReferenceMode:
    def test_kernel_arrays_raise_inside_reference_mode(self):
        """A kernel path that escapes the patches fails loudly, so no test
        compares (and no bench times) the kernel against itself."""
        profile = SpeedProfile.constant(0.0, 1.0, 2.0)
        with reference_mode():
            assert profile.energy(PowerFunction(3.0)) == 8.0
            with pytest.raises(KernelPathReached):
                profile._get_arrays()
            with pytest.raises(KernelPathReached):
                SpeedProfile._from_arrays(pk.empty_arrays())
        assert profile.energy(PowerFunction(3.0)) == 8.0

    def test_names_imported_elsewhere_are_rebound(self):
        # The packages re-export functions named like these modules.
        crp2d = importlib.import_module("repro.qbss.crp2d")
        avr_users = [
            importlib.import_module(name)
            for name in (
                "repro.speed_scaling.avr",
                "repro.qbss.avrq",
                "repro.qbss.nonmigratory",
            )
        ]
        bkp_users = [
            importlib.import_module(name)
            for name in ("repro.speed_scaling.bkp", "repro.qbss.bkpq")
        ]
        yds_module = importlib.import_module("repro.speed_scaling.yds")
        kernel_sum, kernel_avr = crp2d.sum_profiles, avr_profile
        kernel_bkp, kernel_discover = bkp_profile, yds_module._discover
        with reference_mode():
            assert crp2d.sum_profiles is oracle.sum_profiles
            for module in avr_users:
                assert module.avr_profile is oracle.avr_profile, module
            for module in bkp_users:
                assert module.bkp_profile is kernels.bkp_profile_sweep, module
            assert yds_module._discover is kernels.period_discover
        assert crp2d.sum_profiles is kernel_sum
        for module in avr_users:
            assert module.avr_profile is kernel_avr
        for module in bkp_users:
            assert module.bkp_profile is kernel_bkp
        assert yds_module._discover is kernel_discover


# -- replay byte-identity ------------------------------------------------------------


def _stream(n=40, seed=3):
    import random

    rng = random.Random(seed)
    t = 0.0
    for i in range(n):
        t += rng.random() * 100.0
        horizon = 500.0 + rng.random() * 2000.0
        wu = 10.0 + rng.random() * 200.0
        yield QJob(
            t, t + horizon,
            query_cost=min(5.0, wu), work_upper=wu,
            work_true=rng.random() * wu, id=f"q{i}",
        )


class TestReplayByteIdentity:
    def test_kernel_report_identical_to_pure_python(self):
        """The acceptance test: kernel-backed qbss-replay output is
        byte-identical to the pre-kernel pure-Python path."""
        from repro.engine import ExecutionSession
        from repro.traces.replay import replay_jobs

        with reference_mode():
            golden, _ = replay_jobs(
                _stream(), algorithms=("avrq", "bkpq"), alpha=3.0,
                shard_window=600.0, session=ExecutionSession(cache=False),
            )
        fresh, _ = replay_jobs(
            _stream(), algorithms=("avrq", "bkpq"), alpha=3.0,
            shard_window=600.0, session=ExecutionSession(cache=False),
        )
        golden_bytes = json.dumps(golden.to_dict(), sort_keys=True)
        fresh_bytes = json.dumps(fresh.to_dict(), sort_keys=True)
        assert golden_bytes == fresh_bytes
        assert golden.render() == fresh.render()
