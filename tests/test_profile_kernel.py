"""The kernel determinism contract: numpy path == pure-Python path, bitwise.

The whole point of ``repro.core.profile_kernel`` is that it may not change
a single bit of any published number — cached engine entries, replay
reports and golden experiment outputs must survive the swap.  These tests
pin that:

* hypothesis equality suite — every kernel-dispatched operation on random
  breakpoint profiles equals the pure-Python reference **bit for bit**
  (``struct.pack`` comparison, not ``isclose``);
* YDS — the vectorised compressed-timeline arithmetic and the
  discovery-only :func:`~repro.speed_scaling.yds.yds_profile` fast path
  reproduce the original schedules and profiles exactly;
* replay byte-identity — a kernel-backed replay serialises to the same
  JSON bytes as the pre-kernel pure-Python path (the acceptance test for
  ``qbss-replay``).
"""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import profile_kernel as pk
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
from repro.speed_scaling.yds import TimelineCompressor, yds, yds_profile


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


alphas = st.sampled_from([1.5, 2.0, 2.5, 3.0, 3.7])
queries = st.floats(min_value=-6.0, max_value=40.0, allow_nan=False)


def both_modes(segs, fn):
    """Run ``fn`` on a profile built in kernel mode and in pure mode."""
    kernel = fn(SpeedProfile(segs))
    with pk.pure_python():
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

    @given(many=st.lists(breakpoint_profiles(max_segments=5), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_sum_and_max_profiles(self, many):
        ks = [SpeedProfile(s) for s in many]
        k_sum = profile_bits(sum_profiles(ks))
        k_max = profile_bits(max_profiles(ks))
        with pk.pure_python():
            rs = [SpeedProfile(s) for s in many]
            r_sum = profile_bits(sum_profiles(rs))
            r_max = profile_bits(max_profiles(rs))
        assert k_sum == r_sum
        assert k_max == r_max

    @given(segs=breakpoint_profiles(), other=breakpoint_profiles())
    @settings(max_examples=80, deadline=None)
    def test_add_and_dominates(self, segs, other):
        k_add = profile_bits(SpeedProfile(segs) + SpeedProfile(other))
        k_dom = SpeedProfile(segs).dominates(SpeedProfile(other))
        with pk.pure_python():
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
        with pk.pure_python():
            rs = [SpeedProfile(s) for s in many]
            r_e, r_s = profiles_energy(rs, power), profiles_max_speed(rs)
        assert same_number(k_e, r_e)
        assert same_number(k_s, r_s)


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
        with pk.pure_python():
            r = SpeedProfile.from_breakpoints(times=times, speeds=speeds)
        assert profile_bits(k) == profile_bits(r)

    def test_from_segments_modes_agree(self):
        kwargs = dict(
            starts=[4.0, 0.0, 1.0], ends=[5.0, 1.0, 2.0], speeds=[2.0, 1.0, 1.0]
        )
        k = SpeedProfile.from_segments(**kwargs)
        with pk.pure_python():
            r = SpeedProfile.from_segments(**kwargs)
        assert profile_bits(k) == profile_bits(r)

    def test_from_segments_rejects_overlap_in_both_modes(self):
        kwargs = dict(starts=[0.0, 1.0], ends=[2.0, 3.0], speeds=[1.0, 1.0])
        with pytest.raises(ValueError):
            SpeedProfile.from_segments(**kwargs)
        with pk.pure_python(), pytest.raises(ValueError):
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
        with pk.pure_python():
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

        with pk.pure_python():
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
