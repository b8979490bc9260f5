"""The live EDF, BKP, YDS and synthesis kernels against their oracles.

``tests/_reference_kernels.py`` keeps the scanning EDF, the matmul BKP,
the single-timeline matmul YDS, the per-call window sums (YDS one busy
period and BKP one midpoint at a time) and the per-record ``default_rng``
synthesizer.  EDF, synthesis and the batched window sums must match it bit
for bit; the matmul BKP and YDS sum their windows in a different order, so
they must match to 1e-9 relative, with the same critical job sets wherever
YDS's intensities are distinct.

The generators aim at the cases that separate the implementations: busy
periods separated by gaps just over and just under EPS, equal releases and
deadlines, and jobs that arrived and expired while a later job is still
pending.
"""

import importlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference_kernels as ref
from repro.core import profile_kernel as _pk
from repro.core.constants import EPS
from repro.core.edf import run_edf
from repro.core.job import Job
from repro.core.power import PowerFunction
from repro.speed_scaling.avr import avr_profile
from repro.speed_scaling.bkp import bkp_intensity_at, bkp_profile
from repro.speed_scaling.yds import _discover, yds, yds_profile
from repro.traces import NOISE_MODELS, TraceRecord, get_noise_model, synthesize_jobs
from repro.traces.synthesize import SEED_CHUNK, _pcg64_states

REL = 1e-9

# -- strategies --------------------------------------------------------------------

#: Gaps between busy periods: just over and just under EPS, touching, wide.
GAPS = st.sampled_from([EPS * 1.5, EPS * 1.01, EPS * 0.99, EPS * 0.5, 0.0, 0.75])
#: A small grid makes equal releases and deadlines common.  Offsets and
#: spans sit on a 1e-6 grid, so two distinct times of one busy period are
#: never about EPS apart (``near_eps_jobs`` covers that case).
OFFSETS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 2.0).map(
    lambda x: round(x, 6)
)
SPANS = st.sampled_from([0.25, 0.5, 1.0, 2.0]) | st.floats(0.05, 3.0).map(
    lambda x: round(x, 6)
)
WORKS = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.01, 5.0)
#: Extra shifts that put distinct times of one period about EPS apart.
NEAR_EPS = st.sampled_from([0.0, EPS * 0.5, EPS, EPS * 1.5, EPS * 2.0])


@st.composite
def periodic_jobs(draw, max_periods=3, max_per_period=4, jitter=st.just(0.0)):
    """Jobs in up to three runs; each run starts ``gap`` after the latest
    deadline so far, so gaps over EPS make separate busy periods."""
    jobs: list[Job] = []
    base = draw(st.sampled_from([0.0, 3.0, 100.0]))
    for _ in range(draw(st.integers(1, max_periods))):
        if jobs:
            base = max(j.deadline for j in jobs) + draw(GAPS)
        for _ in range(draw(st.integers(1, max_per_period))):
            r = base + draw(OFFSETS) + draw(jitter)
            d = r + draw(SPANS) + draw(jitter)
            jobs.append(Job(r, d, draw(WORKS), f"j{len(jobs)}"))
    return draw(st.permutations(jobs))


def near_eps_jobs():
    return periodic_jobs(jitter=NEAR_EPS)


def _gapped(gap: float) -> list[Job]:
    """Two busy periods ``gap`` apart, the first with an expired job."""
    return [
        Job(0.0, 1.0, 2.0, "a"),
        Job(0.25, 0.5, 1.0, "expired"),
        Job(1.0 + gap, 2.0 + gap, 1.0, "b"),
        Job(1.0 + gap, 3.0 + gap, 3.0, "c"),
    ]


EXPIRED_BEHIND_LATER = [
    Job(0.0, 0.5, 1.0, "early"),  # arrived, deadline passed ...
    Job(0.25, 3.0, 1.0, "late"),  # ... while this one's lies ahead
    Job(1.0, 1.5, 2.0, "spike"),
]
EQUAL_TIMES = [Job(0.0, 1.0, 1.0, "a"), Job(0.0, 1.0, 2.0, "b"), Job(1.0, 2.0, 1.0, "c")]
#: ``b``'s release collapses into the event at 0 and sits exactly on the
#: first midpoint: BKP must count it as arrived there but not yet as a
#: start candidate.
RELEASE_AT_MIDPOINT = [
    Job(0.0, 1.0, 1.0, "a"),
    Job(0.9e-9, 1.0, 5.0, "b"),
    Job(1.8e-9, 1.0, 1.0, "c"),
]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-12)


def _same_profile_values(new, old, alpha=3.0):
    power = PowerFunction(alpha)
    assert _close(new.energy(power), old.energy(power))
    assert _close(new.max_speed(), old.max_speed())


# -- window_work --------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(periodic_jobs())
def test_window_work_matches_the_matmul(jobs):
    r = np.array([j.release for j in jobs])
    d = np.array([j.deadline for j in jobs])
    w = np.array([j.work for j in jobs])
    starts, ends = _pk.collapse_times(r), _pk.collapse_times(d)
    matmul = ((r[None, :] >= starts[:, None] - EPS) * w[None, :]) @ (
        d[None, :] <= ends[:, None] + EPS
    ).T.astype(float)
    hist = ref.window_work(r, d, w, starts, ends)
    assert hist.shape == matmul.shape
    np.testing.assert_allclose(hist, matmul, rtol=1e-12, atol=0.0)
    # Empty windows read exactly zero: only non-negative works are added.
    assert np.all(hist[matmul == 0.0] == 0.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(periodic_jobs(max_periods=1, max_per_period=6), min_size=1, max_size=5))
def test_batched_window_work_equals_lone_calls(items):
    """Each item of a padded batch adds the same values in the same order
    as a lone call over its own jobs."""
    lone, cells = [], []
    for i, jobs in enumerate(items):
        r = np.array([j.release for j in jobs])
        d = np.array([j.deadline for j in jobs])
        w = np.array([j.work for j in jobs])
        starts, ends = _pk.collapse_times(r), _pk.collapse_times(d)
        lone.append(ref.window_work(r, d, w, starts, ends))
        rows = np.searchsorted(starts - EPS, r, side="right")
        cols = np.searchsorted(ends + EPS, d, side="left")
        cells.append((np.full(r.size, i), rows, cols, w))
    shape = (
        len(items), max(x.shape[0] for x in lone), max(x.shape[1] for x in lone)
    )
    item, rows, cols, w = (np.concatenate(c) for c in zip(*cells))
    batch = _pk.window_work(item, rows, cols, w, shape)
    for i, x in enumerate(lone):
        got = batch[i, : x.shape[0], : x.shape[1]]
        assert [v.hex() for v in got.ravel().tolist()] == [
            v.hex() for v in x.ravel().tolist()
        ]
        assert not batch[i, x.shape[0]:].any()  # padded rows read 0.0


# -- EDF ----------------------------------------------------------------------------


def _edf_profiles(jobs):
    yield yds_profile(jobs)
    yield yds_profile(jobs).scale(0.7)  # starved: leaves unfinished work
    yield bkp_profile(jobs)
    yield avr_profile(jobs)


@settings(max_examples=60, deadline=None)
@given(periodic_jobs())
@example(EXPIRED_BEHIND_LATER)
@example(EQUAL_TIMES)
@example(_gapped(EPS * 1.01))
@example(_gapped(EPS * 0.99))
def test_edf_is_bit_identical_to_the_scan(jobs):
    for profile in _edf_profiles(jobs):
        new, old = run_edf(jobs, profile), ref.run_edf(jobs, profile)
        assert new.schedule.slices() == old.schedule.slices()
        assert list(new.unfinished.items()) == list(old.unfinished.items())


# -- BKP ----------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(periodic_jobs())
@example(EXPIRED_BEHIND_LATER)
@example(EQUAL_TIMES)
@example(_gapped(EPS * 1.01))
@example(_gapped(EPS * 0.99))
@example(RELEASE_AT_MIDPOINT)
def test_bkp_matches_the_matmul(jobs):
    new, old = bkp_profile(jobs), ref.bkp_profile(jobs)
    _same_profile_values(new, old)
    points = sorted({j.release for j in jobs} | {j.deadline for j in jobs})
    for a, b in zip(points, points[1:]):
        mid = 0.5 * (a + b)
        assert _close(new.speed_at(mid), old.speed_at(mid))
        assert _close(bkp_intensity_at(jobs, mid), ref.bkp_intensity_at(jobs, mid))


# -- YDS ----------------------------------------------------------------------------


def _distinct(speeds: list[float]) -> bool:
    ordered = sorted(speeds)
    return all(b > a * (1 + 1e-6) for a, b in zip(ordered, ordered[1:]))


@settings(max_examples=80, deadline=None)
@given(periodic_jobs())
@example(EXPIRED_BEHIND_LATER)
@example(EQUAL_TIMES)
@example(_gapped(EPS * 1.01))
@example(_gapped(EPS * 0.99))
def test_yds_matches_the_single_timeline_matmul(jobs):
    result = yds(jobs)
    assert result.profile == yds_profile(jobs)
    _same_profile_values(result.profile, ref.yds_profile(jobs))
    speeds = [ci.speed for ci in result.critical_intervals]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(speeds, speeds[1:]))
    old = ref.yds_criticals(jobs)
    if _distinct(speeds) and _distinct([ci.speed for ci in old]):
        assert [set(ci.job_ids) for ci in result.critical_intervals] == [
            set(ci.job_ids) for ci in old
        ]


#: Found by the property below: j6 and j7 start and end 1e-9 apart.
NEAR_EPS_EXAMPLE = [
    Job(0.0, 0.5, 1.0, "j3"),
    Job(1.000000003, 1.250000003, 1.0, "j6"),
    Job(1.000000004, 1.250000004, 1.0, "j7"),
]


@settings(max_examples=80, deadline=None)
@given(near_eps_jobs())
@example(NEAR_EPS_EXAMPLE)
def test_yds_near_eps_times_agree_to_eps_scale(jobs):
    """Whether two times of one busy period about EPS apart collapse into
    one candidate depends on rounding in compressed time, and so on the
    timeline's origin: a period's first release here, the instance's in
    the oracle (the oracle is no more translation-invariant).  Each side
    may then see window ends up to about EPS from the other's, which moves
    an intensity by about 2 EPS / L and the energy by (alpha - 1) times
    that, L the shortest job window.  Twice those bounds are asserted; the
    example above moves the energy by 1.6e-8 relative."""
    live = [j for j in jobs if j.work > EPS]
    if not live:
        return
    alpha = 3.0
    shift = 2 * EPS / min(j.deadline - j.release for j in live)
    new, old = yds_profile(jobs), ref.yds_profile(jobs)
    power = PowerFunction(alpha)
    assert math.isclose(
        new.energy(power), old.energy(power), rel_tol=2 * (alpha - 1) * shift
    )
    assert math.isclose(new.max_speed(), old.max_speed(), rel_tol=2 * shift)


@pytest.mark.parametrize("gap", [EPS * 1.01, EPS * 0.99])
def test_yds_periods_split_only_past_eps(gap):
    """Just over EPS the two runs are separate periods, each with its own
    compressed timeline (origin: its first release); just under they share
    one.  The values agree."""
    jobs = _gapped(gap)
    origins = {step.origin for step in _discover(jobs)}
    assert len(origins) == (2 if gap > EPS else 1)
    _same_profile_values(yds_profile(jobs), ref.yds_profile(jobs))


# -- the batched window sums against the per-call loops, bit for bit ----------------

_yds = importlib.import_module("repro.speed_scaling.yds")

#: Two deadlines 0.5 EPS apart, each within EPS of a third: BKP's end
#: candidates at a midpoint chain-collapse from the first arrived one, so
#: the kept ends depend on which deadlines have arrived.
SUB_EPS_DEADLINES = [
    Job(0.0, 2.0, 1.0, "a"),
    Job(0.25, 2.0 + 0.6e-9, 2.0, "b"),
    Job(0.5, 2.0 + 1.2e-9, 1.5, "c"),
    Job(1.0, 2.0 + 1.8e-9, 0.5, "d"),
    Job(1.5, 3.0, 1.0, "e"),
]
#: A kept start candidate sits exactly on a midpoint (``b``'s release is
#: the midpoint of the events 1 and ``c``'s release, and collapses into
#: the event at 1 but not into the start at 0): there ``b`` has arrived
#: but its release is not yet a start.
_R3 = 1.0 + 1.8e-9
START_AT_MIDPOINT = [
    Job(0.0, 1.0, 1.0, "a"),
    Job(0.5 * (1.0 + _R3), 2.0, 5.0, "b"),
    Job(_R3, 3.0, 1.0, "c"),
]
#: A period whose only window is under EPS long has no critical interval;
#: batched with a larger period, its padded end columns must not give it
#: one.
SUB_EPS_WINDOW = [
    Job(0.0, 0.5e-9, 1.0, "tiny"),
    Job(10.0, 12.0, 1.0, "a"),
    Job(10.5, 11.0, 2.0, "b"),
]
#: Three jobs in one window cell whose sum depends on the order they are
#: added in: (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1.
SHARED_CELL = [Job(0.0, 1.0, 0.1, "a"), Job(0.0, 1.0, 0.2, "b"), Job(0.0, 1.0, 0.3, "c")]
ZERO_WORK = [
    Job(0.0, 1.0, 0.0, "z0"),
    Job(0.0, 2.0, 1.0, "a"),
    Job(0.5, 1.5, 0.0, "z1"),
    Job(3.0, 4.0, 2.0, "b"),
]
#: Cell budgets small enough that every batch holds one item, a few, and
#: the default.
BUDGETS = (1, 3, 7, 40, 300, _pk._CELL_BUDGET)


def _hex(x: float) -> str:
    return float(x).hex()


def _profile_hex(profile) -> list:
    return [(_hex(s.start), _hex(s.end), _hex(s.speed)) for s in profile.segments]


def _criticals_hex(criticals) -> list:
    return [
        (
            _hex(ci.speed),
            tuple(_hex(c) for c in ci.compressed),
            tuple((_hex(a), _hex(b)) for a, b in ci.original_intervals),
            ci.job_ids,
        )
        for ci in criticals
    ]


def _slices_hex(schedule) -> list:
    return [
        (_hex(s.start), _hex(s.end), _hex(s.speed), s.job_id)
        for s in schedule.slices()
    ]


def _steps_hex(steps) -> list:
    return [
        (
            _hex(s.speed), _hex(s.c1), _hex(s.c2), [j.id for j in s.jobs],
            [(_hex(a), _hex(b)) for a, b in s.comp_windows],
            [(_hex(a), _hex(b)) for a, b in s.original_cover],
            _hex(s.origin), [(_hex(a), _hex(b)) for a, b in s.cuts],
        )
        for s in steps
    ]


def assert_batches_equal_the_loops(jobs):
    """YDS's steps, profile, critical intervals and schedule, and BKP's
    profile, equal the per-call loops bit for bit at every budget."""
    with mock.patch.object(_yds, "_discover", ref.period_discover):
        old = yds(jobs)
    old_steps = _steps_hex(ref.period_discover(jobs))
    old_bkp = _profile_hex(ref.bkp_profile_sweep(jobs))
    for budget in BUDGETS:
        with mock.patch.object(_pk, "_CELL_BUDGET", budget):
            assert _steps_hex(_discover(jobs)) == old_steps, budget
            new = yds(jobs)
            assert _profile_hex(yds_profile(jobs)) == _profile_hex(old.profile)
            assert _profile_hex(new.profile) == _profile_hex(old.profile)
            assert _criticals_hex(new.critical_intervals) == _criticals_hex(
                old.critical_intervals
            )
            assert _slices_hex(new.schedule) == _slices_hex(old.schedule)
            assert _profile_hex(bkp_profile(jobs)) == old_bkp, budget


@settings(max_examples=60, deadline=None)
@given(periodic_jobs(max_periods=6, max_per_period=5))
@example(EXPIRED_BEHIND_LATER)
@example(EQUAL_TIMES)
@example(RELEASE_AT_MIDPOINT)
@example(START_AT_MIDPOINT)
@example(SUB_EPS_WINDOW)
@example(SHARED_CELL)
@example(ZERO_WORK)
@example(SUB_EPS_DEADLINES)
@example(NEAR_EPS_EXAMPLE)
@example(_gapped(EPS * 1.01))
@example(_gapped(EPS * 0.99))
def test_batches_equal_the_per_call_loops(jobs):
    assert_batches_equal_the_loops(jobs)


@settings(max_examples=60, deadline=None)
@given(near_eps_jobs())
def test_batches_equal_the_per_call_loops_near_eps(jobs):
    assert_batches_equal_the_loops(jobs)


def test_sub_eps_deadlines_chain_per_midpoint():
    """The example's kept ends differ between midpoints, so a global
    collapse would differ from the loop; the batch must not."""
    assert_batches_equal_the_loops(SUB_EPS_DEADLINES)
    ends = sorted({j.deadline for j in SUB_EPS_DEADLINES})
    assert any(0 < b - a <= EPS for a, b in zip(ends, ends[1:]))


def _trace_shards(tmp_path):
    from repro.io import qbss_instance_from_dict
    from repro.qbss.policies import EqualWindowSplit, golden_ratio_policy
    from repro.qbss.transform import derive_online
    from repro.traces.replay import _shard_doc, iter_shards
    from repro.traces.swf import parse_swf
    from repro.workloads.tracegen import write_synthetic_swf

    path = write_synthetic_swf(tmp_path / "t.swf", 400, seed=5)
    for shard in iter_shards(synthesize_jobs(parse_swf(path), seed=5), 3600.0):
        qi = qbss_instance_from_dict(_shard_doc(shard)["instance"])
        yield list(qi.clairvoyant_instance().jobs)
        yield derive_online(qi, golden_ratio_policy(), EqualWindowSplit()).jobs


def test_batches_equal_the_loops_on_every_trace_shard(tmp_path):
    """The clairvoyant and BKPQ inputs of every shard of a small trace."""
    count = 0
    for jobs in _trace_shards(tmp_path):
        assert_batches_equal_the_loops(jobs)
        count += 1
    assert count >= 8


def test_bkp_memory_is_bounded_by_the_cell_budget():
    """BKPQ's derived jobs of a dense instance: 1,045 midpoints whose
    window tensors together hold 30.5 million cells (244 MB of float64).
    A batch holds a quarter of the budget's cells, and the peak stays
    within a few batches."""
    from repro.qbss.policies import EqualWindowSplit, golden_ratio_policy
    from repro.qbss.transform import derive_online
    from repro.workloads.generators import online_instance

    jobs = derive_online(
        online_instance(400, seed=0), golden_ratio_policy(), EqualWindowSplit()
    ).jobs
    tracemalloc.start()
    try:
        bkp_profile(jobs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * _pk._CELL_BUDGET + 2 * 2**20


# -- trace files: the SWF writer -------------------------------------------------


@pytest.mark.parametrize(
    "n, seed, rate", [(0, 1, 0.02), (1, 2, 0.02), (257, 3, 0.5), (10_000, 7, 0.02)]
)
def test_swf_writer_writes_the_oracles_bytes(tmp_path, n, seed, rate):
    from repro.workloads.tracegen import write_synthetic_swf

    new = write_synthetic_swf(tmp_path / "new.swf", n, seed=seed, arrival_rate=rate)
    old = ref.write_synthetic_swf(tmp_path / "old.swf", n, seed=seed, arrival_rate=rate)
    assert new.read_bytes() == old.read_bytes()


# -- synthesis: vectorized seeding -------------------------------------------------

#: Seeds of one to five 32-bit words, including each word-count boundary.
SEEDS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 7]) | st.integers(
    0, 2**130
)
#: Indices within a few of 0, 2**32 and 2**64: one, two and three words.
INDICES = st.lists(
    st.sampled_from([0, 2**32, 2**64]).flatmap(
        lambda base: st.integers(max(0, base - 3), base + 3)
    ),
    max_size=12,
)
STRADDLES_2_32 = [2**32 - 2, 2**32 - 1, 2**32, 0, 2**32 + 1, 7]


@settings(max_examples=150, deadline=None)
@given(SEEDS, INDICES)
@example(0, STRADDLES_2_32)
@example(2**32, STRADDLES_2_32)
@example(2**100 + 7, [2**64 - 1, 2**64, 3])
def test_pcg64_states_equal_default_rng(seed, indices):
    assert _pcg64_states(seed, indices) == [
        np.random.default_rng((seed, i)).bit_generator.state for i in indices
    ]


def test_negative_seed_or_index_raises_like_numpy():
    for seed, index in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            _pcg64_states(seed, [index])
        with pytest.raises(ValueError, match="expected non-negative integer"):
            ref.record_rng(seed, index)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        next(synthesize_jobs([TraceRecord(0, "a", 0.0, 1.0)], seed=-1))


def _varied_record(i: int) -> TraceRecord:
    """Cycles through every combination of explicit query_cost, deadline
    and requested, with one query cost above any drawn upper bound."""
    runtime = 1.0 + (i * 0.37) % 50.0
    return TraceRecord(
        index=i,
        id=f"r{i}",
        release=float(i // 3),
        runtime=runtime,
        deadline=float(i // 3) + 3.0 * runtime if i % 2 else None,
        requested=runtime * 1.5 if i % 4 >= 2 else None,
        query_cost=(0.5 if i % 16 < 8 else 1e9) if i % 8 >= 4 else None,
    )


def _bits(job) -> tuple:
    return (
        job.id,
        *(
            float.hex(x)
            for x in (
                job.release, job.deadline, job.query_cost, job.work_upper, job.work_true
            )
        ),
    )


def _assert_equal_to_oracle(records, model, seed):
    live = list(synthesize_jobs(iter(records), model=model, seed=seed))
    noise = get_noise_model(model)
    oracle = [ref.synthesize_job(r, noise, seed=seed) for r in records]
    assert [_bits(j) for j in live] == [_bits(j) for j in oracle]


@pytest.mark.parametrize("model", sorted(NOISE_MODELS))
@pytest.mark.parametrize(
    "length", [0, 1, SEED_CHUNK - 1, SEED_CHUNK, SEED_CHUNK + 1, 2 * SEED_CHUNK + 3]
)
def test_synthesize_jobs_equals_per_record_oracle_at_chunk_boundaries(model, length):
    _assert_equal_to_oracle([_varied_record(i) for i in range(length)], model, seed=7)


finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def records(draw):
    out = []
    for index in draw(INDICES):
        release = draw(st.floats(0.0, 1e6, **finite))
        runtime = draw(st.floats(1e-6, 1e5, **finite))
        out.append(
            TraceRecord(
                index=index,
                id=f"h{len(out)}",
                release=release,
                runtime=runtime,
                deadline=draw(
                    st.none()
                    | st.floats(1e-6, 1e6, **finite).map(lambda s: release + s)
                ),
                requested=draw(st.none() | st.floats(1e-6, 1e6, **finite)),
                query_cost=draw(st.none() | st.floats(1e-9, 1e9, **finite)),
            )
        )
    return out


@settings(max_examples=100, deadline=None)
@given(records(), st.sampled_from(sorted(NOISE_MODELS)), SEEDS)
def test_synthesize_jobs_equals_per_record_oracle(recs, model, seed):
    _assert_equal_to_oracle(recs, model, seed)


def test_validation_errors_surface_at_their_own_record():
    """Chunked seeding reads ahead, but a bad record still raises only
    after every job before it was yielded."""
    bad = SEED_CHUNK + 5
    recs = [_varied_record(i) for i in range(2 * SEED_CHUNK)]
    recs[bad] = TraceRecord(bad, "zero", float(bad), 0.0)
    stream = synthesize_jobs(iter(recs), seed=3)
    got = [next(stream) for _ in range(bad)]
    with pytest.raises(ValueError, match="runtime must be > 0"):
        next(stream)
    assert [_bits(j) for j in got] == [
        _bits(ref.synthesize_job(r, get_noise_model("multiplicative"), seed=3))
        for r in recs[:bad]
    ]


def test_interleaved_streams_do_not_share_a_generator():
    recs = [_varied_record(i) for i in range(40)]
    a = synthesize_jobs(iter(recs), seed=1)
    b = synthesize_jobs(iter(recs), seed=2)
    mixed = [(next(a), next(b)) for _ in recs]
    assert [_bits(x) for x, _ in mixed] == [
        _bits(j) for j in synthesize_jobs(iter(recs), seed=1)
    ]
    assert [_bits(y) for _, y in mixed] == [
        _bits(j) for j in synthesize_jobs(iter(recs), seed=2)
    ]
