"""Vectorized numpy kernel for piecewise-constant profile algebra.

This module is the hot path under every benchmark in ``benchmarks/``: the
:class:`~repro.core.profile.SpeedProfile` algebra (pointwise sum, scale,
restriction), the energy integral ``E = integral s(t)**alpha dt``, batched
``work_in`` interval queries, and the per-shard clairvoyant baselines of
trace replay all bottom out here.  Profiles are represented as parallel
breakpoint arrays ``(starts, ends, speeds)`` — one float64 entry per
positive-speed segment, sorted and non-overlapping — and every operation
is a handful of numpy array passes instead of a Python loop over
:class:`~repro.core.profile.Segment` objects.

**Determinism contract.**  Every kernel operation reproduces the
pure-Python reference arithmetic *bit for bit*, so kernel-backed replay
reports and cached engine entries are byte-identical to the pre-kernel
ones (pinned by ``tests/test_profile_kernel.py``).  Five rules make that
possible:

* sums use :func:`sequential_sum` (``np.cumsum`` is a left-to-right
  scan, unlike ``np.sum``'s pairwise reduction, so it matches Python's
  ``sum()`` exactly);
* power terms ``s**alpha`` are evaluated with Python's ``float.__pow__``
  per element (numpy's SIMD ``np.power`` differs from libm by ULPs);
* elementwise ``+ - * max min`` and ``searchsorted``/``bisect`` are
  exact, so broadcasting them is free;
* sums down the profile axis of :func:`combine`'s (profiles x cells)
  matrix accumulate and never reduce: ``np.cumsum`` adds each cell's
  values in profile order, while ``np.sum`` and ``np.add.reduce``
  pairwise-sum a one-cell column of 16 or more profiles;
* a batch of independent problems shares one tensor only when padding
  sits at the high end of every scan axis and padded cells are masked:
  :func:`window_work`'s scans then meet a padded cell only after an
  item's real ones, or add ``+0.0`` before them (``0.0 + x == x`` for
  the non-negative sums there), and its callers give padded windows a
  span of ``-inf`` so that no padded cell can win a maximum.

:func:`combine` processes its matrix in column blocks of at most
:data:`_CELL_BUDGET` cells (2 MiB of float64), so summing thousands of
profiles needs a few MiB, not profiles x cells x 8 bytes.  Blocking
changes no cell's addition order.  A YDS or BKP batch holds at most a
quarter of that budget, and ends where its padding would pass
:data:`_PAD_FACTOR` times its real cells (:func:`batches`).

:func:`window_work` sums YDS's and BKP's windows for a whole batch of
busy periods or midpoints at once; each item's sums equal those of a
lone call over that item's jobs, in the same order.

The pure-Python reference is the original segment-loop implementation,
kept as the test oracle ``tests/_reference_profile.py``: its
``reference_mode()`` patches the loops back in, and the equality suite,
the replay byte-identity test and the perf trajectory's ``before`` arms
run against it.  The per-period YDS discovery and the per-midpoint BKP
sweep that the batches replaced live on in ``tests/_reference_kernels.py``,
and ``reference_mode()`` rebinds them too.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .constants import EPS

#: A normalized profile as parallel arrays: ``starts``, ``ends``,
#: ``speeds`` (float64, equal length, sorted by start, non-overlapping,
#: all speeds strictly positive).
ProfileArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


def empty_arrays() -> ProfileArrays:
    """The empty profile's array triple."""
    z = np.empty(0, dtype=np.float64)
    return (z, z.copy(), z.copy())


def as_float_array(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce to a 1-D float64 array (no copy when already one)."""
    return np.asarray(values, dtype=np.float64)


def sequential_sum(terms: np.ndarray) -> float:
    """Left-to-right sum matching Python's ``sum()`` bit for bit.

    Returns the int ``0`` on empty input, exactly like ``sum(())`` — the
    distinction survives into JSON (``0`` vs ``0.0``), so byte-identical
    reports require preserving it.
    """
    if terms.size == 0:
        return 0
    return float(np.cumsum(terms)[-1])


def powers(speeds: np.ndarray, alpha: float) -> np.ndarray:
    """``speeds**alpha`` elementwise via Python pow (libm-exact).

    ``np.power`` uses SIMD kernels that differ from ``float.__pow__`` by
    ULPs; the per-element loop keeps energies bit-identical to the
    reference while everything around it stays vectorized.
    """
    return np.array([s**alpha for s in speeds.tolist()], dtype=np.float64)


# -- normalization ------------------------------------------------------------------


def normalize(
    starts: np.ndarray, ends: np.ndarray, speeds: np.ndarray
) -> ProfileArrays:
    """Drop zero-speed segments and merge EPS-adjacent equal-speed runs.

    Expects the segments already sorted by start and non-overlapping
    (every kernel op preserves that invariant).  Reproduces the
    ``SpeedProfile`` constructor's chain-merge semantics exactly: a
    segment joins the current run when it touches the run's *current*
    end and its speed is within ``EPS * min(1, max(a, b))`` of the run's
    *first* speed ``a`` (absolute at speeds >= 1, relative below).
    """
    keep = speeds > 0.0
    if not keep.all():
        starts, ends, speeds = starts[keep], ends[keep], speeds[keep]
    k = starts.size
    if k <= 1:
        return (starts, ends, speeds)
    # Screen: chain merging can only begin at a pair that touches with
    # near-equal speeds; when no pair qualifies, nothing merges at all.
    touch = np.abs(starts[1:] - ends[:-1]) <= EPS
    close = np.abs(speeds[1:] - speeds[:-1]) <= EPS * np.minimum(
        1.0, np.maximum(speeds[1:], speeds[:-1])
    )
    if not bool(np.any(touch & close)):
        return (starts, ends, speeds)
    s_list, e_list, v_list = starts.tolist(), ends.tolist(), speeds.tolist()
    ms: list[float] = [s_list[0]]
    me: list[float] = [e_list[0]]
    mv: list[float] = [v_list[0]]
    for i in range(1, k):
        if abs(me[-1] - s_list[i]) <= EPS and abs(mv[-1] - v_list[i]) <= EPS * min(
            1.0, max(mv[-1], v_list[i])
        ):
            me[-1] = e_list[i]
        else:
            ms.append(s_list[i])
            me.append(e_list[i])
            mv.append(v_list[i])
    return (as_float_array(ms), as_float_array(me), as_float_array(mv))


def collapse_times(values: np.ndarray) -> np.ndarray:
    """Sorted unique times with sub-EPS neighbours collapsed to the first.

    Matches the reference ``sorted(set(...))`` + tolerance-collapse loop.
    """
    uniq = np.unique(values)
    keep = np.ones(uniq.size, dtype=bool)
    return uniq[chain(keep, np.diff(uniq) <= EPS, np.zeros(uniq.size), uniq)]


def collapse_keys(keys: np.ndarray) -> np.ndarray:
    """:func:`collapse_times` within each group of :func:`keyed` keys.

    Returns the kept keys, sorted by group, then time: each group's
    distinct times, less those within EPS of the last kept time of their
    group, so each sub-EPS chain keeps its first time.
    """
    keys = keys.copy()
    keys.sort()
    step = keys[1:] - keys[:-1]  # exact: zero only between equal keys
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(step, 0, out=keep[1:])
    close = keep[1:] & (step.real == 0) & (step.imag <= EPS)
    return keys[chain(keep, close, keys.real, keys.imag)]


def chain(
    keep: np.ndarray, close: np.ndarray, groups: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """Finish a sub-EPS chain collapse in place, and return ``keep``.

    ``(groups, times)`` are sorted by group, then time; ``keep`` marks the
    distinct pairs, and ``close[i]`` that pair ``i + 1`` is distinct from
    and within EPS of pair ``i`` of its group.  The chain runs in Python
    only for the groups that hold such a pair: a time within EPS of the
    last kept time of its group is dropped.
    """
    if not close.any():
        return keep
    values = times.tolist()
    for g in np.unique(groups[1:][close]).tolist():
        lo, hi = np.searchsorted(groups, (g, g + 1)).tolist()
        last = values[lo]
        for i in range(lo + 1, hi):
            if not keep[i]:
                continue
            if values[i] - last > EPS:
                last = values[i]
            else:
                keep[i] = False
    return keep


# -- window sums --------------------------------------------------------------------


def keyed(groups: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Complex keys that numpy orders by ``groups``, then by ``times``.

    numpy sorts and searches complex numbers lexicographically (real part
    first), so one ``np.sort`` or ``np.searchsorted`` over these keys
    treats every group as its own sorted list.  The parts are assigned,
    never computed, so every time keeps its bits.
    """
    keys = np.empty(times.size, dtype=np.complex128)
    keys.real = groups
    keys.imag = times
    return keys


def window_work(
    items: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    works: np.ndarray,
    shape: tuple[int, int, int],
) -> np.ndarray:
    """``out[i, s, e]``: total work of item ``i``'s jobs inside its window
    ``[starts[s], ends[e]]``, for ``shape = (items, starts, ends)``.

    Each job belongs to one item (a YDS busy period, a BKP midpoint) and
    arrives as its item's sorted ``starts``/``ends`` ranks: ``rows`` counts
    the starts with ``start - EPS <= release`` and ``cols`` the ends with
    ``end + EPS < deadline``, so the job is inside every window ``[s, e]``
    with ``s < rows`` and ``e >= cols``.  One ``np.bincount`` lays the jobs
    into an (items x starts+1 x ends+1) histogram, and two cumulative sums
    spread each over the windows that contain it: O(n + cells) without a
    ``starts x jobs x ends`` product.

    Items with fewer starts or ends than ``shape`` are padded at the high
    end of both axes.  The end scan reaches padding only after an item's
    real cells, and the reversed start scan adds ``+0.0`` before them, so
    every real cell adds the same values in the same order as a batch of
    that one item: jobs in input order within a cell, then the scans.
    Padded rows read ``0.0``; a padded column repeats its row's total, so
    callers must give it a span that no maximum can pick.  Only
    non-negative works are added, so a window holding no job reads exactly
    ``0.0``.
    """
    n_items, n_starts, n_ends = shape
    hist = np.bincount(
        (items * (n_starts + 1) + rows) * (n_ends + 1) + cols,
        weights=works,
        minlength=n_items * (n_starts + 1) * (n_ends + 1),
    ).reshape(n_items, n_starts + 1, n_ends + 1)
    # Row r holds jobs inside windows [starts[i], ...] for every i < r;
    # column c holds jobs inside [..., ends[k]] for every k >= c.  Both
    # scans run in place: on a large batch, faulting in a fresh array per
    # scan took longer than the scan.
    np.add.accumulate(hist, axis=2, out=hist)
    np.add.accumulate(hist[:, ::-1], axis=1, out=hist[:, ::-1])
    return hist[:, 1:, :n_ends]


# -- aggregates ---------------------------------------------------------------------


def total_work(starts: np.ndarray, ends: np.ndarray, speeds: np.ndarray) -> float:
    """``integral s(t) dt`` (left-to-right sum over segments)."""
    return sequential_sum(speeds * (ends - starts))


def energy(
    starts: np.ndarray, ends: np.ndarray, speeds: np.ndarray, alpha: float
) -> float:
    """``integral s(t)**alpha dt`` — bit-identical to the segment loop."""
    if speeds.size == 0:
        return 0
    return float(np.cumsum(powers(speeds, alpha) * (ends - starts))[-1])


def max_speed(speeds: np.ndarray) -> float:
    """Peak speed (0.0 for the empty profile)."""
    if speeds.size == 0:
        return 0.0
    return float(speeds.max())


def work_in(
    starts: np.ndarray,
    ends: np.ndarray,
    speeds: np.ndarray,
    lo: float,
    hi: float,
) -> float:
    """Work available in ``[lo, hi)`` — one scalar query."""
    if hi <= lo or speeds.size == 0:
        return 0.0
    a = np.maximum(starts, lo)
    b = np.minimum(ends, hi)
    terms = np.where(b > a, speeds * (b - a), 0.0)
    return float(np.cumsum(terms)[-1])


def work_in_many(
    starts: np.ndarray,
    ends: np.ndarray,
    speeds: np.ndarray,
    q_starts: np.ndarray,
    q_ends: np.ndarray,
) -> np.ndarray:
    """Batched ``work_in`` over interval arrays (one broadcast pass).

    Each row reproduces the scalar query's accumulation order exactly, so
    ``work_in_many(...)[i] == work_in(..., q_starts[i], q_ends[i])``.
    """
    q_starts = as_float_array(q_starts)
    q_ends = as_float_array(q_ends)
    if speeds.size == 0 or q_starts.size == 0:
        return np.zeros(q_starts.size, dtype=np.float64)
    a = np.maximum(starts[None, :], q_starts[:, None])
    b = np.minimum(ends[None, :], q_ends[:, None])
    terms = np.where(b > a, speeds[None, :] * (b - a), 0.0)
    out = np.cumsum(terms, axis=1)[:, -1]
    out[q_ends <= q_starts] = 0.0
    return out


def speeds_at(
    starts: np.ndarray,
    ends: np.ndarray,
    speeds: np.ndarray,
    times: np.ndarray,
) -> np.ndarray:
    """Batched point queries ``s(t)`` (segments closed-left, open-right)."""
    times = as_float_array(times)
    if speeds.size == 0:
        return np.zeros(times.size, dtype=np.float64)
    idx = np.searchsorted(starts, times, side="right") - 1
    clipped = np.clip(idx, 0, speeds.size - 1)
    inside = (idx >= 0) & (times >= starts[clipped]) & (times < ends[clipped])
    return np.where(inside, speeds[clipped], 0.0)


# -- algebra ------------------------------------------------------------------------


def scale(arrays: ProfileArrays, factor: float) -> ProfileArrays:
    """Pointwise speed scaling (re-normalized, like the constructor)."""
    starts, ends, speeds = arrays
    return normalize(starts, ends, speeds * factor)


def restrict(arrays: ProfileArrays, lo: float, hi: float) -> ProfileArrays:
    """Clip to ``[lo, hi)``."""
    starts, ends, speeds = arrays
    if speeds.size == 0:
        return arrays
    a = np.maximum(starts, lo)
    b = np.minimum(ends, hi)
    keep = b > a
    return normalize(a[keep], b[keep], speeds[keep])


def shift(arrays: ProfileArrays, delta: float) -> ProfileArrays:
    """Translate in time by ``delta``."""
    starts, ends, speeds = arrays
    return normalize(starts + delta, ends + delta, speeds.copy())


#: Most cells one column block of :func:`combine`'s (profiles x cells)
#: matrix, or one YDS or BKP batch, holds (a block is one column, one
#: busy period or one midpoint wide at least).
_CELL_BUDGET = 1 << 18

#: A YDS or BKP batch ends where its padded cells would pass this many
#: times its real ones.
_PAD_FACTOR = 2


def batches(
    n_starts: Sequence[int], n_ends: Sequence[int], n_jobs: Sequence[int]
) -> list[tuple[int, int]]:
    """Split items ``0 .. n-1`` into consecutive :func:`window_work` batches.

    Item ``i`` has ``n_starts[i]`` starts, ``n_ends[i]`` ends and
    ``n_jobs[i]`` jobs; a batch pads each of its items to its largest
    start and end counts.  A batch ``[lo, hi)`` ends before the item that
    would take its padded cells past :data:`_PAD_FACTOR` times its real
    ones, or its padded cells or its jobs past a quarter of
    :data:`_CELL_BUDGET`: a batch's window sums, spans and ratios are
    several cell-sized arrays at a time.  A batch holds one item at least.
    """
    cap = _CELL_BUDGET // 4
    out: list[tuple[int, int]] = []
    lo = top_s = top_e = real = jobs = 0
    for i, (s, e, n) in enumerate(zip(n_starts, n_ends, n_jobs)):
        cells = (s + 1) * (e + 1)
        pad_s, pad_e = max(top_s, s), max(top_e, e)
        padded = (i + 1 - lo) * (pad_s + 1) * (pad_e + 1)
        if i > lo and (
            padded > _PAD_FACTOR * (real + cells)
            or max(padded, jobs + n) > cap
        ):
            out.append((lo, i))
            lo, pad_s, pad_e, real, jobs = i, s, e, 0, 0
        top_s, top_e, real, jobs = pad_s, pad_e, real + cells, jobs + n
    if lo < len(n_starts):
        out.append((lo, len(n_starts)))
    return out


def combine(
    starts: np.ndarray,
    ends: np.ndarray,
    speeds: np.ndarray,
    rows: np.ndarray,
    pointwise_max: bool = False,
) -> ProfileArrays:
    """Pointwise sum (or maximum) of many profiles, in one matrix pass.

    The profiles arrive as one concatenated segment list: segment ``i``
    belongs to profile ``rows[i]`` (non-decreasing), and each profile's
    segments keep their own start order.  Every profile is one row of a
    (profiles x grid cells) matrix, where each segment writes its speed
    into the cells whose midpoints :func:`speeds_at` would give it: the
    ones in ``[start, min(end, next start of its profile))``, so of two
    equal or sub-EPS-overlapping starts the later segment wins.  Sums
    accumulate down the profile axis with ``np.cumsum``, so every cell
    adds the same values in the same order as the reference's
    ``sum(p.speed_at(mid) for p in profiles)``; maxima take
    ``np.maximum.reduce``.  The columns go in blocks of at most
    :data:`_CELL_BUDGET` cells, which changes no cell's order.
    """
    if starts.size == 0:
        return empty_arrays()
    grid = collapse_times(np.concatenate([starts, ends]))
    if grid.size < 2:
        return empty_arrays()
    mids = 0.5 * (grid[:-1] + grid[1:])
    lo = np.searchsorted(mids, starts, side="left")
    hi = np.searchsorted(mids, ends, side="left")
    # A segment's cells stop where the next one of its profile starts.
    follows = rows[1:] == rows[:-1]
    hi[:-1][follows] = np.minimum(hi[:-1][follows], lo[1:][follows])
    n_rows = int(rows[-1]) + 1
    # Run-length layout of a block, row after row: zeros up to each
    # segment, its speed over its cells, zeros to the next one.
    values = np.zeros(2 * starts.size + 1, dtype=np.float64)
    values[1::2] = speeds
    bounds = np.zeros(values.size + 1, dtype=np.intp)
    n_cells = mids.size
    width = max(1, _CELL_BUDGET // n_rows)
    acc = np.empty(n_cells, dtype=np.float64)
    for c0 in range(0, n_cells, width):
        w = min(width, n_cells - c0)
        # Each segment's cells within the block (two ufuncs cost less
        # than np.clip's wrapper on arrays this small).
        a = np.minimum(np.maximum(lo - c0, 0), w)
        b = np.minimum(np.maximum(hi - c0, 0), w)
        base = rows * w
        bounds[1:-1:2] = base + a
        bounds[2:-1:2] = base + b
        bounds[-1] = n_rows * w
        block = np.repeat(values, np.diff(bounds)).reshape(n_rows, w)
        if pointwise_max:
            acc[c0:c0 + w] = np.maximum.reduce(block, axis=0)
        else:
            acc[c0:c0 + w] = np.cumsum(block, axis=0)[-1]
    keep = acc > 0.0
    return normalize(grid[:-1][keep], grid[1:][keep], acc[keep])
