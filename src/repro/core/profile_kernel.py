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
ones (pinned by ``tests/test_profile_kernel.py``).  Four rules make that
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
  pairwise-sum a one-cell column of 16 or more profiles.

:func:`combine` processes its matrix in column blocks of at most
:data:`_CELL_BUDGET` cells (2 MiB of float64), so summing thousands of
profiles needs a few MiB, not profiles x cells x 8 bytes.  Blocking
changes no cell's addition order.

:func:`window_work`, the YDS and BKP window sums, is outside the
contract: both paths share it, and its oracle, a dense matmul in
``tests/_reference_kernels.py``, matches it to rounding only.

The pure-Python reference is the original segment-loop implementation,
kept as the test oracle ``tests/_reference_profile.py``: its
``reference_mode()`` patches the loops back in, and the equality suite,
the replay byte-identity test and the perf trajectory's ``before`` arms
run against it.
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
    if uniq.size <= 1 or bool(np.all(np.diff(uniq) > EPS)):
        return uniq
    vals = uniq.tolist()
    kept = [vals[0]]
    for t in vals[1:]:
        if t - kept[-1] > EPS:
            kept.append(t)
    return as_float_array(kept)


# -- window sums --------------------------------------------------------------------


def window_work(
    releases: np.ndarray,
    deadlines: np.ndarray,
    works: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> np.ndarray:
    """``out[i, k]``: total work of jobs inside ``[starts[i], ends[k]]``.

    A job is inside when ``release >= starts[i] - EPS`` and ``deadline <=
    ends[k] + EPS``; ``starts`` and ``ends`` must be sorted.  Each job
    lands in one cell of a (start rank, end rank) histogram, and the two
    cumulative sums spread it over every window that contains it: O(n +
    starts * ends) without the ``starts x jobs x ends`` product.

    Only non-negative works are ever added, so a window holding no job
    reads exactly ``0.0`` (prefix-sum differences would cancel to
    ``±1e-17`` and fool the callers' ``<= 0`` tests).  The sums run in
    histogram order, so they match a dense matmul over the same windows to
    rounding, not bit for bit.
    """
    n_ends = ends.size
    rows = np.searchsorted(starts - EPS, releases, side="right")
    cols = np.searchsorted(ends + EPS, deadlines, side="left")
    hist = np.bincount(
        rows * (n_ends + 1) + cols,
        weights=works,
        minlength=(starts.size + 1) * (n_ends + 1),
    ).reshape(starts.size + 1, n_ends + 1)
    # Row r holds jobs inside windows [starts[i], ...] for every i < r;
    # column c holds jobs inside [..., ends[k]] for every k >= c.
    acc = np.cumsum(np.cumsum(hist, axis=1)[::-1], axis=0)[::-1]
    return acc[1:, :n_ends]


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
#: matrix holds (a block is one column wide at least).
_CELL_BUDGET = 1 << 18


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
