"""Uncertainty synthesis: observed runtimes -> QBSS jobs.

A trace records what *actually* happened (the runtime); the QBSS model
needs what was *known beforehand* (the upper bound ``w`` and query cost
``c``) alongside the hidden truth ``w*``.  Following the processing-time
oracle viewpoint (Dufossé et al.), we set ``w* = runtime`` and synthesize
``w >= w*`` under a pluggable noise model:

``multiplicative``
    ``w = w* * U[slack_low, slack_high]`` — a uniform over-estimate factor,
    the "users pad their estimates by 1.2-3x" regime.
``lognormal``
    ``w = w* * exp(|N(0, sigma)|)`` — heavy-tailed over-estimates; most
    bounds are tight, a few are wildly conservative.
``adversarial``
    The deterministic worst case of the single-job game (Lemma 4.2 scaled
    to ``w*``): ``c = max(w*, unit)/phi`` and ``w = phi * (c + w*)``, so
    every job sits exactly at the golden-ratio decision boundary.

When a trace supplies an explicit ``query_cost`` it is honoured (clipped
to ``(0, w]``, the model constraint); otherwise the noise model draws
``c = U[0.05, 1.0] * w``, mirroring
:class:`repro.workloads.generators.UncertaintyModel`.

Determinism: each record draws from the state numpy's
``PCG64(SeedSequence((seed, record.index)))`` starts in, so the draw for
job *i* does not depend on how the stream was chunked, sharded or
parallelised — the property the replayer's serial == parallel guarantee
rests on.  Building that generator per record (``SeedSequence`` hashing
plus PCG64 seeding) was most of the synthesis time, so
:func:`_pcg64_words` computes the PCG64 states of a whole chunk of records
in one vectorized pass of the same 32/64-bit integer arithmetic.  How a
record then draws depends on its model:

* ``multiplicative`` takes its two uniforms (``w / w*`` and ``c / w``)
  straight from those states: a PCG64 draw is one 128-bit LCG step and
  the XSL-RR output permutation, and ``Generator.uniform(lo, hi)`` is
  ``lo + (hi - lo) * (x >> 11) * 2**-53``, all uint64/float64 array
  arithmetic (:func:`_pcg64_uniforms`);
* ``adversarial`` draws nothing, so it seeds nothing;
* ``lognormal`` draws a ziggurat normal from numpy's internal tables,
  which that arithmetic cannot reproduce, so it re-states one reused
  ``Generator`` with each record's state (:func:`_pcg64_states`).

``tests/_reference_kernels.py`` keeps the per-record generator as the
bit-for-bit oracle of all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import islice

import numpy as np

from ..core.constants import PHI
from ..core.qjob import QJob
from .records import TraceRecord

#: Range of the query-cost fraction draw when the trace has no explicit c.
QUERY_FRAC_LOW = 0.05
QUERY_FRAC_HIGH = 1.0

#: Range of the multiplicative model's over-estimate factor ``w / w*``.
MULTIPLICATIVE_LOW = 1.25
MULTIPLICATIVE_HIGH = 3.0

#: Records :func:`synthesize_jobs` reads ahead and seeds in one kernel call.
#: The kernel costs about 0.1 ms a call plus 1 us a record, so 256 keeps
#: the per-call share small; 1024 was no faster end to end but raised a
#: cold replay's peak RSS by about 0.8 MB (the read-ahead records and states).
SEED_CHUNK = 256

#: The smallest positive float: the floor of ``c`` in ``(0, w]``.
_TINY = 5e-324


@dataclass(frozen=True)
class NoiseModel:
    """One named way of inflating ``w*`` into the known upper bound ``w``.

    ``draw_upper`` maps ``(rng, w_star) -> w`` with the contract
    ``w >= w_star > 0``.  ``deterministic`` marks models that ignore the
    RNG entirely: the adversarial construction, whose query cost is
    fixed too (``c = max(w*, 1) / phi``), so the synthesizer seeds
    nothing for them.  ``uniform`` is set when ``draw_upper`` is
    ``w_star * rng.uniform(*uniform)``: such a model's draws come from
    the vectorized PCG64 stream, not a ``Generator``.
    """

    name: str
    summary: str
    draw_upper: Callable[[np.random.Generator, float], float]
    deterministic: bool = False
    uniform: tuple[float, float] | None = None


def _multiplicative_upper(rng: np.random.Generator, w_star: float) -> float:
    return w_star * float(rng.uniform(MULTIPLICATIVE_LOW, MULTIPLICATIVE_HIGH))


def _lognormal_upper(
    rng: np.random.Generator, w_star: float, sigma: float = 0.75
) -> float:
    return w_star * float(np.exp(abs(rng.normal(0.0, sigma))))


def _adversarial_upper(rng: np.random.Generator, w_star: float) -> float:
    # c is fixed to max(w*, unit)/phi by synthesize_jobs below; the upper
    # bound then lands exactly on the golden threshold w = phi (c + w*).
    unit = w_star if w_star > 0 else 1.0
    return PHI * (unit / PHI + w_star)


NOISE_MODELS: dict[str, NoiseModel] = {
    model.name: model
    for model in (
        NoiseModel(
            "multiplicative",
            "w = w* x U[1.25, 3.0] (uniform over-estimate)",
            _multiplicative_upper,
            uniform=(MULTIPLICATIVE_LOW, MULTIPLICATIVE_HIGH),
        ),
        NoiseModel(
            "lognormal",
            "w = w* x exp|N(0, 0.75)| (heavy-tailed over-estimate)",
            _lognormal_upper,
        ),
        NoiseModel(
            "adversarial",
            "w = phi (c + w*), c = max(w*,1)/phi (golden-boundary worst case)",
            _adversarial_upper,
            deterministic=True,
        ),
    )
}


def get_noise_model(name: str) -> NoiseModel:
    """Look up a noise model by name (KeyError lists the names)."""
    try:
        return NOISE_MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown noise model {name!r}; "
            f"registered: {', '.join(sorted(NOISE_MODELS))}"
        ) from None


# -- numpy's SeedSequence, PCG64 seeding and draws, one numpy pass per chunk ---------
#
# ``PCG64(SeedSequence((seed, index)))`` hashes the entropy words of seed and index
# into a 4-word pool (``SeedSequence.mix_entropy``), draws four uint64 words
# from it (``generate_state``) and seeds PCG64 with them.  A draw steps the
# 128-bit LCG and permutes the new state into 64 output bits.  All of it is
# 32/64-bit integer arithmetic, so it vectorizes over the records of a chunk:
# arrays below are word-major, one column per record.

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = 16
_PCG_MULT_HI = 2549297995355413924
_PCG_MULT_LO = 4865540595714422341
#: XSL-RR rotates by the state's top 6 bits: ``state >> 122``.
_ROTATE_SHIFT = np.uint64(58)
#: ``next_double`` keeps the top 53 output bits and scales them by 2**-53.
_DOUBLE_SHIFT = np.uint64(11)
_DOUBLE_SCALE = 1.0 / 9007199254740992.0
_OTHERS = [[d for d in range(_POOL_SIZE) if d != s] for s in range(_POOL_SIZE)]


def _hash_chain(init: int, mult: int, n: int) -> np.ndarray:
    """The multipliers a hash walks through: ``init * mult**k`` mod 2**32,
    as a column so it broadcasts over records."""
    chain = [init]
    for _ in range(n):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, None]


#: ``generate_state(4, uint64)`` hashes 8 output words with this chain.
_STATE_CHAIN = _hash_chain(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _entropy_chain(n_words: int) -> np.ndarray:
    """``mix_entropy``'s chain for ``n_words`` entropy words: 4 pool fills,
    12 mixing steps and 4 per word beyond the pool."""
    steps = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(0, n_words - _POOL_SIZE)
    return _hash_chain(_INIT_A, _MULT_A, steps)


def _words(value: int) -> list[int]:
    """numpy's ``_int_to_uint32_array``: little-endian 32-bit words, 0 -> [0]."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(values: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """One ``hashmix`` per row of ``chain[:-1]``: step k xors with the k-th
    multiplier and multiplies by the next."""
    out = values ^ chain[:-1]
    out *= chain[1:]
    out ^= out >> _XSHIFT
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    out ^= out >> _XSHIFT
    return out


def _mix_entropy(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence.mix_entropy`` over ``entropy`` (words x records,
    zero-padded to at least the pool size) -> the pool (4 x records)."""
    chain = _entropy_chain(n_words)
    pool = _hashmix(entropy[:_POOL_SIZE], chain[: _POOL_SIZE + 1])
    k = _POOL_SIZE
    # Mixing round src updates every other pool word from the same source
    # word, so its three steps are one array operation.
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], chain[k : k + len(dst) + 1]))
        k += len(dst)
    for src in range(_POOL_SIZE, n_words):
        pool = _mix(pool, _hashmix(entropy[src], chain[k : k + _POOL_SIZE + 1]))
        k += _POOL_SIZE
    return pool


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of ``a * b`` (uint64 array times a constant), in
    32-bit limbs."""
    a0, a1 = a & np.uint64(_MASK32), a >> np.uint64(32)
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    low = a0 * b0
    mid1 = a1 * b0 + (low >> np.uint64(32))
    mid2 = a0 * b1 + (mid1 & np.uint64(_MASK32))
    return a1 * b1 + (mid1 >> np.uint64(32)) + (mid2 >> np.uint64(32))


def _pcg64_step(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One LCG step ``state * M + inc`` mod 2**128, on (hi, lo) words."""
    # (hi, lo) * M mod 2**128: only lo * M_lo needs its full 128 bits.
    state_hi = _mulhi64(lo, _PCG_MULT_LO) + hi * np.uint64(_PCG_MULT_LO)
    state_hi += lo * np.uint64(_PCG_MULT_HI)
    state_lo = lo * np.uint64(_PCG_MULT_LO) + inc_lo
    state_hi += inc_hi + (state_lo < inc_lo)
    return state_hi, state_lo


def _pcg64_seed(pool: np.ndarray) -> tuple[np.ndarray, ...]:
    """``generate_state(4, uint64)`` from each pool, then PCG64's seeding:
    ``inc = (initseq << 1) | 1`` and ``state = (inc + seed) * M + inc``
    mod 2**128.  Returns the state and increment words."""
    words = _hashmix(np.concatenate((pool, pool)), _STATE_CHAIN)
    words = words.astype(np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = words[0::2] | (words[1::2] << np.uint64(32))
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo)
    return (*_pcg64_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _by_width(indices: Sequence[int]) -> Iterable[tuple[int, list[int]]]:
    """Group positions by how many 32-bit words their index takes (the
    hash chain depends on the entropy length)."""
    if indices and min(indices) >= 0 and max(indices) <= _MASK32:
        # The usual case; splitting each index into words would cost about
        # 40 % of the kernel's time.
        return [(1, list(range(len(indices))))]
    groups: dict[int, list[int]] = {}
    for pos, index in enumerate(indices):
        groups.setdefault(len(_words(index)), []).append(pos)
    return groups.items()


def _pcg64_words(seed: int, indices: Sequence[int]) -> np.ndarray:
    """For each index, the state and increment of a fresh
    ``PCG64(SeedSequence((seed, index)))``: rows ``state_hi, state_lo,
    inc_hi, inc_lo`` of a (4 x indices) uint64 array, in one numpy pass.

    Raises ``ValueError("expected non-negative integer")`` for a negative
    seed or index, as numpy does.
    """
    seed_words = _words(seed)
    out = np.empty((4, len(indices)), np.uint64)
    for width, positions in _by_width(indices):
        group = [indices[p] for p in positions]
        n_words = len(seed_words) + width
        entropy = np.zeros((max(n_words, _POOL_SIZE), len(group)), np.uint32)
        entropy[: len(seed_words)] = np.array(seed_words, np.uint32)[:, None]
        entropy[len(seed_words) : n_words] = (
            np.array(group, np.uint32)
            if width == 1
            else np.array([_words(i) for i in group], np.uint32).T
        )
        out[:, positions] = _pcg64_seed(_mix_entropy(entropy, n_words))
    return out


def _pcg64_states(seed: int, indices: Sequence[int]) -> list[dict]:
    """For each index, the ``state`` of a fresh
    ``PCG64(SeedSequence((seed, index)))`` as ``bit_generator.state``
    reads it."""
    state_hi, state_lo, inc_hi, inc_lo = _pcg64_words(seed, indices).tolist()
    return [
        {
            "bit_generator": "PCG64",
            "state": {"state": sh << 64 | sl, "inc": ih << 64 | il},
            "has_uint32": 0,
            "uinteger": 0,
        }
        for sh, sl, ih, il in zip(state_hi, state_lo, inc_hi, inc_lo)
    ]


def _pcg64_uniforms(
    seed: int, indices: Sequence[int], bounds: Sequence[tuple[float, float]]
) -> list[list[float]]:
    """``Generator.uniform(low, high)`` for each ``(low, high)`` of
    ``bounds`` in turn, drawn from each index's fresh
    ``PCG64(SeedSequence((seed, index)))``: one list per bound.

    Each draw steps the LCG, applies XSL-RR (``hi ^ lo`` rotated right by
    ``hi >> 58``) and scales the top 53 bits as ``next_double`` does.
    """
    state_hi, state_lo, inc_hi, inc_lo = _pcg64_words(seed, indices)
    out = []
    for low, high in bounds:
        state_hi, state_lo = _pcg64_step(state_hi, state_lo, inc_hi, inc_lo)
        x = state_hi ^ state_lo
        rot = state_hi >> _ROTATE_SHIFT
        x = (x >> rot) | (x << (-rot & np.uint64(63)))
        doubles = (x >> _DOUBLE_SHIFT) * _DOUBLE_SCALE
        out.append((low + (high - low) * doubles).tolist())
    return out


# -- synthesis -------------------------------------------------------------------------


def _synthesize(
    records: Iterable[TraceRecord],
    model: NoiseModel,
    seed: int,
    deadline_slack: float,
) -> Iterator[QJob]:
    # One generator per call, re-stated before each record's draws: a
    # shared one would let two interleaved streams overwrite each other.
    rng = np.random.Generator(np.random.PCG64(0))
    fraction_bounds = (QUERY_FRAC_LOW, QUERY_FRAC_HIGH)
    stream = iter(records)
    while chunk := list(islice(stream, SEED_CHUNK)):
        indices = [record.index for record in chunk]
        if model.uniform is not None:
            uppers, fractions = _pcg64_uniforms(
                seed, indices, (model.uniform, fraction_bounds)
            )
            for record, upper, fraction in zip(chunk, uppers, fractions):
                _check(record, deadline_slack)
                w = record.runtime * upper
                yield _job(record, model, w, fraction, deadline_slack)
        elif model.deterministic:
            for value in (seed, *indices):
                _words(value)  # a negative one raises, as seeding would
            for record in chunk:
                _check(record, deadline_slack)
                w = float(model.draw_upper(rng, record.runtime))
                yield _job(record, model, w, None, deadline_slack)
        else:
            for record, state in zip(chunk, _pcg64_states(seed, indices)):
                _check(record, deadline_slack)
                rng.bit_generator.state = state
                w = float(model.draw_upper(rng, record.runtime))
                fraction = (
                    float(rng.uniform(*fraction_bounds))
                    if record.query_cost is None
                    else None
                )
                yield _job(record, model, w, fraction, deadline_slack)


def _check(record: TraceRecord, deadline_slack: float) -> None:
    if record.runtime <= 0.0:
        raise ValueError(f"record {record.id}: runtime must be > 0")
    if deadline_slack <= 0.0:
        raise ValueError(f"deadline_slack must be > 0, got {deadline_slack}")


def _job(
    record: TraceRecord,
    model: NoiseModel,
    w: float,
    fraction: float | None,
    deadline_slack: float,
) -> QJob:
    """The job of a checked record, from its drawn upper bound ``w`` and
    its query-cost fraction draw (``None`` where none was drawn)."""
    w_star = record.runtime
    w = max(w, w_star)  # defensive: the contract, even for custom models

    if record.query_cost is not None:
        c = min(record.query_cost, w)
    elif model.deterministic:
        c = max(w_star, 1.0) / PHI
    else:
        c = fraction * w
    c = min(max(c, _TINY), w)

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


def synthesize_job(
    record: TraceRecord,
    model: NoiseModel,
    *,
    seed: int = 0,
    deadline_slack: float = 2.0,
) -> QJob:
    """Turn one observed record into a QBSS job ``(r, d, c, w, w*)``.

    Invariants guaranteed (and property-tested): ``0 < c <= w``,
    ``w* <= w`` and ``r < d``.  For SWF records (no explicit deadline) the
    window is ``deadline_slack`` times the user's requested time (falling
    back to the runtime): the slack a deadline-feasibility evaluation
    grants the scheduler, as in the Abousamra-Bunde-Pruhs comparison.
    """
    return next(_synthesize((record,), model, seed, deadline_slack))


def synthesize_jobs(
    records: Iterable[TraceRecord],
    *,
    model: str = "multiplicative",
    seed: int = 0,
    deadline_slack: float = 2.0,
) -> Iterator[QJob]:
    """Lazily map a record stream through :func:`synthesize_job`.

    Reads up to :data:`SEED_CHUNK` records ahead of the job it yields, to
    seed them in one kernel call; so a parse error in the record stream
    can surface up to one chunk earlier than the jobs before it are
    consumed.  Validation errors are raised at their own record.
    """
    yield from _synthesize(records, get_noise_model(model), seed, deadline_slack)
