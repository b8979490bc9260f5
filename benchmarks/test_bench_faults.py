"""FAULTS — the hardened driver must be (nearly) free when nothing fails.

Times :func:`repro.engine.execute_hardened` (retry policy armed, no
faults injected) against a bare loop over the *same* worker bodies, on a
clean 1000-task batch.  The delta is the bookkeeping cost of the
fault-tolerance machinery — per-attempt wall tracking, retry/backoff
decisions, outcome settling — which the ISSUE targets at under 2% of
batch wall time.  The assertion bound is deliberately looser (15%) so CI
scheduling noise cannot flake the suite; the measured figure is recorded
under ``benchmarks/results/`` for eyeballing the real margin.
"""

import math
import time

from repro.engine import HardenedTask, RetryPolicy, execute_hardened

N_TASKS = 1000
ROUNDS = 3
KERNEL_ITERS = 4000  # ~0.3 ms/task, the low end of a real experiment

#: Assertion guard, intentionally far above the 2% design target: the
#: bench runs on shared CI workers where a single descheduling blip on a
#: ~100 microsecond task is itself worth several percent.
GUARD = 0.15


def _work(index, attempt):
    """One synthetic experiment: a deterministic ~0.3 ms float kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    x = float(index % 97) + 1.0
    for i in range(1, KERNEL_ITERS):
        acc += math.sqrt(x * i) / i
    return {"ok": True, "payload": acc, "wall": time.perf_counter() - t0}


def _bare_batch():
    """The unhardened reference: same worker, plain loop, same sink."""
    sink = []
    for i in range(N_TASKS):
        outcome = _work(i, 1)
        sink.append(outcome["payload"])
    return sink


class _BenchTask(HardenedTask):
    __slots__ = ("index",)

    def __init__(self, index):
        super().__init__(f"bench:{index}")
        self.index = index


def _hardened_batch():
    sink = []
    stats = execute_hardened(
        (_BenchTask(i) for i in range(N_TASKS)),
        worker=_work,
        payload=lambda task: (task.index,),
        on_success=lambda task, outcome, degraded: sink.append(
            outcome["payload"]
        ),
        on_failure=lambda task, failure: sink.append(None),
        jobs=1,
        retry=RetryPolicy(max_attempts=3),
    )
    assert stats.retries == 0 and not stats.degraded
    return sink


def _best_of(fn, rounds=ROUNDS):
    best = math.inf
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_bench_hardened_overhead_on_clean_batch(results_dir):
    _bare_batch(), _hardened_batch()  # warm caches / allocator
    bare_wall, bare = _best_of(_bare_batch)
    hard_wall, hard = _best_of(_hardened_batch)

    assert hard == bare  # identical results, identical order
    overhead = (hard_wall - bare_wall) / bare_wall
    (results_dir / "faults_overhead.txt").write_text(
        "hardened-driver overhead, clean serial batch "
        f"({N_TASKS} tasks, best of {ROUNDS})\n"
        f"bare loop:        {bare_wall * 1e3:9.3f} ms\n"
        f"execute_hardened: {hard_wall * 1e3:9.3f} ms\n"
        f"overhead:         {overhead * 100:9.2f} %  (design target < 2%)\n"
    )
    assert overhead < GUARD, (
        f"hardened driver overhead {overhead * 100:.2f}% exceeds the "
        f"{GUARD * 100:.0f}% regression guard "
        f"(bare {bare_wall:.4f}s vs hardened {hard_wall:.4f}s)"
    )
