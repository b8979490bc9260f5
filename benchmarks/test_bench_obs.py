"""OBS — disabled observability must be (nearly) free on the hot path.

Times :func:`repro.engine.execute_hardened` on a clean 1000-task serial
batch with ``tracer=None`` (the disabled state every untraced run pays
for) against the same batch on the pre-observability driver shape — a
bare loop over the same worker bodies.  Every trace emission point in the
driver is an ``if tracer is not None`` guard, so the delta measures
exactly those guards plus the two extra ``HardenedTask`` slots.  The
ISSUE targets < 2%; the assertion bound is looser (15%) so shared-CI
scheduling noise cannot flake the suite, and the measured figure is
recorded under ``benchmarks/results/`` for eyeballing the real margin.

A second measurement runs the same batch with a live tracer writing to a
null sink — not asserted against a budget (tracing is opt-in forensics),
just recorded so regressions in the enabled cost stay visible.
"""

import math
import time

from repro.engine import HardenedTask, RetryPolicy, execute_hardened
from repro.obs import Tracer

N_TASKS = 1000
ROUNDS = 5
KERNEL_ITERS = 4000  # ~0.3 ms/task, the low end of a real experiment

#: Assertion guard, intentionally far above the 2% design target (see
#: the module docstring / benchmarks/test_bench_faults.py).
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
    """The untraced reference: same worker, plain loop, same sink."""
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


class _NullSink:
    def write(self, text):
        pass


def _hardened_batch(tracer=None):
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
        tracer=tracer,
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


def test_bench_disabled_tracing_overhead_on_clean_batch(results_dir):
    _bare_batch(), _hardened_batch()  # warm caches / allocator
    bare_wall, bare = _best_of(_bare_batch)
    off_wall, off = _best_of(_hardened_batch)
    on_wall, on = _best_of(lambda: _hardened_batch(Tracer(_NullSink())))

    assert off == bare == on  # identical results, identical order
    overhead = (off_wall - bare_wall) / bare_wall
    enabled = (on_wall - bare_wall) / bare_wall
    (results_dir / "obs_overhead.txt").write_text(
        "observability overhead, clean serial batch "
        f"({N_TASKS} tasks, best of {ROUNDS})\n"
        f"bare loop:                 {bare_wall * 1e3:9.3f} ms\n"
        f"driver, tracer=None:       {off_wall * 1e3:9.3f} ms\n"
        f"driver, tracer=null-sink:  {on_wall * 1e3:9.3f} ms\n"
        f"disabled overhead:         {overhead * 100:9.2f} %  "
        "(design target < 2%)\n"
        f"enabled overhead:          {enabled * 100:9.2f} %  "
        "(recorded, not budgeted)\n"
    )
    assert overhead < GUARD, (
        f"disabled-tracing overhead {overhead * 100:.2f}% exceeds the "
        f"{GUARD * 100:.0f}% regression guard "
        f"(bare {bare_wall:.4f}s vs driver {off_wall:.4f}s)"
    )
