"""ENGINE — the result cache earns its keep.

Times the experiment engine cold (everything recomputed) against warm
(everything served from the content-addressed cache).  The warm pass must
come in well under the ISSUE acceptance bound of 20% of cold wall time —
in practice it is orders of magnitude faster, since a hit is one small
JSON read.
"""

import time

from repro.engine import ExecutionSession, run_experiments

NAMES = ["lemma42", "lemma43", "lemma44", "rho", "figure1"]


def test_bench_warm_cache_under_20_percent_of_cold(tmp_path):
    t0 = time.perf_counter()
    cold = run_experiments(NAMES, session=ExecutionSession(jobs=1, cache_dir=tmp_path))
    cold_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = run_experiments(NAMES, session=ExecutionSession(jobs=1, cache_dir=tmp_path))
    warm_wall = time.perf_counter() - t0

    assert cold.misses == len(NAMES) and warm.hits == len(NAMES)
    assert warm_wall < 0.2 * cold_wall, (
        f"warm {warm_wall:.3f}s not under 20% of cold {cold_wall:.3f}s"
    )
    for a, b in zip(cold.reports, warm.reports):
        assert a.render() == b.render()


def test_bench_cold_run(benchmark, tmp_path):
    counter = iter(range(10**6))

    def cold():
        return run_experiments(
            ["lemma42", "rho"],
            session=ExecutionSession(jobs=1, cache_dir=tmp_path / str(next(counter))),
        )

    result = benchmark(cold)
    assert result.misses == 2


def test_bench_warm_run(benchmark, tmp_path):
    prime = ExecutionSession(jobs=1, cache_dir=tmp_path)
    run_experiments(["lemma42", "rho"], session=prime)

    def warm():
        return run_experiments(
            ["lemma42", "rho"], session=ExecutionSession(jobs=1, cache_dir=tmp_path)
        )

    result = benchmark(warm)
    assert result.hits == 2

