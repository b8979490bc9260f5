"""The clairvoyant baseline."""

import itertools
import math

import numpy as np
import pytest

from repro.core.instance import QBSSInstance
from repro.core.job import Job
from repro.core.qjob import QJob
from repro.qbss.clairvoyant import (
    clairvoyant,
    clairvoyant_values,
    optimal_energy,
    optimal_max_speed,
)
from repro.speed_scaling.multi.optimal import convex_optimal_energy
from repro.speed_scaling.yds import optimal_energy as yds_energy


def test_single_machine_equals_yds_on_pstar(common_window_qinstance):
    base = clairvoyant(common_window_qinstance, alpha=3.0)
    star = common_window_qinstance.clairvoyant_instance()
    assert math.isclose(base.energy_value, yds_energy(list(star.jobs), 3.0))
    assert base.exact
    assert base.schedule is not None


def test_single_job_closed_form():
    # p* = min(3, 0.5 + 1) = 1.5 over a window of 2 -> speed 0.75
    qi = QBSSInstance([QJob(0, 2, 0.5, 3.0, 1.0)])
    base = clairvoyant(qi, alpha=3.0)
    assert math.isclose(base.max_speed_value, 0.75)
    assert math.isclose(base.energy_value, 2 * 0.75**3)


def test_query_never_helps_when_cost_too_high():
    # c + w* > w: the clairvoyant skips the query, load = w
    qi = QBSSInstance([QJob(0, 1, 0.9, 1.0, 0.5)])
    assert math.isclose(clairvoyant(qi, alpha=2.0).energy_value, 1.0)


def test_multi_machine_pooled_default(common_window_qinstance):
    qi = common_window_qinstance.with_machines(2)
    base = clairvoyant(qi, alpha=3.0)
    assert not base.exact
    single = clairvoyant(common_window_qinstance, alpha=3.0)
    # pooling two machines divides the constant speed by 2: energy x m^{1-a}
    assert math.isclose(base.energy_value, single.energy_value / 4.0, rel_tol=1e-9)


def test_multi_machine_exact_at_least_pooled(common_window_qinstance):
    qi = common_window_qinstance.with_machines(2)
    pooled = clairvoyant(qi, alpha=3.0, exact_multi=False).energy_value
    exact = clairvoyant(qi, alpha=3.0, exact_multi=True).energy_value
    assert exact >= pooled * (1 - 1e-6)


def test_multi_machine_exact_provides_witness_schedule(common_window_qinstance):
    from repro.core.feasibility import check_feasible

    qi = common_window_qinstance.with_machines(2)
    base = clairvoyant(qi, alpha=3.0, exact_multi=True)
    assert base.schedule is not None
    report = check_feasible(base.schedule, base.star, tol=1e-5)
    assert report.ok, report.violations


def test_helpers(common_window_qinstance):
    assert optimal_energy(common_window_qinstance, 3.0) > 0
    assert optimal_max_speed(common_window_qinstance) > 0


# -- an oracle independent of YDS -----------------------------------------------------


def _periodic_qinstance(seed: int) -> QBSSInstance:
    """Two or three runs of one or two QBSS jobs, idle gaps apart, so at
    most six jobs in two to six busy periods."""
    rng = np.random.default_rng(seed)
    jobs, start = [], 0.0
    for _ in range(int(rng.integers(2, 4))):
        end = start
        for _ in range(int(rng.integers(1, 3))):
            r = start + float(rng.uniform(0.0, 1.0))
            d = r + float(rng.uniform(0.5, 2.0))
            w = float(rng.uniform(0.5, 3.0))
            c = w * float(rng.uniform(0.05, 0.9))
            jobs.append(QJob(r, d, c, w, w * float(rng.uniform(0.0, 1.0)), f"q{len(jobs)}"))
            end = max(end, d)
        start = end + float(rng.uniform(0.25, 1.5))
    return QBSSInstance(jobs)


@pytest.mark.parametrize("seed", range(6))
def test_brute_force_over_query_subsets_equals_clairvoyant(seed):
    """Sec. 3's reduction, checked without YDS: the QBSS optimum is the
    cheapest over every query subset S of the convex optimum with loads
    ``c + w*`` for jobs in S and ``w`` otherwise."""
    qi = _periodic_qinstance(seed)
    alpha = (2.0, 2.5, 3.0)[seed % 3]
    best = min(
        convex_optimal_energy(
            [
                Job(
                    j.release,
                    j.deadline,
                    j.query_cost + j.work_true if queried else j.work_upper,
                    j.id,
                )
                for j, queried in zip(qi.jobs, subset)
            ],
            1,
            alpha,
        )
        for subset in itertools.product((False, True), repeat=len(qi.jobs))
    )
    value = clairvoyant_values(qi, alpha=alpha).energy_value
    assert math.isclose(best, value, rel_tol=1e-4)
