"""Metamorphic relations of the six single-machine QBSS algorithms.

Each relation transforms an instance in a way whose effect on the
algorithm's energy and peak speed follows from the model alone (power
``s^alpha``, work = speed x time), so the checks need no reference
implementation:

- *work scaling* -- multiplying every ``c``, ``w`` and ``w*`` by ``k``
  multiplies every speed by ``k``: energy scales by ``k^alpha``, peak
  speed by ``k``, and the energy ratio against the clairvoyant optimum
  is unchanged;
- *time scaling* -- multiplying every release and deadline by ``k``
  divides every speed by ``k`` and stretches time by ``k``: energy
  scales by ``k^(1 - alpha)``, peak speed by ``1/k``.  The factors are
  powers of two, exact in binary, so CRP2D's power-of-two deadlines keep
  their shape (``k = 3`` would make CRP2D refuse the instance);
- *permutation* -- the order in which jobs are listed changes nothing.

Separately, the reported energy is checked against an independent
integral of the executed schedule: the sum of ``duration x speed^alpha``
over its slices.

Translation in time is left out: the absolute ``EPS`` tolerance makes
results depend on the time origin past 2^24 s (``perfbench/README.md``,
"Known defect kept visible").
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.analysis.ratios import measure
from repro.core.constants import DEFAULT_ALPHA
from repro.core.instance import QBSSInstance
from repro.core.power import PowerFunction
from repro.qbss import run_algorithm
from repro.workloads.generators import (
    common_deadline_instance,
    common_release_instance,
    online_instance,
    power_of_two_instance,
)

#: Each algorithm with the generator of its setting.
SETTINGS = {
    "crcd": common_deadline_instance,
    "crp2d": power_of_two_instance,
    "crad": common_release_instance,
    "avrq": online_instance,
    "bkpq": online_instance,
    "oaq": online_instance,
}
SEEDS = range(5)
N_JOBS = 8
REL_TOL = 1e-9


def instances(algorithm):
    return [SETTINGS[algorithm](N_JOBS, seed=seed) for seed in SEEDS]


def transformed(qi: QBSSInstance, **scale) -> QBSSInstance:
    """``qi`` with each named job field multiplied by its factor."""
    return QBSSInstance(
        [
            dataclasses.replace(
                job, **{name: k * getattr(job, name) for name, k in scale.items()}
            )
            for job in qi
        ],
        qi.machines,
    )


def assert_close(actual, expected, what):
    assert math.isclose(actual, expected, rel_tol=REL_TOL), (
        f"{what}: {actual!r} != {expected!r}"
    )


@pytest.mark.parametrize("k", [0.5, 3.0])
@pytest.mark.parametrize("algorithm", SETTINGS)
def test_work_scaling(algorithm, k):
    for qi in instances(algorithm):
        base = measure(algorithm, qi, alpha=DEFAULT_ALPHA)
        scaled = measure(
            algorithm,
            transformed(qi, query_cost=k, work_upper=k, work_true=k),
            alpha=DEFAULT_ALPHA,
        )
        assert_close(scaled.energy, base.energy * k**DEFAULT_ALPHA, "energy")
        assert_close(scaled.max_speed, base.max_speed * k, "max speed")
        assert_close(scaled.energy_ratio, base.energy_ratio, "energy ratio")


@pytest.mark.parametrize("k", [0.5, 4.0])
@pytest.mark.parametrize("algorithm", SETTINGS)
def test_time_scaling(algorithm, k):
    for qi in instances(algorithm):
        base = measure(algorithm, qi, alpha=DEFAULT_ALPHA)
        scaled = measure(
            algorithm,
            transformed(qi, release=k, deadline=k),
            alpha=DEFAULT_ALPHA,
        )
        assert_close(
            scaled.energy, base.energy * k ** (1 - DEFAULT_ALPHA), "energy"
        )
        assert_close(scaled.max_speed, base.max_speed / k, "max speed")


@pytest.mark.parametrize("algorithm", SETTINGS)
def test_permutation(algorithm):
    for seed, qi in zip(SEEDS, instances(algorithm)):
        order = np.random.default_rng(seed).permutation(len(qi))
        shuffled = QBSSInstance([qi.jobs[i] for i in order], qi.machines)
        base = measure(algorithm, qi, alpha=DEFAULT_ALPHA)
        moved = measure(algorithm, shuffled, alpha=DEFAULT_ALPHA)
        assert_close(moved.energy, base.energy, "energy")
        assert_close(moved.max_speed, base.max_speed, "max speed")


#: BKPQ reports the energy of its speed profile, ``e`` times the BKP
#: intensity at every instant, but EDF finishes the work early and the
#: schedule idles for the rest: on ``online_instance(8, seed=0)`` the
#: reported energy is 62.91 and the slices integrate to 21.27.
BKPQ_CHARGES_IDLE_SPEED = pytest.mark.xfail(
    strict=True, reason="BKPQ's profile energy exceeds its executed schedule's"
)


@pytest.mark.parametrize(
    "algorithm",
    [
        pytest.param(name, marks=BKPQ_CHARGES_IDLE_SPEED) if name == "bkpq" else name
        for name in SETTINGS
    ],
)
def test_energy_is_the_integral_of_the_executed_slices(algorithm):
    power = PowerFunction(DEFAULT_ALPHA)
    for qi in instances(algorithm):
        result = run_algorithm(algorithm, qi)
        integral = math.fsum(
            (s.end - s.start) * s.speed**DEFAULT_ALPHA for s in result.schedule.slices()
        )
        assert_close(result.energy(power), integral, "energy")
