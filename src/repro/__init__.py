"""repro — Speed Scaling with Explorable Uncertainty (QBSS).

A full reproduction of Bampis, Dogeas, Kononov, Lucarelli and Pascual,
"Speed Scaling with Explorable Uncertainty", SPAA 2021: the QBSS model, the
classical speed-scaling substrate it builds on (YDS, AVR, OA, BKP, AVR(m)),
the paper's algorithms (CRCD, CRP2D, CRAD, AVRQ, BKPQ, AVRQ(m)), its lower
bounds as executable adversarial games, and the benchmark harness that
regenerates every table and figure.

Quick start::

    from repro import QJob, QBSSInstance, PowerFunction
    from repro.qbss import bkpq, clairvoyant

    job = QJob(release=0.0, deadline=4.0, query_cost=0.5,
               work_upper=3.0, work_true=1.0)
    inst = QBSSInstance([job])
    run = bkpq(inst)
    print(run.energy(PowerFunction(3.0)),
          clairvoyant(inst, alpha=3.0).energy_value)
"""

from .core import (
    DEFAULT_ALPHA,
    EPS,
    PHI,
    Instance,
    Job,
    PowerFunction,
    QBSSInstance,
    QJob,
    Schedule,
    SpeedProfile,
)

__version__ = "1.0.1"

__all__ = [
    "DEFAULT_ALPHA",
    "EPS",
    "PHI",
    "Instance",
    "Job",
    "PowerFunction",
    "QBSSInstance",
    "QJob",
    "Schedule",
    "SpeedProfile",
    "__version__",
]
