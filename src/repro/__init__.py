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

from typing import TYPE_CHECKING

from . import _lazy

__version__ = "1.0.1"

#: Package-level name -> the submodule that defines it (loaded on first use).
_SOURCES = dict.fromkeys(
    (
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
    ),
    "core",
)

__all__ = [*_SOURCES, "__version__"]

__getattr__, __dir__ = _lazy.attach(__name__, _SOURCES)

if TYPE_CHECKING:
    from .core import (
        DEFAULT_ALPHA as DEFAULT_ALPHA,
        EPS as EPS,
        PHI as PHI,
        Instance as Instance,
        Job as Job,
        PowerFunction as PowerFunction,
        QBSSInstance as QBSSInstance,
        QJob as QJob,
        Schedule as Schedule,
        SpeedProfile as SpeedProfile,
    )
