"""Core substrate: jobs, instances, speed profiles, schedules, execution.

Everything above this package (classical algorithms, QBSS algorithms,
analysis) is written in terms of these primitives.
"""

from typing import TYPE_CHECKING

from .. import _lazy

#: Package-level name -> the submodule that defines it (loaded on first use).
_SOURCES = {
    "DEFAULT_ALPHA": "constants",
    "EPS": "constants",
    "PHI": "constants",
    "feq": "constants",
    "fge": "constants",
    "fle": "constants",
    "EDFResult": "edf",
    "profile_feasible_for": "edf",
    "run_edf": "edf",
    "Arrival": "events",
    "OnlineStream": "events",
    "FeasibilityReport": "feasibility",
    "InfeasibleScheduleError": "feasibility",
    "check_feasible": "feasibility",
    "Instance": "instance",
    "QBSSInstance": "instance",
    "Job": "job",
    "PowerFunction": "power",
    "Segment": "profile",
    "SpeedProfile": "profile",
    "max_profiles": "profile",
    "sum_profiles": "profile",
    "QJob": "qjob",
    "QJobView": "qjob",
    "QueryNotCompleted": "qjob",
    "Schedule": "schedule",
    "Slice": "schedule",
    "merge_schedules": "schedule",
}

__all__ = list(_SOURCES)

__getattr__, __dir__ = _lazy.attach(__name__, _SOURCES)

if TYPE_CHECKING:
    from .constants import (
        DEFAULT_ALPHA as DEFAULT_ALPHA,
        EPS as EPS,
        PHI as PHI,
        feq as feq,
        fge as fge,
        fle as fle,
    )
    from .edf import (
        EDFResult as EDFResult,
        profile_feasible_for as profile_feasible_for,
        run_edf as run_edf,
    )
    from .events import Arrival as Arrival, OnlineStream as OnlineStream
    from .feasibility import (
        FeasibilityReport as FeasibilityReport,
        InfeasibleScheduleError as InfeasibleScheduleError,
        check_feasible as check_feasible,
    )
    from .instance import Instance as Instance, QBSSInstance as QBSSInstance
    from .job import Job as Job
    from .power import PowerFunction as PowerFunction
    from .profile import (
        Segment as Segment,
        SpeedProfile as SpeedProfile,
        max_profiles as max_profiles,
        sum_profiles as sum_profiles,
    )
    from .qjob import (
        QJob as QJob,
        QJobView as QJobView,
        QueryNotCompleted as QueryNotCompleted,
    )
    from .schedule import (
        Schedule as Schedule,
        Slice as Slice,
        merge_schedules as merge_schedules,
    )
