"""Classical speed-scaling algorithms (the substrate the paper builds on).

Single machine: YDS (optimal offline), AVR, OA and BKP (online).
Parallel machines: AVR(m), the pooled lower bound, and a convex-programming
optimum for small instances.
"""

from typing import TYPE_CHECKING

from .. import _lazy

#: Package-level name -> the submodule that defines it (loaded on first use).
_SOURCES = {
    "AVRResult": "avr",
    "avr": "avr",
    "avr_profile": "avr",
    "avr_profile_online_replay": "avr",
    "BKPResult": "bkp",
    "bkp": "bkp",
    "bkp_intensity_at": "bkp",
    "bkp_profile": "bkp",
    "SpeedLadder": "discrete",
    "discretization_penalty": "discrete",
    "discretize_profile": "discrete",
    "worst_case_penalty": "discrete",
    "OAResult": "oa",
    "oa": "oa",
    "oa_profile": "oa",
    "CriticalInterval": "yds",
    "YDSResult": "yds",
    "optimal_energy": "yds",
    "optimal_max_speed": "yds",
    "yds": "yds",
    "yds_profile": "yds",
}

__all__ = list(_SOURCES)

__getattr__, __dir__ = _lazy.attach(__name__, _SOURCES)

if TYPE_CHECKING:
    from .avr import (
        AVRResult as AVRResult,
        avr as avr,
        avr_profile as avr_profile,
        avr_profile_online_replay as avr_profile_online_replay,
    )
    from .bkp import (
        BKPResult as BKPResult,
        bkp as bkp,
        bkp_intensity_at as bkp_intensity_at,
        bkp_profile as bkp_profile,
    )
    from .discrete import (
        SpeedLadder as SpeedLadder,
        discretization_penalty as discretization_penalty,
        discretize_profile as discretize_profile,
        worst_case_penalty as worst_case_penalty,
    )
    from .oa import OAResult as OAResult, oa as oa, oa_profile as oa_profile
    from .yds import (
        CriticalInterval as CriticalInterval,
        YDSResult as YDSResult,
        optimal_energy as optimal_energy,
        optimal_max_speed as optimal_max_speed,
        yds as yds,
        yds_profile as yds_profile,
    )
