"""Multi-machine speed scaling: AVR(m), slot allocation, bounds, optimum."""

from typing import TYPE_CHECKING

from ... import _lazy

#: Package-level name -> the submodule that defines it (loaded on first use).
_SOURCES = {
    "MinMaxSpeedResult": "flow",
    "feasible_with_cap": "flow",
    "max_flow_allocation": "flow",
    "min_max_speed": "flow",
    "min_max_speed_schedule": "flow",
    "OAmResult": "oa_m",
    "oa_m": "oa_m",
    "NonMigratoryResult": "nonmigratory",
    "assign_arrival_least_density": "nonmigratory",
    "assign_greedy_energy": "nonmigratory",
    "assign_least_density": "nonmigratory",
    "assign_round_robin": "nonmigratory",
    "non_migratory": "nonmigratory",
    "optimal_non_migratory": "nonmigratory",
    "SlotAllocation": "allocation",
    "allocate_slot": "allocation",
    "AVRmResult": "avr_m",
    "avr_m": "avr_m",
    "max_speed_lower_bound": "bounds",
    "pooled_lower_bound": "bounds",
    "mcnaughton_slot": "mcnaughton",
    "convex_optimal_energy": "optimal",
    "elementary_grid": "optimal",
    "optimal_allocation": "optimal",
    "optimal_schedule": "optimal",
    "slot_energy": "optimal",
}

__all__ = list(_SOURCES)

__getattr__, __dir__ = _lazy.attach(__name__, _SOURCES)

if TYPE_CHECKING:
    from .allocation import (
        SlotAllocation as SlotAllocation,
        allocate_slot as allocate_slot,
    )
    from .avr_m import AVRmResult as AVRmResult, avr_m as avr_m
    from .bounds import (
        max_speed_lower_bound as max_speed_lower_bound,
        pooled_lower_bound as pooled_lower_bound,
    )
    from .flow import (
        MinMaxSpeedResult as MinMaxSpeedResult,
        feasible_with_cap as feasible_with_cap,
        max_flow_allocation as max_flow_allocation,
        min_max_speed as min_max_speed,
        min_max_speed_schedule as min_max_speed_schedule,
    )
    from .mcnaughton import mcnaughton_slot as mcnaughton_slot
    from .oa_m import OAmResult as OAmResult, oa_m as oa_m
    from .nonmigratory import (
        NonMigratoryResult as NonMigratoryResult,
        assign_arrival_least_density as assign_arrival_least_density,
        assign_greedy_energy as assign_greedy_energy,
        assign_least_density as assign_least_density,
        assign_round_robin as assign_round_robin,
        non_migratory as non_migratory,
        optimal_non_migratory as optimal_non_migratory,
    )
    from .optimal import (
        convex_optimal_energy as convex_optimal_energy,
        elementary_grid as elementary_grid,
        optimal_allocation as optimal_allocation,
        optimal_schedule as optimal_schedule,
        slot_energy as slot_energy,
    )
