"""GNNOne public API: unified sparse kernels with backend dispatch."""

from repro.core.api import sddmm, spmm, spmv
from repro.core.autotune import TuneResult, autotune
from repro.core.plancache import PlanCache, clear_plan_cache, get_plan_cache
from repro.kernels.gnnone.planner import UnifiedLoadPlan, plan_unified_load

__all__ = [
    "sddmm",
    "spmm",
    "spmv",
    "TuneResult",
    "autotune",
    "UnifiedLoadPlan",
    "plan_unified_load",
    "PlanCache",
    "clear_plan_cache",
    "get_plan_cache",
]
