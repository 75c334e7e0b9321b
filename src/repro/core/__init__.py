"""GNNOne public API: unified sparse kernels with backend dispatch."""

from repro.core.api import run_sddmm, run_spmm, run_spmv, sddmm, spmm, spmv
from repro.core.autotune import TuneResult, autotune, clear_tune_cache
from repro.core.loadplan import UnifiedLoadPlan, plan_unified_load
from repro.core.plancache import PlanCache, clear_plan_cache, get_plan_cache

__all__ = [
    "sddmm",
    "spmm",
    "spmv",
    "run_sddmm",
    "run_spmm",
    "run_spmv",
    "TuneResult",
    "autotune",
    "clear_tune_cache",
    "UnifiedLoadPlan",
    "plan_unified_load",
    "PlanCache",
    "clear_plan_cache",
    "get_plan_cache",
]
