"""4D parallelism: configuration, device mesh, planner, search, memory."""

from repro.parallel.config import (
    ParallelConfig,
    JobConfig,
    ZeroStage,
    LLAMA3_405B_SHORT_CONTEXT,
    LLAMA3_405B_LONG_CONTEXT,
)
from repro.parallel.mesh import DeviceMesh, MeshCoord, DIM_ORDER
from repro.parallel.memory import RankMemory, estimate_rank_memory
from repro.parallel.search import Candidate
from repro.parallel.planner import (
    Plan,
    plan_parallelism,
    replan_for_gpu_count,
    arithmetic_intensity_2d,
    hardware_flops_per_byte,
    MEMORY_HEADROOM,
)

from repro.parallel.ordering import (
    PAPER_ORDER,
    DimTraffic,
    OrderingScore,
    dimension_traffic,
    links_for_order,
    score_ordering,
    rank_orderings,
)

__all__ = [
    "PAPER_ORDER",
    "DimTraffic",
    "OrderingScore",
    "dimension_traffic",
    "links_for_order",
    "score_ordering",
    "rank_orderings",
    "ParallelConfig",
    "JobConfig",
    "ZeroStage",
    "LLAMA3_405B_SHORT_CONTEXT",
    "LLAMA3_405B_LONG_CONTEXT",
    "DeviceMesh",
    "MeshCoord",
    "DIM_ORDER",
    "RankMemory",
    "estimate_rank_memory",
    "Candidate",
    "Plan",
    "plan_parallelism",
    "replan_for_gpu_count",
    "arithmetic_intensity_2d",
    "hardware_flops_per_byte",
    "MEMORY_HEADROOM",
]
