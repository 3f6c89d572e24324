"""Pipeline parallelism: flexible schedules, balancing, gradient memory,
and multimodal sharding."""

from repro.pp.analysis import (
    ScheduleShape,
    validate_schedule_params,
    warmup_microbatches,
    peak_in_flight_microbatches,
    bubble_ratio,
    extra_warmup_vs_interleaved,
    default_nc,
    degenerates_to_afab,
)

from repro.pp.autotune import AUTOTUNE_KINDS, autotune_schedule, best_schedule
from repro.pp.render import render_timeline
from repro.pp.multimodal_schedule import (
    MultimodalPipelineResult,
    stage_costs,
    simulate_multimodal_pipeline,
    compare_groupings_event_level,
)
from repro.pp.registry import (
    ScheduleBuilder,
    ScheduleEntry,
    entry_for_name,
    register_schedule,
    schedule_entries,
    schedule_entry,
    schedule_kinds,
)
from repro.pp.heterogeneity import (
    mixed_fleet_preset,
    mixed_gpu_stage_scale,
    stage_profile,
    vit_encoder_stage_scale,
)

# Importing the builder modules populates the registry; any import of
# the package (or a submodule) therefore sees the full schedule zoo.
from repro.pp import schedule as _schedule  # noqa: F401
from repro.pp import zoo as _zoo  # noqa: F401

__all__ = [
    "ScheduleBuilder",
    "ScheduleEntry",
    "entry_for_name",
    "register_schedule",
    "schedule_entries",
    "schedule_entry",
    "schedule_kinds",
    "mixed_fleet_preset",
    "mixed_gpu_stage_scale",
    "stage_profile",
    "vit_encoder_stage_scale",
    "MultimodalPipelineResult",
    "stage_costs",
    "simulate_multimodal_pipeline",
    "compare_groupings_event_level",
    "render_timeline",
    "AUTOTUNE_KINDS",
    "autotune_schedule",
    "best_schedule",
    "ScheduleShape",
    "validate_schedule_params",
    "warmup_microbatches",
    "peak_in_flight_microbatches",
    "bubble_ratio",
    "extra_warmup_vs_interleaved",
    "default_nc",
    "degenerates_to_afab",
]
