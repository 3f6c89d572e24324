"""Sources for heterogeneous per-stage / per-micro-batch compute profiles.

A :class:`~repro.pp.analysis.ScheduleShape` carries optional
``stage_compute_scale`` and ``microbatch_compute_scale`` tuples; this
module builds them from the two scenarios ROADMAP item 4 names:

* **Mixed GPU fleets** — pipeline ranks populated by different parts
  (H100 / H200 / B200, from :mod:`repro.hardware`): a stage on a faster
  part gets a compute multiplier < 1 relative to the reference part.
* **Multimodal encoder stages** — a ViT encoder occupying the leading
  pipeline stages runs cheaper FLOPs than the language stages behind it
  ("Heterogeneous Parallelism for Multimodal LLM Training", arxiv
  2605.27678; same modelling as
  :func:`repro.pp.multimodal_schedule.stage_costs`).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.hardware.gpu import B200, GpuSpec, H100_HBM3, H200, relative_compute_scale


def mixed_gpu_stage_scale(
    rank_gpus: Sequence[GpuSpec],
    v: int,
) -> Tuple[float, ...]:
    """Per-global-stage compute scale for a pipeline over mixed parts.

    ``rank_gpus[ppr]`` is the part hosting pipeline rank ``ppr``; with
    ``v`` virtual stages per rank, global stage ``s`` lives on rank
    ``s % pp`` (the Figure 2 interleaving), so its scale is that rank's
    part relative to the H100.
    """
    pp = len(rank_gpus)
    if pp < 1:
        raise ValueError("rank_gpus must name at least one part")
    if v < 1:
        raise ValueError(f"v must be >= 1; got v={v}")
    per_rank = [relative_compute_scale(gpu) for gpu in rank_gpus]
    return tuple(per_rank[s % pp] for s in range(pp * v))


def mixed_fleet_preset(pp: int, v: int) -> Tuple[float, ...]:
    """A concrete mixed H100/H200/B200 fleet: parts assigned to ranks
    round-robin, scaled relative to H100 — the simplest shape of the
    "heterogeneous rack generations" scenario."""
    parts = [H100_HBM3, H200, B200]
    return mixed_gpu_stage_scale(
        [parts[ppr % len(parts)] for ppr in range(pp)], v
    )


def vit_encoder_stage_scale(pp: int, v: int) -> Tuple[float, ...]:
    """Per-global-stage scale for a ViT-encoder-headed pipeline.

    The first global stage holds the vision encoder, whose FLOPs are
    lighter than a language stage's (the multimodal sharding study
    models the encoder at roughly half a language stage; 0.55 matches
    its defaults).  Remaining stages are uniform language stages at
    scale 1.0.
    """
    return tuple(0.55 if s == 0 else 1.0 for s in range(pp * v))


#: Named stage-profile presets usable anywhere a profile is accepted.
STAGE_PRESETS = {
    "mixed-fleet": mixed_fleet_preset,
    "vit-encoder": vit_encoder_stage_scale,
}


def stage_profile(preset: str, pp: int, v: int) -> Tuple[float, ...]:
    """Resolve a named stage-profile preset for a (pp, v) pipeline."""
    try:
        fn = STAGE_PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown stage profile {preset!r}; "
            f"options: {', '.join(sorted(STAGE_PRESETS))}"
        ) from None
    return fn(pp, v)
