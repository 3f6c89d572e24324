"""Schedule auto-tuning: search (schedule kind, nc, v) under a memory
budget.

The paper tunes these by hand per phase (Sections 3.1 and 7.1); this
module automates the search for a fixed parallel layout: every ``v``,
kind of :data:`AUTOTUNE_KINDS` and round size ``nc`` (divisors of nmb) is
simulated by :func:`repro.parallel.search.evaluate`, gated on its
simulated peak and ranked by TFLOPs.  The ablation benchmark uses it to
show the design space around the paper's choices.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.errors import ConfigError
from repro.hardware.cluster import ClusterSpec
from repro.model.config import TextModelConfig

if TYPE_CHECKING:  # imported lazily to avoid a package import cycle
    from repro.parallel.config import JobConfig, ParallelConfig
    from repro.parallel.search import Candidate

#: The schedule kinds the autotuner sweeps.  The ablation results
#: (``benchmarks/results/ablation_schedule.txt``) are pinned on these two.
AUTOTUNE_KINDS = ("flexible", "afab")


def autotune_schedule(
    model: TextModelConfig,
    parallel: "ParallelConfig",
    job: "JobConfig",
    cluster: ClusterSpec,
    memory_budget_gb: float = 72.0,
    v_candidates: Optional[Sequence[int]] = None,
    nc_candidates: Optional[Sequence[int]] = None,
    recompute: bool = False,
    congestion: float = 1.0,
) -> List["Candidate"]:
    """Evaluate the schedule design space; best feasible first.

    Returns every successfully simulated candidate (those whose simulated
    peak fits ``memory_budget_gb`` sorted to the front by TFLOPs, then the
    over-budget ones), so benchmarks can show the whole trade-off surface
    rather than just the winner.
    """
    from repro.parallel.search import Candidate, evaluate, rank_key, within_budget

    nmb = job.micro_batches(parallel)
    layers_per_rank = max(math.ceil(model.n_layers / parallel.pp), 1)
    if v_candidates is None:
        v_candidates = sorted({
            v for v in (1, 2, layers_per_rank // 2, layers_per_rank)
            if v >= 1
        })
    if nc_candidates is None:
        nc_candidates = [d for d in range(1, nmb + 1) if nmb % d == 0]

    simulated = []
    for v, kind, nc in itertools.product(
            dict.fromkeys(v_candidates), AUTOTUNE_KINDS,
            dict.fromkeys(nc_candidates)):
        cand = evaluate(model, job, cluster,
                        Candidate.of(parallel, job, kind=kind, v=v, nc=nc),
                        recompute=recompute, congestion=congestion)
        if cand.simulated_peak_gb is not None:  # failed shapes are left out
            simulated.append(within_budget(cand, memory_budget_gb))
    return sorted(simulated, key=rank_key)


def best_schedule(
    model: TextModelConfig,
    parallel: "ParallelConfig",
    job: "JobConfig",
    cluster: ClusterSpec,
    memory_budget_gb: float = 72.0,
    **kwargs,
) -> "Candidate":
    """The best feasible configuration, or raise if nothing fits."""
    results = autotune_schedule(
        model, parallel, job, cluster, memory_budget_gb, **kwargs)
    if not results or not results[0].feasible:
        raise ConfigError(
            f"no schedule fits in {memory_budget_gb} GiB; best infeasible: "
            f"{results[0].describe() if results else 'none evaluated'}")
    return results[0]
