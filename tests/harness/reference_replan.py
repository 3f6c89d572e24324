"""FROZEN reference elastic replan — the one-node step-down, verbatim.

This module is the differential-testing oracle for
:func:`repro.parallel.planner.replan_for_gpu_count`.  It holds the
function exactly as the repository shipped it before the divisor
filter: every node-aligned count from ``max_ngpu`` down runs the whole
:func:`~repro.parallel.planner.plan_parallelism`, with ``ValueError`` as
the signal to try the next count.  The code below the banner is copied
unchanged; only this header and the imports were added.  Do NOT edit it
to track the live code — its whole value is that it does not move.
``tests/harness/test_replan_differential.py`` runs both over a grid of
models, node sizes, batch sizes and capacities and requires an equal
plan or the same error message.
"""

from __future__ import annotations

from dataclasses import replace

from repro.hardware.cluster import ClusterSpec
from repro.model.config import TextModelConfig
from repro.parallel.config import JobConfig
from repro.parallel.planner import Plan, plan_parallelism


# ----------------------------------------------------------------------
# repro.parallel.planner
# ----------------------------------------------------------------------

def replan_for_gpu_count(
    model: TextModelConfig,
    job: JobConfig,
    cluster: ClusterSpec,
    max_ngpu: int,
    max_pp: int = 64,
    cost_aware: bool = False,
) -> Plan:
    """Replan after permanent capacity loss: the elastic-restart path.

    Finds the largest node-aligned GPU count ``<= max_ngpu`` for which
    Section 5.1 yields a schedulable plan, stepping down one node at a
    time past counts the divisibility constraints reject (e.g. a gbs the
    shrunken dp no longer divides).  The job keeps its gbs and sequence
    length — the paper's phases fix the token budget per step, so losing
    nodes shows up as a slower step, not a smaller batch.

    Raises ``ValueError`` when no node-aligned count down to one node
    admits a plan.
    """
    node = cluster.gpus_per_node
    for ngpu in range(max_ngpu - max_ngpu % node, 0, -node):
        shrunk_job = replace(job, ngpu=ngpu)
        shrunk_cluster = replace(cluster, num_nodes=ngpu // node)
        try:
            plan = plan_parallelism(model, shrunk_job, shrunk_cluster,
                                    max_pp=max_pp, cost_aware=cost_aware)
            # A plan is only usable if the schedule can actually split
            # the batch into whole micro-batches.
            shrunk_job.micro_batches(plan.parallel)
        except ValueError:
            continue
        return plan
    raise ValueError(
        f"no feasible plan at or below {max_ngpu} GPUs "
        f"({node} per node) for this job")
