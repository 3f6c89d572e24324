"""Differential oracles: two independent computations of the same thing
must agree.

Each oracle runs a "candidate" path (the code that would ship) against a
"reference" path (slower, simpler, or closed-form) and reports any gap as
:class:`~repro.verify.invariants.Violation` rows inside a structured
:class:`OracleResult`.  The three oracles mirror the paper's own
correctness arguments:

* **AFAB degeneration** (Section 3.1.1): the flexible schedule with
  ``nc < pp`` must be *op-for-op identical* to the explicit
  all-forward-all-backward construction.
* **CP sharding** (Section 4): head/tail-sharded all-gather attention
  must be bitwise equal, row by row, to unsharded reference attention,
  for both causal and document (block-causal) masks, after the sharding
  itself passes the partition check.
* **PP numerics** (Section 6.2): the pipeline-order gradient accumulator
  must match the sequential baseline forced into the same accumulation
  order, bitwise, when accumulating in FP32 — parallelism only reorders
  floating-point sums, so any residual gap is an implementation bug.
* **Bubble regression** (Section 3.1.1): on uniform stages the
  zero-bubble split-backward schedule must post a measured bubble ratio
  no worse than classic non-interleaved 1F1B — deferring weight-grad
  work into the drain exists precisely to shrink that bubble, so a
  regression means the split-backward lowering lost its advantage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attention.masks import causal_mask, document_mask
from repro.attention.reference import attention_reference
from repro.cp.allgather import allgather_cp_attention
from repro.cp.sharding import head_tail_partition_problems, rank_row_indices
from repro.data.documents import DocumentBatch
from repro.numerics.compare import bitwise_equal, max_abs_diff
from repro.numerics.parallel_emul import (
    grads_in_order,
    pp_backward_order,
    pp_microbatch_grads,
)
from repro.numerics.precision import PRODUCTION, PrecisionConfig
from repro.numerics.transformer import (
    TinyConfig,
    TinyTransformer,
    random_token_batch,
)
from repro.pp.analysis import ScheduleShape
from repro.pp.layout import build_layout
from repro.pp.registry import schedule_entry
from repro.pp.schedule import build_afab_schedule, build_flexible_schedule
from repro.train.cost import StageCost
from repro.train.executor import execute_pipeline
from repro.verify.invariants import Violation


@dataclass(frozen=True)
class OracleResult:
    """One oracle's verdict over one configuration."""

    name: str
    violations: Tuple[Violation, ...]
    context: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "oracle": self.name,
            "ok": self.ok,
            "context": dict(self.context),
            "violations": [v.to_dict() for v in self.violations],
        }


# ----------------------------------------------------------------------
# Schedule oracle: nc < pp degenerates to AFAB
# ----------------------------------------------------------------------

def oracle_afab_degeneration(shape: ScheduleShape) -> OracleResult:
    """Flexible schedule vs. explicit AFAB when ``nc < pp``.

    For ``nc >= pp`` the oracle instead asserts the flexible schedule is
    *not* AFAB-shaped (unless it trivially is, i.e. the warm-up swallows
    the whole batch on every rank), so the degeneration boundary itself
    is pinned from both sides.
    """
    context = {"pp": shape.pp, "v": shape.v, "nc": shape.nc,
               "nmb": shape.nmb}
    flexible = build_flexible_schedule(shape)
    violations: List[Violation] = []
    if shape.nc < shape.pp:
        afab = build_afab_schedule(shape)
        for ppr in range(shape.pp):
            got, want = flexible.program(ppr), afab.program(ppr)
            if got != want:
                first = next(
                    (i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                    min(len(got), len(want)))
                violations.append(Violation(
                    "afab-degeneration",
                    f"nc={shape.nc} < pp={shape.pp} but rank {ppr}'s "
                    f"flexible program diverges from AFAB at op {first} "
                    f"(Section 3.1.1)",
                    {**context, "ppr": ppr, "first_divergence": first}))
    else:
        if flexible.name in ("afab", "flexible-degenerate-afab"):
            violations.append(Violation(
                "afab-degeneration",
                f"nc={shape.nc} >= pp={shape.pp} must not degenerate, "
                f"got schedule {flexible.name!r}",
                context))
    return OracleResult("afab-degeneration", tuple(violations), context)


# ----------------------------------------------------------------------
# CP oracle: sharded attention vs. unsharded reference
# ----------------------------------------------------------------------

def oracle_cp_attention(
    seq: int,
    cp: int,
    doc_lens: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> OracleResult:
    """Head/tail-sharded all-gather CP attention vs. unsharded attention,
    on 4 query heads over 2 KV heads of dimension 8.

    Validates the sharding structure first (rank *i* owns chunks *i* and
    ``2*cp - 1 - i``, rows partition exactly), then compares the
    reassembled distributed output and log-sum-exp bitwise against a
    single "device" computing all rows at once under the same mask.
    ``doc_lens`` switches from the causal to the document mask.
    """
    context: Dict[str, object] = {
        "seq": seq, "cp": cp, "seed": seed,
        "mask": "document" if doc_lens else "causal",
    }
    violations = [
        Violation("cp-sharding", problem, dict(context))
        for problem in head_tail_partition_problems(seq, cp)
    ]
    # FP64 draws: the bitwise contract of the reference kernel holds in
    # the "FP64-stable" regime its module docstring promises; float32
    # einsum reductions are shape-dependent and would report rounding
    # noise as a sharding bug.
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((seq, 4, 8))
    k = rng.standard_normal((seq, 2, 8))
    v = rng.standard_normal((seq, 2, 8))
    batch = None
    if doc_lens is not None:
        batch = DocumentBatch(seq=seq, doc_lens=tuple(doc_lens))
        mask = document_mask(batch.doc_ids)
    else:
        mask = causal_mask(seq)
    reference = attention_reference(q, k, v, mask)
    sharded = allgather_cp_attention(q, k, v, cp, batch=batch)
    if not np.array_equal(sharded.out, reference.out):
        bad_rows = np.flatnonzero(
            np.any(sharded.out != reference.out, axis=(1, 2)))
        owners = sorted({
            rank for rank in range(cp)
            if np.intersect1d(bad_rows,
                              rank_row_indices(seq, cp, rank)).size
        })
        violations.append(Violation(
            "cp-attention",
            f"sharded output differs from unsharded reference on "
            f"{bad_rows.size} rows (first: {int(bad_rows[0])}, CP ranks "
            f"{owners}); max |diff| = "
            f"{float(np.max(np.abs(sharded.out - reference.out))):.3e}",
            {**context, "bad_rows": int(bad_rows.size),
             "first_bad_row": int(bad_rows[0]),
             "ranks": owners}))
    if not np.array_equal(sharded.lse, reference.lse):
        violations.append(Violation(
            "cp-attention",
            "sharded log-sum-exp differs from unsharded reference",
            dict(context)))
    return OracleResult("cp-attention", tuple(violations), context)


# ----------------------------------------------------------------------
# Bubble oracle: zero-bubble must not regress past classic 1F1B
# ----------------------------------------------------------------------

def oracle_bubble_regression(pp: int = 4, nmb: int = 8) -> OracleResult:
    """Executed zero-bubble bubble ratio vs. classic 1F1B, uniform stages.

    Both schedules are lowered and executed through the full simulator
    path on identical uniform per-stage costs (two layers per stage,
    backward = 2x forward, the usual dgrad + wgrad proportion, 0.25 s
    P2P) and their measured mean bubble
    ratios compared.  The zero-bubble construction defers weight-grad
    work into the 1F1B drain, so on uniform stages its bubble must be
    no larger; any gap the other way means the split-backward pricing
    or lowering broke the schedule's one reason to exist.
    """
    layers_per_stage, p2p_seconds = 2, 0.25
    context: Dict[str, object] = {
        "pp": pp, "nmb": nmb, "layers_per_stage": layers_per_stage,
        "p2p_seconds": p2p_seconds,
    }
    shape = ScheduleShape(pp=pp, v=1, nc=pp, nmb=nmb)
    layout = build_layout(pp * layers_per_stage, pp, 1)

    def fwd(stage) -> StageCost:
        return StageCost(1.0 * max(stage.n_layers, 1), 0.0, 0.0)

    def bwd(stage) -> StageCost:
        return StageCost(2.0 * max(stage.n_layers, 1), 0.0, 0.0)

    ratios: Dict[str, float] = {}
    for kind in ("zero-bubble", "1f1b-noninterleaved"):
        schedule = schedule_entry(kind).builder(shape)
        run = execute_pipeline(schedule, layout, fwd, bwd, p2p_seconds)
        ratios[kind] = run.mean_bubble_ratio
    context["bubble_ratios"] = dict(ratios)
    violations: List[Violation] = []
    if ratios["zero-bubble"] > ratios["1f1b-noninterleaved"]:
        violations.append(Violation(
            "bubble-regression",
            f"zero-bubble bubble ratio "
            f"{ratios['zero-bubble']:.3f} exceeds classic 1F1B's "
            f"{ratios['1f1b-noninterleaved']:.3f} on uniform stages "
            f"(pp={pp}, nmb={nmb}) — split backward no longer fills "
            f"the drain (Section 3.1.1)",
            dict(context)))
    return OracleResult("bubble-regression", tuple(violations), context)


# ----------------------------------------------------------------------
# Numerics oracle: parallel order vs. order-matched sequential baseline
# ----------------------------------------------------------------------

def oracle_pp_numerics(
    shape: ScheduleShape,
    seed: int = 0,
    precision: PrecisionConfig = PRODUCTION,
) -> OracleResult:
    """Pipeline-order gradient accumulation vs. the order-matched
    sequential baseline, FP32 accumulation, bitwise (Section 6.2), on
    16-token sequences.

    For every pipeline rank and virtual stage, walks the schedule's
    BACKWARD ops through :func:`pp_microbatch_grads` and replays the same
    micro-batch order through :func:`grads_in_order`; the two must agree
    bit for bit because they differ only in code path, not in arithmetic
    order.
    """
    seq = 16
    context = {"pp": shape.pp, "v": shape.v, "nc": shape.nc,
               "nmb": shape.nmb, "seq": seq, "seed": seed,
               "grad_accum": precision.grad_accum}
    schedule = build_flexible_schedule(shape)
    model = TinyTransformer.create(TinyConfig(), seed=seed)
    tokens, targets = random_token_batch(model.cfg, shape.nmb, seq, seed)
    violations: List[Violation] = []
    for ppr in range(shape.pp):
        for vs in range(shape.v):
            order = pp_backward_order(schedule, ppr, virtual_stage=vs)
            parallel = pp_microbatch_grads(
                model, tokens, targets, schedule, ppr, precision,
                virtual_stage=vs)
            sequential = grads_in_order(
                model, tokens, targets, order, precision)
            if not bitwise_equal(parallel, sequential):
                violations.append(Violation(
                    "pp-numerics",
                    f"rank {ppr} vs={vs}: pipeline-order gradients "
                    f"differ from the order-matched sequential baseline "
                    f"(max |diff| = "
                    f"{max_abs_diff(parallel, sequential):.3e}); "
                    f"implementation bug, not numerics (Section 6.2)",
                    {**context, "ppr": ppr, "virtual_stage": vs,
                     "order": list(order)}))
    return OracleResult("pp-numerics", tuple(violations), context)


# ----------------------------------------------------------------------
# Default battery
# ----------------------------------------------------------------------

def run_default_oracles(seed: int = 0) -> List[OracleResult]:
    """The oracle battery the ``repro verify`` CLI runs before fuzzing.

    Covers both sides of the ``nc < pp`` boundary, causal and document
    CP masks at two CP degrees, PP numerics on a degenerate-AFAB and a
    proper 1F1B shape, and the zero-bubble-vs-1F1B bubble pin at two
    pipeline depths.
    """
    results = [
        oracle_afab_degeneration(ScheduleShape(pp=4, v=2, nc=2, nmb=8)),
        oracle_afab_degeneration(ScheduleShape(pp=4, v=2, nc=4, nmb=8)),
        oracle_afab_degeneration(ScheduleShape(pp=3, v=1, nc=1, nmb=5)),
        oracle_cp_attention(seq=64, cp=4, seed=seed),
        oracle_cp_attention(seq=64, cp=4, doc_lens=(17, 30, 17), seed=seed),
        oracle_cp_attention(seq=48, cp=2, doc_lens=(48,), seed=seed + 1),
        oracle_pp_numerics(ScheduleShape(pp=2, v=2, nc=2, nmb=4), seed=seed),
        oracle_pp_numerics(ScheduleShape(pp=4, v=1, nc=2, nmb=4), seed=seed),
        oracle_bubble_regression(pp=4, nmb=8),
        oracle_bubble_regression(pp=8, nmb=16),
    ]
    return results
