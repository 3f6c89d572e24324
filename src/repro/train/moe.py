"""MoE token-routing math: load imbalance, drop accounting, and dispatch
traffic.

Expert layers route each token to its ``top_k`` experts, but every expert
processes at most a fixed *capacity* of tokens per micro-batch —
``capacity_factor`` times its share of a perfectly balanced load.  Tokens
routed past a full expert are dropped (they skip the FFN and ride the
residual connection).  Two consequences matter for the simulator:

* **Compute/traffic shaping** — a *hot* expert (one that real routers
  over-select early in training) saturates its capacity buffer, so the
  rank hosting it does up to ``capacity_factor`` times the balanced work
  while its all-to-all peers wait.  This is the per-stage-heterogeneity
  shape the :class:`repro.faults.HotExpert` fault injects; its
  ``work_scale`` is that clipped work multiplier.
* **Quality accounting** — the dropped-token fraction is a training
  quality signal, reported on :class:`repro.train.step.StepReport`.

The load model is deliberately one-parameter: the hottest expert receives
``imbalance`` times the balanced per-expert load and the remaining
experts split the rest evenly.  ``imbalance = 1.0`` is a perfect router.
"""

from __future__ import annotations

from repro.model.config import TextModelConfig


def dropped_token_fraction(
    n_experts: int,
    capacity_factor: float,
    imbalance: float = 1.0,
) -> float:
    """Fraction of routed token slots dropped at the given imbalance.

    The hottest expert draws ``imbalance`` times the balanced load
    (clipped to all tokens when ``imbalance > n_experts``); the rest of
    the load spreads evenly over the other experts.  Anything past an
    expert's ``capacity_factor`` buffer is dropped.
    """
    if n_experts < 1:
        raise ValueError("n_experts must be >= 1")
    if capacity_factor <= 0:
        raise ValueError("capacity_factor must be positive")
    if imbalance < 1.0:
        raise ValueError("imbalance must be >= 1.0 (1.0 = balanced)")
    cap = capacity_factor / n_experts     # capacity as a load fraction
    hot = min(imbalance / n_experts, 1.0)
    dropped = max(0.0, hot - cap)
    if n_experts > 1:
        cold = (1.0 - hot) / (n_experts - 1)
        dropped += (n_experts - 1) * max(0.0, cold - cap)
    return min(dropped, 1.0)


def dispatch_bytes_per_rank(
    model: TextModelConfig, tokens: int, tp: int = 1
) -> float:
    """Bytes one EP rank contributes to the dispatch all-to-all.

    Each of the rank's ``tokens`` activations is replicated to its
    ``top_k`` experts in BF16; sequence parallelism splits the payload
    over the ``tp`` ranks sharing the sequence.  The combine all-to-all
    moves the same volume back.
    """
    if not model.is_moe:
        return 0.0
    if tokens < 0 or tp < 1:
        raise ValueError("tokens >= 0 and tp >= 1 required")
    return 2.0 * tokens * model.top_k * model.dim / tp
