"""Changepoint detection for performance regressions over training time.

Section 6.1 frames slow-rank hunting as failure localisation and cites the
inflection-point hypothesis: the most diagnostic moment is *when* behaviour
changed, not where the error finally surfaced.  For training fleets the
practical version is: given per-step durations for each rank, find the
step at which a rank's distribution shifted (a GPU starting to throttle, a
link going degraded) — transient slowdowns accumulate through fine-grain
synchronisation (Section 8.1), so catching the onset early matters.

The detector is a standard two-sample split statistic: for each candidate
changepoint, compare means before/after, normalised by pooled variance;
report the split maximising the statistic when it clears a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Changepoint:
    """A detected behaviour change in one rank's step-duration series."""

    rank: int
    step: int            # first step of the new regime
    before_mean: float
    after_mean: float
    score: float         # normalised shift statistic

    @property
    def slowdown(self) -> float:
        """Relative slowdown of the new regime (can be negative)."""
        return self.after_mean / self.before_mean - 1.0


#: Minimum steps on each side of a split.
MIN_SEGMENT = 5
#: Detection threshold on the normalised statistic (roughly a z-score; 6
#: keeps false positives negligible on thousand-step series).
THRESHOLD = 6.0


def detect_changepoint(durations: Sequence[float]) -> Optional[Changepoint]:
    """Find the most likely changepoint in one rank's per-step durations.

    Returns None when no split clears :data:`THRESHOLD`.
    """
    x = np.asarray(durations, dtype=np.float64)
    n = x.size
    if n < 2 * MIN_SEGMENT:
        return None
    best_score, best_split = 0.0, -1
    # Prefix sums for O(n) mean computation per split.
    csum = np.cumsum(x)
    csq = np.cumsum(x * x)
    total, total_sq = csum[-1], csq[-1]
    for split in range(MIN_SEGMENT, n - MIN_SEGMENT + 1):
        n1, n2 = split, n - split
        s1 = csum[split - 1]
        m1 = s1 / n1
        m2 = (total - s1) / n2
        var1 = csq[split - 1] / n1 - m1 * m1
        var2 = (total_sq - csq[split - 1]) / n2 - m2 * m2
        pooled = np.sqrt(max((n1 * var1 + n2 * var2) / n, 1e-18))
        score = abs(m2 - m1) / pooled * np.sqrt(n1 * n2 / n)
        if score > best_score:
            best_score, best_split = score, split
    if best_score < THRESHOLD or best_split < 0:
        return None
    m1 = float(csum[best_split - 1] / best_split)
    m2 = float((total - csum[best_split - 1]) / (n - best_split))
    return Changepoint(rank=-1, step=best_split, before_mean=m1,
                       after_mean=m2, score=float(best_score))


def detect_fleet_regressions(
    per_rank_durations: Dict[int, Sequence[float]],
) -> List[Changepoint]:
    """Scan every rank's series; return slow-onset changepoints, most
    severe first.

    Only *slowdowns* of at least 1% are reported (speed-ups are usually
    recovery, not faults).
    """
    found: List[Changepoint] = []
    for rank, series in per_rank_durations.items():
        cp = detect_changepoint(series)
        if cp is not None and cp.slowdown >= 0.01:
            found.append(Changepoint(rank=rank, step=cp.step,
                                     before_mean=cp.before_mean,
                                     after_mean=cp.after_mean,
                                     score=cp.score))
    return sorted(found, key=lambda c: -c.slowdown)


def synth_step_durations(
    steps: int,
    noise: float = 0.01,
    fault_step: Optional[int] = None,
    fault_slowdown: float = 0.1,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Synthetic per-step durations around 1 s with an optional onset
    fault — the test/bench workload generator for the detector."""
    if rng is None:
        rng = np.random.default_rng(0)
    x = 1.0 + noise * rng.standard_normal(steps)
    if fault_step is not None:
        if not 0 <= fault_step < steps:
            raise ValueError("fault_step out of range")
        x[fault_step:] *= 1.0 + fault_slowdown
    return x
