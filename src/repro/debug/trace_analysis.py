"""Top-down slow-rank localisation from communication traces (Section 6.1).

The key observation from production: **in a synchronising collective, the
slowest participant shows the *shortest* trace span** — it joins last, and
everyone else's span includes the wait for it (Figure 8).  But a rank that
looks slow in its TP group may itself be waiting on a CP peer, so the first
rank where the problem is observed is often not the source.

The fix is to search parallelism dimensions from the **outermost level
inward** ([DP, PP, EP, CP, TP] — the reverse of the Section 5.2 comm
order, with EP between PP and CP as in the mesh decomposition):
at each level, find which group index the straggler lives at by blaming
each rank for the wait it caused its peers, then narrow the candidate set
and descend.  The result pins a single global rank plus an attribution of
where its time went.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.ordered_sum import ordered_sum
from repro.parallel.mesh import DeviceMesh
from repro.sim.engine import Simulator, TraceEvent

#: Search order: outermost parallelism level first (Section 6.1).
SEARCH_ORDER = ("dp", "pp", "ep", "cp", "tp")


@dataclass(frozen=True)
class LevelDecision:
    """One narrowing step of the top-down search."""

    dim: str
    chosen_index: int
    blame_seconds: float
    candidates_before: int
    candidates_after: int


@dataclass(frozen=True)
class SlowRankReport:
    """Outcome of the top-down analysis."""

    slow_rank: int
    decisions: Tuple[LevelDecision, ...]
    compute_excess_seconds: float
    attribution: str  # "compute" or "communication"

    def describe(self) -> str:
        lines = [f"slow rank: {self.slow_rank} ({self.attribution}-bound)"]
        for d in self.decisions:
            lines.append(
                f"  {d.dim}: index {d.chosen_index} "
                f"(blame {d.blame_seconds * 1e3:.3f} ms, "
                f"{d.candidates_before} -> {d.candidates_after} candidates)"
            )
        return "\n".join(lines)


def _collective_blame(
    events: List[TraceEvent], candidates: set
) -> Dict[int, float]:
    """Wait each rank caused its peers, from its *earliest* collective at
    this level.

    Events of one collective instance share (name, end, group); within an
    instance, a rank's lateness is its join time minus the earliest join.
    Only each rank's first instance counts: lateness cascades — a rank
    held up by a straggler joins *its* next collective late, smearing
    blame down the chain — but at a rank's first collective of a level its
    lag is still fresh, so the earliest-instance blame isolates the
    origin.  This is the trace-analysis core of Section 6.1.
    """
    instances: Dict[Tuple[str, float, Tuple[int, ...]], List[TraceEvent]] = \
        defaultdict(list)
    for e in events:
        if e.group and e.rank in candidates:
            instances[(e.name, e.end, e.group)].append(e)
    first_start: Dict[int, float] = {}
    for members in instances.values():
        for m in members:
            prev = first_start.get(m.rank)
            if prev is None or m.start < prev:
                first_start[m.rank] = m.start
    blame: Dict[int, float] = defaultdict(float)
    for members in instances.values():
        if len(members) < 2:
            continue
        earliest = min(m.start for m in members)
        for m in members:
            if m.start == first_start[m.rank]:
                blame[m.rank] += (m.start - earliest) * (len(members) - 1)
    return blame


def identify_slow_rank(
    sim: Simulator, mesh: DeviceMesh,
    metrics: Optional[MetricsRegistry] = None,
) -> SlowRankReport:
    """Run the Section 6.1 top-down search over a recorded trace.

    Collective events must be named ``"<dim>:..."`` (e.g. ``"tp:ag"``),
    which is how the synthetic workload and the training executor tag
    them.  Raises if the trace contains no collectives at any level.

    When ``metrics`` is given, every narrowing decision is appended to the
    registry's structured-event log (``slow_rank.decision``, then a final
    ``slow_rank.located``) and the per-level blame lands in the
    ``slow_rank.blame_seconds`` gauge — the machine-readable form of the
    Figure 8 walk.
    """
    candidates = set(range(mesh.world_size))
    decisions: List[LevelDecision] = []
    # Both priced collectives ("comm") and exposed waits ("exposed_comm")
    # count: the executor/obs layer marks unhidden communication with the
    # latter kind, and a straggler visible only through exposed waits must
    # still be visible to the search.
    comm_events = [
        e for e in sim.events if e.kind in ("comm", "exposed_comm")
    ]
    if not comm_events:
        raise ValueError("trace contains no communication events")

    for dim in SEARCH_ORDER:
        if len(candidates) == 1:
            break
        dim_events = [e for e in comm_events if e.name.startswith(f"{dim}:")]
        if not dim_events:
            continue
        blame = _collective_blame(dim_events, candidates)
        if not blame:
            continue
        worst_rank = max(blame, key=lambda r: blame[r])
        chosen_index = getattr(mesh.coord_of(worst_rank), dim)
        before = len(candidates)
        candidates = {
            r for r in candidates
            if getattr(mesh.coord_of(r), dim) == chosen_index
        }
        decision = LevelDecision(
            dim=dim,
            chosen_index=chosen_index,
            blame_seconds=blame[worst_rank],
            candidates_before=before,
            candidates_after=len(candidates),
        )
        decisions.append(decision)
        if metrics is not None:
            metrics.event(
                "slow_rank.decision",
                dim=dim,
                chosen_index=chosen_index,
                blame_seconds=decision.blame_seconds,
                candidates_before=before,
                candidates_after=len(candidates),
            )
            metrics.gauge(
                "slow_rank.blame_seconds", unit="s",
                description="straggler blame at the chosen group, per level",
            ).set(decision.blame_seconds, dim=dim)

    def compute_time(rank: int) -> float:
        return ordered_sum(
            e.duration for e in sim.events_for(rank, kind="compute")
        )

    if len(candidates) != 1:
        # Fall back to the rank with the largest compute time among the
        # remaining candidates (no collectives discriminated further).
        slow_rank = max(candidates, key=compute_time)
    else:
        slow_rank = next(iter(candidates))

    # Attribution: compare the slow rank's compute time against the fleet
    # median; if its excess compute explains its lateness, it is
    # compute-bound (faulty/thermally-throttled GPU), else communication.
    compute_times = sorted(compute_time(r) for r in range(mesh.world_size))
    n = len(compute_times)
    # True median: averaging the middle pair for even-sized fleets (the
    # upper-middle element alone overstates the baseline whenever the
    # straggler's own time lands in the upper half, deflating its excess).
    median = (compute_times[n // 2] if n % 2
              else (compute_times[n // 2 - 1] + compute_times[n // 2]) / 2.0)
    excess = compute_time(slow_rank) - median
    attribution = "compute" if excess > 0.05 * max(median, 1e-12) else \
        "communication"
    if metrics is not None:
        metrics.event(
            "slow_rank.located",
            rank=slow_rank,
            attribution=attribution,
            compute_excess_seconds=excess,
        )
    return SlowRankReport(
        slow_rank=slow_rank,
        decisions=tuple(decisions),
        compute_excess_seconds=excess,
        attribution=attribution,
    )
