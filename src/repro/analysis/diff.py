"""Run-vs-run trace diffing with automatic regression blame.

Two traces of the *same* configuration (different code, hardware health,
or fault state) are aligned by stable op identity — ``(rank, stream,
name, occurrence)``, where occurrence disambiguates repeated names in
chronological order — and the per-op deltas are bucketed by
``(kind, stream)`` with a per-rank (= pipeline-stage, for step graphs)
breakdown.  The blame report names every bucket responsible for at least
a configurable share of the total regression, together with its top
contributing ops, so "step got 8% slower" becomes "rank 2's compute ops
gained 0.25 s (straggler)".

Only occupancy events (kind ``compute``/``comm``) are aligned: the
synthesized ``exposed_comm`` wait events are *downstream symptoms* (one
straggler inflates waits on every later stage, multiplying the apparent
delta), so their aggregate delta is reported separately as a diagnostic
rather than bucketed as a cause.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.ordered_sum import ordered_sum

#: Event kinds that carry attributable duration (see module docstring).
ALIGN_KINDS = ("comm", "compute")

#: Kind of the synthesized wait events, reported but never blamed.
WAIT_KIND = "exposed_comm"


@dataclass(frozen=True)
class OpDelta:
    """Duration change of one aligned op between two runs."""

    name: str
    rank: int
    stream: str
    kind: str
    occurrence: int
    baseline_seconds: float
    current_seconds: float
    faulted: bool = False

    @property
    def delta_seconds(self) -> float:
        return self.current_seconds - self.baseline_seconds

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "rank": self.rank,
            "stream": self.stream,
            "kind": self.kind,
            "occurrence": self.occurrence,
            "baseline_seconds": self.baseline_seconds,
            "current_seconds": self.current_seconds,
            "delta_seconds": self.delta_seconds,
            "faulted": self.faulted,
        }


@dataclass(frozen=True)
class DiffBucket:
    """Aggregated delta for one (kind, stream) with a per-rank split."""

    kind: str
    stream: str
    delta_seconds: float
    baseline_seconds: float
    current_seconds: float
    n_ops: int
    n_faulted: int
    by_rank: Tuple[Tuple[int, float], ...]
    top_ops: Tuple[OpDelta, ...]

    def to_dict(self, share: float = 0.0) -> dict:
        return {
            "kind": self.kind,
            "stream": self.stream,
            "delta_seconds": self.delta_seconds,
            "baseline_seconds": self.baseline_seconds,
            "current_seconds": self.current_seconds,
            "share": share,
            "n_ops": self.n_ops,
            "n_faulted": self.n_faulted,
            "by_rank": {str(r): d for r, d in self.by_rank},
            "top_ops": [o.to_dict() for o in self.top_ops],
        }


def _align(events: Iterable) -> Dict[Tuple[int, str, str, int], object]:
    """Index occupancy events by stable identity."""
    groups: Dict[Tuple[int, str, str], List[object]] = {}
    for e in events:
        if e.kind in ALIGN_KINDS:
            groups.setdefault((e.rank, e.stream, e.name), []).append(e)
    out: Dict[Tuple[int, str, str, int], object] = {}
    for (rank, stream, name), members in groups.items():
        members.sort(key=lambda e: (e.start, e.end))
        for occurrence, e in enumerate(members):
            out[(rank, stream, name, occurrence)] = e
    return out


@dataclass(frozen=True)
class TraceDiff:
    """Full alignment of two traces plus aggregate statistics."""

    baseline_makespan: float
    current_makespan: float
    deltas: Tuple[OpDelta, ...]
    unmatched_baseline_ops: int
    unmatched_baseline_seconds: float
    unmatched_current_ops: int
    unmatched_current_seconds: float
    exposed_wait_delta_seconds: float

    @property
    def regression_seconds(self) -> float:
        return self.current_makespan - self.baseline_makespan

    def buckets(self, top_ops: int = 3) -> List[DiffBucket]:
        """Per-(kind, stream) aggregation, sorted by delta descending."""
        grouped: Dict[Tuple[str, str], List[OpDelta]] = {}
        for d in self.deltas:
            grouped.setdefault((d.kind, d.stream), []).append(d)
        out: List[DiffBucket] = []
        for (kind, stream), members in grouped.items():
            by_rank: Dict[int, float] = {}
            for d in members:
                by_rank[d.rank] = by_rank.get(d.rank, 0.0) + d.delta_seconds
            ranked = sorted(
                members,
                key=lambda d: (-d.delta_seconds, d.rank, d.name, d.occurrence))
            out.append(DiffBucket(
                kind=kind,
                stream=stream,
                delta_seconds=ordered_sum(d.delta_seconds for d in members),
                baseline_seconds=ordered_sum(
                    d.baseline_seconds for d in members),
                current_seconds=ordered_sum(
                    d.current_seconds for d in members),
                n_ops=len(members),
                n_faulted=sum(1 for d in members if d.faulted),
                by_rank=tuple(sorted(by_rank.items())),
                top_ops=tuple(ranked[:top_ops]),
            ))
        out.sort(key=lambda b: (-b.delta_seconds, b.kind, b.stream))
        return out

    def blame(self, threshold: float = 0.05) -> List[DiffBucket]:
        """Buckets owning at least ``threshold`` of the total positive
        delta — the "responsible for >= X% of the regression" report."""
        buckets = self.buckets(top_ops=3)
        total = ordered_sum(
            b.delta_seconds for b in buckets if b.delta_seconds > 0)
        if total <= 0:
            return []
        return [b for b in buckets
                if b.delta_seconds > 0 and b.delta_seconds >= threshold * total]

    def to_dict(self, top: int = 10, threshold: float = 0.05) -> dict:
        buckets = self.buckets(top_ops=3)
        total = ordered_sum(
            b.delta_seconds for b in buckets if b.delta_seconds > 0)
        blamed = {(b.kind, b.stream) for b in self.blame(threshold=threshold)}
        regressions = sorted(
            (d for d in self.deltas if d.delta_seconds > 0),
            key=lambda d: (-d.delta_seconds, d.rank, d.name, d.occurrence))
        return {
            "baseline_makespan_seconds": self.baseline_makespan,
            "current_makespan_seconds": self.current_makespan,
            "regression_seconds": self.regression_seconds,
            "exposed_wait_delta_seconds": self.exposed_wait_delta_seconds,
            "n_matched": len(self.deltas),
            "blame_threshold": threshold,
            "unmatched": {
                "baseline": {"ops": self.unmatched_baseline_ops,
                             "seconds": self.unmatched_baseline_seconds},
                "current": {"ops": self.unmatched_current_ops,
                            "seconds": self.unmatched_current_seconds},
            },
            "buckets": [
                b.to_dict(share=(b.delta_seconds / total
                                 if total > 0 and b.delta_seconds > 0 else 0.0))
                for b in buckets],
            "blame": [
                b.to_dict(share=b.delta_seconds / total)
                for b in buckets if (b.kind, b.stream) in blamed],
            "top_regressions": [d.to_dict() for d in regressions[:top]],
        }


def diff_traces(baseline_events: Iterable,
                current_events: Iterable) -> TraceDiff:
    """Align two event collections and compute per-op deltas.

    Events are duck-typed: anything with ``name``/``kind``/``rank``/
    ``stream``/``start``/``end`` (and optionally ``tags``) works — both
    :class:`~repro.sim.engine.TraceEvent` and
    :class:`~repro.analysis.streaming.LightEvent`.  Both inputs must be
    in the same rank space (remap one side first if not).
    """
    baseline = list(baseline_events)
    current = list(current_events)
    base_map = _align(baseline)
    cur_map = _align(current)

    deltas: List[OpDelta] = []
    for key in sorted(base_map.keys() & cur_map.keys()):
        rank, stream, name, occurrence = key
        b, c = base_map[key], cur_map[key]
        deltas.append(OpDelta(
            name=name, rank=rank, stream=stream, kind=c.kind,
            occurrence=occurrence,
            baseline_seconds=b.end - b.start,
            current_seconds=c.end - c.start,
            faulted="faulted" in tuple(getattr(c, "tags", ()) or ()),
        ))

    def _unmatched(own, other):
        keys = own.keys() - other.keys()
        return len(keys), ordered_sum(
            own[k].end - own[k].start for k in keys)

    ub_ops, ub_seconds = _unmatched(base_map, cur_map)
    uc_ops, uc_seconds = _unmatched(cur_map, base_map)

    def _wait_seconds(events):
        return ordered_sum(
            e.end - e.start for e in events if e.kind == WAIT_KIND)

    return TraceDiff(
        baseline_makespan=max((e.end for e in baseline), default=0.0),
        current_makespan=max((e.end for e in current), default=0.0),
        deltas=tuple(deltas),
        unmatched_baseline_ops=ub_ops,
        unmatched_baseline_seconds=ub_seconds,
        unmatched_current_ops=uc_ops,
        unmatched_current_seconds=uc_seconds,
        exposed_wait_delta_seconds=(
            _wait_seconds(current) - _wait_seconds(baseline)),
    )


__all__ = [
    "ALIGN_KINDS",
    "WAIT_KIND",
    "OpDelta",
    "DiffBucket",
    "TraceDiff",
    "diff_traces",
]
