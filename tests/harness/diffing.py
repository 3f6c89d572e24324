"""Field-by-field diffing of two engine timelines.

All comparisons are *bitwise*: floats must match exactly (including the
sign of zero), because the fast engine's contract is that it performs
the same arithmetic in the same order as the reference, not merely
arithmetic that lands within a tolerance.  Diffs are returned as
human-readable strings naming the first divergent event index and
field, so an equivalence failure reads as a bug report.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

EVENT_FIELDS: Tuple[str, ...] = (
    "name", "kind", "rank", "stream", "start", "end", "group", "tags")

#: Cap on reported divergences, so a systematically wrong timeline
#: produces a readable failure instead of a million lines.
MAX_DIFFS = 20


def floats_identical(a: float, b: float) -> bool:
    """Bitwise float equality: exact value AND sign of zero."""
    if a != b:
        return False
    if a == 0.0:
        return math.copysign(1.0, a) == math.copysign(1.0, b)
    return True


def _values_identical(a: object, b: object) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and floats_identical(float(a), float(b))
    return a == b


def diff_event_lists(
    ref_events: Sequence[object],
    fast_events: Sequence[object],
    label: str = "events",
) -> List[str]:
    """Every field-level divergence between two event streams (capped)."""
    problems: List[str] = []
    if len(ref_events) != len(fast_events):
        problems.append(
            f"{label}: length {len(ref_events)} (reference) != "
            f"{len(fast_events)} (fast)")
    for i, (r, f) in enumerate(zip(ref_events, fast_events)):
        for field in EVENT_FIELDS:
            rv, fv = getattr(r, field), getattr(f, field)
            if not _values_identical(rv, fv):
                problems.append(
                    f"{label}[{i}].{field}: reference={rv!r} fast={fv!r} "
                    f"(event {r.name!r} on rank {r.rank} "
                    f"stream {r.stream!r})")
                if len(problems) >= MAX_DIFFS:
                    return problems
    return problems


def _pair_key(pair: Tuple[object, object]) -> tuple:
    a, b = pair
    return (a.rank, a.stream, a.start, a.end, a.name,
            b.start, b.end, b.name)


def compare_simulators(
    ref,
    fast,
    streams: Optional[Sequence[str]] = None,
    check_overlaps: bool = True,
) -> List[str]:
    """Full observable-behaviour diff of two engines fed the same inputs.

    Compares the event stream field-by-field, the global and per-rank
    makespans, per-(rank, stream) busy/idle/now, the indexed
    ``events_for`` views, and (optionally) the overlap-pair report as a
    multiset — i.e. every public inspection surface of the engine.
    Returns a list of problem strings; empty means equivalent.
    """
    problems = diff_event_lists(ref.events, fast.events)
    if problems:
        return problems  # per-field diffs make later checks redundant

    if not floats_identical(ref.makespan(), fast.makespan()):
        problems.append(
            f"makespan: reference={ref.makespan()!r} fast={fast.makespan()!r}")

    ranks = sorted({e.rank for e in ref.events})
    if streams is None:
        streams = sorted({e.stream for e in ref.events})

    for rank in ranks:
        if not floats_identical(ref.makespan([rank]), fast.makespan([rank])):
            problems.append(
                f"makespan([{rank}]): reference={ref.makespan([rank])!r} "
                f"fast={fast.makespan([rank])!r}")
        ref_rank_events = ref.events_for(rank)
        fast_rank_events = fast.events_for(rank)
        problems.extend(diff_event_lists(
            ref_rank_events, fast_rank_events, label=f"events_for({rank})"))
        for stream in streams:
            for check, ref_v, fast_v in (
                ("busy_time", ref.busy_time(rank, stream),
                 fast.busy_time(rank, stream)),
                ("idle_time", ref.idle_time(rank, stream),
                 fast.idle_time(rank, stream)),
                ("now", ref.now(rank, stream), fast.now(rank, stream)),
            ):
                if not floats_identical(ref_v, fast_v):
                    problems.append(
                        f"{check}({rank}, {stream!r}): reference={ref_v!r} "
                        f"fast={fast_v!r}")
            problems.extend(diff_event_lists(
                ref.events_for(rank, stream=stream),
                fast.events_for(rank, stream=stream),
                label=f"events_for({rank}, {stream!r})"))
        if len(problems) >= MAX_DIFFS:
            return problems[:MAX_DIFFS]

    if check_overlaps:
        # Pair *content* must match; emission order is not part of the
        # contract (the fast engine iterates streams in creation order,
        # the reference in first-event order).
        ref_pairs = sorted(map(_pair_key, ref.overlapping_events()))
        fast_pairs = sorted(map(_pair_key, fast.overlapping_events()))
        if ref_pairs != fast_pairs:
            problems.append(
                f"overlapping_events: reference={ref_pairs!r} "
                f"fast={fast_pairs!r}")
    return problems
