"""Critical-path extraction over an executed step graph.

Answers the Section 6.1 debugging question "which op chain bounds the
step, and by how much": starting from the makespan-defining op, walk
backward through the edge that *actually* gated each op's start — a
dependency edge whose producer finished exactly when the op started, or
the previous op on the same (rank, stream) — until reaching an op that
started at t=0.  The result is a chronological chain of
:class:`PathEntry` (op, rank, stream, duration, slack) whose durations
tile the timeline exactly.

Exactness is not approximate: the simulator computes every start time as
``max(stream_free, dep_ends..., 0)`` and ``max`` returns one of its
arguments bit-for-bit, so the binding predecessor's ``end`` equals the
op's ``start`` in exact float comparison.  The chain therefore satisfies

* ``entries[0].start == 0.0``,
* ``entries[i+1].start == entries[i].end`` for every link, and
* ``entries[-1].end == makespan`` (the ``simulate_step`` step time),

which is the ``critical-path-makespan`` invariant enforced by
:func:`repro.verify.invariants.run_step_invariants`.  (Summing durations
with float ``+`` would not telescope exactly; contiguity is the exact
formulation.)

Every executed op additionally gets a **slack**: how much later it could
have finished without moving the makespan, computed by a latest-finish
backward pass over the combined precedence graph (dependency edges plus
per-(rank, stream) serialization).  Path ops have slack ~0; ops with
small positive slack are the near-critical set that becomes critical
after small perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.sim.engine import TraceEvent
from repro.train.lowering import StepGraph

@dataclass(frozen=True)
class PathEntry:
    """One op on (or near) the critical path.

    Attributes:
        uid: Step-graph op uid.
        name: Trace event name.
        kind: :class:`~repro.train.lowering.StepOpKind` value string.
        rank: Executor (pipeline) rank.
        stream: Simulator stream the op occupied.
        start: Event start in seconds.
        end: Event end in seconds.
        slack: Seconds the op could slip without moving the makespan.
        via: How the op's start was bound — ``"origin"`` (t=0),
            ``"dep"`` (a dependency edge), ``"stream"`` (the previous op
            on its stream), or ``"gap"`` (no binding found: an external
            release floor delayed it, so the chain is inexact).
    """

    uid: int
    name: str
    kind: str
    rank: int
    stream: str
    start: float
    end: float
    slack: float
    via: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "uid": self.uid,
            "name": self.name,
            "kind": self.kind,
            "rank": self.rank,
            "stream": self.stream,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "slack": self.slack,
            "via": self.via,
        }


@dataclass(frozen=True)
class CriticalPathReport:
    """Outcome of one critical-path extraction.

    ``entries`` is the chain in chronological order; ``exact`` certifies
    the makespan invariant (contiguous links, ``start == 0`` origin,
    terminal ``end == makespan``).  ``slack_by_uid`` covers every
    executed op; ``near_critical`` is the lowest-slack off-path subset.
    """

    entries: Tuple[PathEntry, ...]
    makespan_seconds: float
    exact: bool
    slack_by_uid: Mapping[int, float]
    near_critical: Tuple[PathEntry, ...] = ()

    @property
    def n_ops(self) -> int:
        return len(self.entries)

    @property
    def path_seconds(self) -> float:
        """Span of the chain — equals the makespan when ``exact``."""
        if not self.entries:
            return 0.0
        return self.entries[-1].end - self.entries[0].start

    @property
    def seconds_by_stream(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for e in self.entries:
            out[e.stream] = out.get(e.stream, 0.0) + e.duration
        return dict(sorted(out.items()))

    @property
    def seconds_by_kind(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for e in self.entries:
            out[e.kind] = out.get(e.kind, 0.0) + e.duration
        return dict(sorted(out.items()))

    @property
    def share_by_stream(self) -> Dict[str, float]:
        """Critical-path share of the makespan per stream — the number
        the planner and goodput reports cite ("61% compute-bound")."""
        if self.makespan_seconds <= 0:
            return {s: 0.0 for s in self.seconds_by_stream}
        return {s: v / self.makespan_seconds
                for s, v in self.seconds_by_stream.items()}

    def to_dict(self, top: Optional[int] = 10) -> dict:
        """JSON-able summary; ``top`` bounds the per-op lists (the full
        chain stays available on :attr:`entries`)."""
        longest = sorted(
            self.entries, key=lambda e: (-e.duration, e.start, e.uid))
        if top is not None:
            longest = longest[:top]
        near = list(self.near_critical if top is None
                    else self.near_critical[:top])
        return {
            "makespan_seconds": self.makespan_seconds,
            "path_seconds": self.path_seconds,
            "exact": self.exact,
            "n_ops": self.n_ops,
            "seconds_by_stream": self.seconds_by_stream,
            "share_by_stream": self.share_by_stream,
            "seconds_by_kind": self.seconds_by_kind,
            "top_entries": [e.to_dict() for e in longest],
            "near_critical": [e.to_dict() for e in near],
        }


def _stream_predecessors(
    executed: Dict[int, TraceEvent],
    by_uid: Dict[int, object],
) -> Dict[int, int]:
    """uid -> uid of the previous op on the same (rank, stream)."""
    lanes: Dict[Tuple[int, str], List[int]] = {}
    for uid, event in executed.items():
        lanes.setdefault((event.rank, event.stream), []).append(uid)
    pred: Dict[int, int] = {}
    for uids in lanes.values():
        uids.sort(key=lambda u: (executed[u].start, executed[u].end, u))
        for prev, cur in zip(uids, uids[1:]):
            pred[cur] = prev
    return pred


def _compute_slack(
    executed: Dict[int, TraceEvent],
    by_uid: Dict[int, object],
    stream_pred: Dict[int, int],
    makespan: float,
) -> Dict[int, float]:
    """Latest-finish backward pass over dep + stream-order edges."""
    successors: Dict[int, List[int]] = {uid: [] for uid in executed}
    indegree: Dict[int, int] = {uid: 0 for uid in executed}

    def add_edge(src: int, dst: int) -> None:
        successors[src].append(dst)
        indegree[dst] += 1

    for uid in executed:
        for dep in by_uid[uid].deps:
            if dep in executed:
                add_edge(dep, uid)
        prev = stream_pred.get(uid)
        if prev is not None:
            add_edge(prev, uid)

    # Kahn topological order (robust to zero-duration ties).
    order: List[int] = [u for u, d in indegree.items() if d == 0]
    head = 0
    while head < len(order):
        for succ in successors[order[head]]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                order.append(succ)
        head += 1

    # A tampered timeline can make lane order contradict dep edges,
    # leaving a cycle that Kahn's order never reaches; those nodes fall
    # back to the makespan default rather than crashing — the chain
    # walk still flags the inconsistency.
    latest_finish: Dict[int, float] = {}
    for uid in reversed(order):
        succs = successors[uid]
        if not succs:
            latest_finish[uid] = makespan
        else:
            latest_finish[uid] = min(
                latest_finish.get(s, makespan)
                - (executed[s].end - executed[s].start)
                for s in succs)
    return {
        uid: max(0.0, latest_finish.get(uid, makespan) - executed[uid].end)
        for uid in executed
    }


def extract_critical_path(
    graph: StepGraph,
    events: Dict[int, TraceEvent],
    makespan: Optional[float] = None,
) -> CriticalPathReport:
    """Extract the makespan-bounding op chain of one executed step graph.

    Args:
        graph: The lowered (possibly fault-perturbed) graph that ran.
        events: Executed event per op uid —
            ``StepReport.execution.events``.
        makespan: Step time to pin the chain against; defaults to the
            latest event end (exactly ``simulate_step``'s step_seconds).

    The 25 lowest-slack off-path ops are surfaced as near-critical.  The
    walk never raises on an inexact timeline (e.g. one executed into a
    simulator whose streams were already busy); it flags it via
    :attr:`CriticalPathReport.exact` so callers — the
    ``critical-path-makespan`` invariant — can decide.
    """
    by_uid = graph.by_uid()
    executed = {uid: ev for uid, ev in events.items() if uid in by_uid}
    if not executed:
        return CriticalPathReport(
            entries=(), makespan_seconds=makespan or 0.0,
            exact=not makespan, slack_by_uid={})
    observed = max(e.end for e in executed.values())
    if makespan is None:
        makespan = observed

    stream_pred = _stream_predecessors(executed, by_uid)
    slack = _compute_slack(executed, by_uid, stream_pred, makespan)

    # Terminal op: the one defining the observed makespan (deterministic
    # tie-break by start then uid).
    terminal = max(executed, key=lambda u: (executed[u].end,
                                            executed[u].start, u))

    chain: List[Tuple[int, str]] = []
    seen = set()
    uid: Optional[int] = terminal
    while uid is not None and uid not in seen:
        seen.add(uid)
        event = executed[uid]
        binding: Optional[int] = None
        via = "origin"
        if event.start != 0.0:
            for dep in by_uid[uid].deps:
                dep_event = executed.get(dep)
                if dep_event is not None and dep_event.end == event.start:
                    binding, via = dep, "dep"
                    break
            if binding is None:
                prev = stream_pred.get(uid)
                if prev is not None and executed[prev].end == event.start:
                    binding, via = prev, "stream"
                else:
                    via = "gap"  # external release floor; chain inexact
        chain.append((uid, via))
        uid = binding
    chain.reverse()

    entries = tuple(
        PathEntry(
            uid=u,
            name=executed[u].name,
            kind=by_uid[u].kind.value,
            rank=executed[u].rank,
            stream=executed[u].stream,
            start=executed[u].start,
            end=executed[u].end,
            slack=slack[u],
            via=via,
        )
        for u, via in chain
    )
    exact = (entries[0].start == 0.0
             and entries[0].via == "origin"
             and entries[-1].end == makespan)

    on_path = {e.uid for e in entries}
    near = sorted(
        (u for u in executed if u not in on_path),
        key=lambda u: (slack[u], executed[u].start, u))[:25]
    near_entries = tuple(
        PathEntry(
            uid=u, name=executed[u].name, kind=by_uid[u].kind.value,
            rank=executed[u].rank, stream=executed[u].stream,
            start=executed[u].start, end=executed[u].end,
            slack=slack[u], via="slack",
        )
        for u in near
    )
    return CriticalPathReport(
        entries=entries,
        makespan_seconds=makespan,
        exact=exact,
        slack_by_uid=slack,
        near_critical=near_entries,
    )


__all__ = [
    "PathEntry",
    "CriticalPathReport",
    "extract_critical_path",
]
