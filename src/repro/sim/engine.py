"""Event-timeline engine: per-(rank, stream) timelines with dependency starts.

The engine tracks, for every (rank, stream) pair, the time at which the
stream becomes free.  Tasks are submitted in a causally consistent order —
i.e. all of a task's dependencies must already have been submitted — which
is the natural order for schedule executors that walk per-rank programs with
a ready-list.  In exchange the engine stays small and the resulting traces
are exact.

Streams model CUDA streams: one ``compute`` stream per rank plus any number
of communication streams (``p2p``, ``fsdp``, ``cp``...).  Work on different
streams of the same rank may overlap, which is how the simulator expresses
communication/computation overlap (e.g. FSDP all-gather prefetch hidden
under forward compute, Section 7.3.1).

There are two ways in: :meth:`Simulator.run` times one task from its
stream's frontier, its dependencies and an optional release time, and
:meth:`Simulator.record` appends an event its caller already timed (the
step-graph timeline, which :mod:`repro.train.executor` times on flat
arrays and builds on first read; trace merges; the rank-0 run log of
:mod:`repro.resilience.run`; and the synchronising collectives of
:mod:`repro.debug.workload`).  The engine never perturbs a duration:
fault plans apply before submission
(:func:`repro.faults.models.perturb_duration`).

**Fast path.**  Every built timeline — step traces, the fault workload,
multi-step run logs at 131K ranks — lands here, so the implementation is
tuned for raw submission throughput and O(1)-amortised inspection (see
``docs/engine.md``):

* :class:`TraceEvent` is a ``__slots__`` record (no dataclass machinery on
  the hot constructor path), with low-cardinality ``tags`` tuples interned
  so a million-event trace shares a handful of tuple objects;
* makespan, per-stream busy time, and per-rank event buckets are
  maintained *incrementally on submit*, so :meth:`makespan`,
  :meth:`busy_time`, :meth:`idle_time`, and :meth:`events_for` never scan
  the full event list.

The semantics are pinned by a differential harness (``tests/harness``)
that replays every seeded workload through the frozen pre-fast-path
engine and asserts bitwise equality of every event field; keep any edit
here inside that contract.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

StreamKey = Tuple[int, str]

_EVENT_FIELDS = ("name", "kind", "rank", "stream", "start", "end",
                 "group", "tags")


class TraceEvent:
    """One completed task on one rank's stream.

    A ``__slots__`` record rather than a dataclass: event construction is
    the single hottest operation in the simulator, and slotted attribute
    stores are ~3x faster than the frozen-dataclass ``__setattr__`` path.
    Treat instances as immutable — the engine shares ``group`` and
    ``tags`` tuples between events, and downstream consumers (trace
    export, analysis, verification) all assume event fields never change.
    Use :meth:`replace` to derive modified copies.

    Attributes:
        name: Operation name, e.g. ``"fwd:mb3:vs1"`` or ``"allgather:kv"``.
        kind: Category used by trace analysis: ``"compute"``,
            ``"comm"``, or ``"exposed_comm"``.
        rank: Global rank the event ran on.
        stream: Stream name within the rank.
        start: Start timestamp in seconds.
        end: End timestamp in seconds.
        group: Optional tuple of participant ranks for collectives.
        tags: Free-form labels, e.g. ``"faulted"`` on an event whose
            duration a fault plan changed.
    """

    __slots__ = _EVENT_FIELDS

    def __init__(self, name: str, kind: str, rank: int, stream: str,
                 start: float, end: float,
                 group: Tuple[int, ...] = (),
                 tags: Tuple[str, ...] = ()) -> None:
        self.name = name
        self.kind = kind
        self.rank = rank
        self.stream = stream
        self.start = start
        self.end = end
        self.group = group
        self.tags = tags

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "TraceEvent") -> bool:
        """Whether two events overlap in wall-clock time."""
        return self.start < other.end and other.start < self.end

    def replace(self, **changes: object) -> "TraceEvent":
        """A copy with the given fields replaced (``dataclasses.replace``
        equivalent for this slotted class)."""
        for key in changes:
            if key not in _EVENT_FIELDS:
                raise TypeError(f"TraceEvent has no field {key!r}")
        kwargs = {f: changes.get(f, getattr(self, f))
                  for f in _EVENT_FIELDS}
        return TraceEvent(**kwargs)

    def _astuple(self) -> tuple:
        return (self.name, self.kind, self.rank, self.stream,
                self.start, self.end, self.group, self.tags)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceEvent(name={self.name!r}, kind={self.kind!r}, "
                f"rank={self.rank}, stream={self.stream!r}, "
                f"start={self.start}, end={self.end}, "
                f"group={self.group}, tags={self.tags})")


class _StreamState:
    """Incremental accounting for one (rank, stream) pair."""

    __slots__ = ("free", "busy", "max_end", "events")

    def __init__(self) -> None:
        self.free = 0.0
        self.busy = 0.0
        self.max_end = 0.0
        self.events: List[TraceEvent] = []


class Simulator:
    """Timeline simulator over (rank, stream) resources.

    Example:
        >>> sim = Simulator()
        >>> a = sim.run(rank=0, stream="compute", duration=1.0, name="fwd")
        >>> b = sim.run(rank=1, stream="compute", duration=1.0, name="fwd",
        ...             after=[a])
        >>> b.start
        1.0
    """

    def __init__(self) -> None:
        self._streams: Dict[StreamKey, _StreamState] = {}
        self._events: List[TraceEvent] = []
        self._rank_events: Dict[int, List[TraceEvent]] = {}
        self._max_end = 0.0
        self._tag_intern: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _intern(self, tags: Tuple[str, ...]) -> Tuple[str, ...]:
        # Tags are low-cardinality; interning keeps million-event traces
        # from holding a million identical ("faulted",) tuples.
        interned = self._tag_intern.get(tags)
        if interned is None:
            interned = self._tag_intern[tags] = tags
        return interned

    def _stream(self, rank: int, stream: str) -> _StreamState:
        key = (rank, stream)
        st = self._streams.get(key)
        if st is None:
            st = self._streams[key] = _StreamState()
        return st

    def _commit(self, st: _StreamState, event: TraceEvent) -> None:
        """Record one event into the incremental accounting."""
        end = event.end
        st.events.append(event)
        st.busy += end - event.start
        if end > st.max_end:
            st.max_end = end
        if end > self._max_end:
            self._max_end = end
        self._events.append(event)
        rank = event.rank
        bucket = self._rank_events.get(rank)
        if bucket is None:
            bucket = self._rank_events[rank] = []
        bucket.append(event)

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------

    def run(
        self,
        rank: int,
        stream: str,
        duration: float,
        name: str,
        kind: str = "compute",
        after: Optional[Sequence[TraceEvent]] = None,
        not_before: float = 0.0,
        tags: Tuple[str, ...] = (),
    ) -> TraceEvent:
        """Run one task on a single rank's stream and return its event.

        The task starts when the stream is free, every event in ``after``
        has finished, and ``not_before`` has passed.
        """
        if duration < 0:
            raise ValueError(f"negative duration for task {name!r}")
        st = self._stream(rank, stream)
        ready = st.free
        if not_before > ready:
            ready = not_before
        if after:
            for dep in after:
                dep_end = dep.end
                if dep_end > ready:
                    ready = dep_end
        tags = self._intern(tuple(tags)) if tags else ()
        event = TraceEvent(name, kind, rank, stream, ready, ready + duration,
                           (), tags)
        st.free = event.end
        self._commit(st, event)
        return event

    def record(self, event: TraceEvent) -> None:
        """Append an externally-timed event, advancing its stream.

        Used by callers that time events themselves: trace merges, the
        rank-0 run log, and synchronising collectives; the event's own
        start/end are trusted as-is.
        """
        if event.end < event.start:
            raise ValueError(f"event {event.name!r} ends before it starts")
        st = self._stream(event.rank, event.stream)
        if event.end > st.free:
            st.free = event.end
        self._commit(st, event)

    # ------------------------------------------------------------------
    # Inspection API
    # ------------------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        """All recorded events, in submission order."""
        return list(self._events)

    def now(self, rank: int, stream: str) -> float:
        """Time at which a stream becomes free."""
        st = self._streams.get((rank, stream))
        return st.free if st is not None else 0.0

    def makespan(self, ranks: Optional[Iterable[int]] = None) -> float:
        """Latest end time across the given ranks (or all ranks).

        Maintained incrementally: the unfiltered call is O(1), the
        filtered call is O(streams of those ranks) — never O(events).
        """
        if ranks is None:
            return self._max_end
        out = 0.0
        seen = set(ranks)
        for (rank, _), st in self._streams.items():
            if rank in seen and st.max_end > out:
                out = st.max_end
        return out

    def events_for(
        self, rank: int, stream: Optional[str] = None, kind: Optional[str] = None
    ) -> List[TraceEvent]:
        """Events on one rank, optionally filtered by stream and kind.

        Indexed per rank on submit, so the cost is O(that rank's events)
        rather than a scan of the whole timeline.
        """
        bucket = self._rank_events.get(rank, [])
        if stream is None and kind is None:
            return list(bucket)
        return [
            e for e in bucket
            if (stream is None or e.stream == stream)
            and (kind is None or e.kind == kind)
        ]

    def overlapping_events(
        self,
    ) -> List[Tuple[TraceEvent, TraceEvent]]:
        """Pairs of events that overlap in time on the same (rank, stream).

        A correct timeline never has any: each (rank, stream) models one
        serially-executing CUDA stream.  The ``submit-in-causal-order``
        contract makes overlap impossible through :meth:`run`, but
        :meth:`record` trusts caller-supplied times, so spliced timelines
        can violate it — this is the raw check behind the
        ``stream-overlap`` invariant in :mod:`repro.verify.invariants`.
        """
        offenders: List[Tuple[TraceEvent, TraceEvent]] = []
        for st in self._streams.values():
            ordered = sorted(st.events, key=lambda e: (e.start, e.end))
            active: Optional[TraceEvent] = None  # max-end event so far
            for cur in ordered:
                if active is not None and active.overlaps(cur):
                    offenders.append((active, cur))
                if active is None or cur.end > active.end:
                    active = cur
        return offenders

    def busy_time(self, rank: int, stream: str = "compute") -> float:
        """Total busy duration on a stream (events never overlap per
        stream).  Accumulated incrementally on submit — O(1)."""
        st = self._streams.get((rank, stream))
        return st.busy if st is not None else 0.0

    def idle_time(self, rank: int, stream: str = "compute") -> float:
        """Makespan minus busy time on one rank's stream — O(1), so
        ``busy_time(r, s) + idle_time(r, s) == makespan()`` per stream by
        construction."""
        return self._max_end - self.busy_time(rank, stream)
