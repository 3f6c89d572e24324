"""Event-timeline engine with per-rank streams and synchronising collectives.

The engine tracks, for every (rank, stream) pair, the time at which the
stream becomes free.  Tasks are submitted in a causally consistent order —
i.e. all of a task's dependencies must already have been submitted — which
is the natural order for schedule executors that walk per-rank programs with
a ready-list.  In exchange the engine stays a few hundred lines and the
resulting traces are exact.

Streams model CUDA streams: one ``compute`` stream per rank plus any number
of communication streams (``p2p``, ``fsdp``, ``cp``...).  Work on different
streams of the same rank may overlap, which is how the simulator expresses
communication/computation overlap (e.g. FSDP all-gather prefetch hidden
under forward compute, Section 7.3.1).

Fault injection composes with this overlap through *duration modifiers*
(:meth:`Simulator.add_duration_modifier`, registered by
:meth:`repro.faults.FaultPlan.install` — the engine's only way to perturb
simulated time): every submitted task's duration passes through the
registered modifier chain, so a degraded link or a throttled GPU
(:mod:`repro.faults`) stretches exactly the events it matches —
including each participant's contribution to a collective — and any
event a modifier perturbed is tagged ``"faulted"`` in the trace.

**Fast path.**  This is the hot module under everything — step graphs,
fault fuzzing, detection matrices, multi-step Poisson runs — so the
implementation is tuned for raw submission throughput and O(1)-amortised
inspection (see ``docs/engine.md``):

* :class:`TraceEvent` is a ``__slots__`` record (no dataclass machinery on
  the hot constructor path), with low-cardinality ``tags`` tuples interned
  so a million-event trace shares a handful of tuple objects;
* makespan, per-stream busy time, and per-rank event buckets are
  maintained *incrementally on submit*, so :meth:`makespan`,
  :meth:`busy_time`, :meth:`idle_time`, and :meth:`events_for` never scan
  the full event list;
* :meth:`run_collective` evaluates per-rank join times and payload
  durations in one batched pass (and skips the per-rank modifier walk
  entirely when no modifiers are registered), so paper-scale collectives
  cost one Python loop, not four.

The semantics are pinned by a differential harness (``tests/harness``)
that replays every seeded workload through the frozen pre-fast-path
engine and asserts bitwise equality of every event field; keep any edit
here inside that contract.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.collectives import DEFAULT_RETRY_POLICY, RetryPolicy

StreamKey = Tuple[int, str]

#: Duration-modifier hook: ``(rank, stream, kind, name, duration)`` -> new
#: duration.  Modifiers may be stateful closures (one-shot hangs, periodic
#: jitter); they run in registration order, each seeing the previous one's
#: output.
DurationModifier = Callable[[int, str, str, str, float], float]

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
        tags: Free-form labels; the engine adds ``"faulted"`` to any event
            whose duration a registered modifier changed.
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
        self._modifiers: List[DurationModifier] = []
        self._max_end = 0.0
        self._tag_intern: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------

    def add_duration_modifier(self, modifier: DurationModifier) -> None:
        """Register a per-rank duration modifier (fault injection).

        Every subsequent :meth:`run` and :meth:`run_collective` duration
        flows through the chain; see :data:`DurationModifier`.
        """
        self._modifiers.append(modifier)

    def _modified_duration(
        self, rank: int, stream: str, kind: str, name: str, duration: float
    ) -> Tuple[float, bool]:
        """Duration after the modifier chain, plus whether it changed."""
        out = duration
        for modifier in self._modifiers:
            out = modifier(rank, stream, kind, name, out)
        if out < 0:
            raise ValueError(
                f"duration modifier made task {name!r} negative ({out})")
        return out, out != duration

    def _tagged(self, tags: Tuple[str, ...], faulted: bool) -> Tuple[str, ...]:
        if faulted and "faulted" not in tags:
            tags = tags + ("faulted",)
        if not tags:
            return tags
        # Tags are low-cardinality; interning keeps million-event traces
        # from holding a million identical ("faulted",) tuples.
        interned = self._tag_intern.get(tags)
        if interned is None:
            interned = self._tag_intern[tags] = tags
        return interned

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

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
        faulted = False
        if self._modifiers:
            duration, faulted = self._modified_duration(
                rank, stream, kind, name, duration)
        st = self._stream(rank, stream)
        ready = st.free
        if not_before > ready:
            ready = not_before
        if after:
            for dep in after:
                dep_end = dep.end
                if dep_end > ready:
                    ready = dep_end
        tags = self._tagged(tuple(tags), faulted) if (tags or faulted) else ()
        event = TraceEvent(name, kind, rank, stream, ready, ready + duration,
                           (), tags)
        st.free = event.end
        self._commit(st, event)
        return event

    def run_collective(
        self,
        ranks: Sequence[int],
        stream: str,
        duration: float,
        name: str,
        after: Optional[Dict[int, Sequence[TraceEvent]]] = None,
        kind: str = "comm",
        tags: Tuple[str, ...] = (),
        failed_attempts: int = 0,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> Dict[int, TraceEvent]:
        """Run a synchronising collective across ``ranks``.

        Every participant joins at its own ready time; the collective's
        payload transfer begins only once the **slowest** participant has
        joined (this is what makes slow-rank localisation, Section 6.1,
        possible: fast ranks show long collectives).

        Registered duration modifiers apply per participant: the payload
        transfer takes the **maximum** of the per-rank modified durations,
        so one rank's degraded link slows the whole collective, and only
        the perturbed participants are tagged ``"faulted"``.

        ``failed_attempts`` plays out the timeout→retry→backoff ladder of
        ``retry_policy`` (default :data:`~repro.sim.collectives.
        DEFAULT_RETRY_POLICY`) before the successful attempt: each failed
        attempt occupies the stream for the policy's watchdog timeout and
        is tagged ``"retry"``, each backoff gap is tagged
        ``("retry", "backoff")``.  Raises ``ValueError`` if the policy's
        retry budget cannot absorb that many failures — the caller is
        expected to model a job abort instead (:mod:`repro.resilience`).

        Returns one event per rank for the **successful** attempt,
        spanning [join, collective end], so a rank's event duration
        includes its wait for stragglers.
        """
        if failed_attempts < 0:
            raise ValueError("failed_attempts must be >= 0")
        if failed_attempts:
            policy = retry_policy or DEFAULT_RETRY_POLICY
            if policy.exhausted_by(failed_attempts):
                raise ValueError(
                    f"collective {name!r}: {failed_attempts} failed attempts "
                    f"exceed the retry budget (max_retries="
                    f"{policy.max_retries}); model an abort instead")
            for attempt in range(failed_attempts):
                self._run_collective_once(
                    ranks, stream, policy.timeout_seconds,
                    f"{name}#try{attempt}", after, kind,
                    tags + ("retry",))
                # Later attempts are gated by stream order alone.
                after = None
                backoff = policy.backoff_seconds(attempt)
                if backoff > 0:
                    for rank in ranks:
                        self.run(
                            rank, stream, backoff, f"{name}#backoff{attempt}",
                            kind=kind, tags=tags + ("retry", "backoff"))
        return self._run_collective_once(
            ranks, stream, duration, name, after, kind, tags)

    def _run_collective_once(
        self,
        ranks: Sequence[int],
        stream: str,
        duration: float,
        name: str,
        after: Optional[Dict[int, Sequence[TraceEvent]]],
        kind: str,
        tags: Tuple[str, ...],
    ) -> Dict[int, TraceEvent]:
        if not ranks:
            raise ValueError("collective needs at least one rank")
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate ranks in collective {name!r}")
        # One batched pass per quantity, instead of the reference's four
        # per-rank dict-building loops.  The common case — no modifiers,
        # no deps — reduces to one stream lookup per rank and a single
        # max() over the join times.
        states = [self._stream(rank, stream) for rank in ranks]
        if self._modifiers:
            modified = [
                self._modified_duration(rank, stream, kind, name, duration)
                for rank in ranks
            ]
            payload = max(out for out, _ in modified)
            any_faulted = any(faulted for _, faulted in modified)
        else:
            if duration < 0:
                # Matches the reference path, where the (empty) modifier
                # chain's output check rejects negative durations.
                raise ValueError(
                    f"duration modifier made task {name!r} negative "
                    f"({duration})")
            payload = duration
            any_faulted = False

        if after:
            empty: Tuple[TraceEvent, ...] = ()
            join_times = []
            for rank, st in zip(ranks, states):
                join = st.free
                for dep in after.get(rank, empty):
                    if dep.end > join:
                        join = dep.end
                join_times.append(join)
        else:
            join_times = [st.free for st in states]

        start = max(join_times)
        end = start + payload
        group = tuple(ranks)
        base_tags = self._tagged(tuple(tags), False) if tags else ()
        faulted_tags = (self._tagged(tuple(tags), True)
                        if any_faulted else base_tags)
        events: Dict[int, TraceEvent] = {}
        for i, rank in enumerate(ranks):
            if any_faulted and modified[i][1]:
                rank_tags = faulted_tags
            else:
                rank_tags = base_tags
            event = TraceEvent(name, kind, rank, stream, join_times[i], end,
                               group, rank_tags)
            st = states[i]
            st.free = end
            self._commit(st, event)
            events[rank] = event
        return events

    def record(self, event: TraceEvent) -> None:
        """Append an externally-timed event, advancing its stream.

        Used to splice timelines together (e.g. merging per-phase traces);
        the event's own start/end are trusted as-is.
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
