"""Chrome/Perfetto ``trace_event`` export of simulator timelines.

The mapping follows how production GPU profilers lay traces out, so a file
written here reads like a Kineto/nsys capture in ``ui.perfetto.dev``:

* **rank → process** (``pid``), named with its 4D mesh coordinates when a
  :class:`repro.parallel.mesh.DeviceMesh` is supplied;
* **stream → thread** (``tid``), with ``compute`` pinned to tid 0 so it
  sorts first, like the default CUDA stream;
* **event kind → category** (``cat``): ``compute``, ``comm``,
  ``exposed_comm``; zero-duration ``marker`` events (failure and replan
  markers from :mod:`repro.resilience.run`) become instant events
  (``ph: "i"``), which Perfetto renders as vertical ticks;
* **collective group → flow events**: each collective instance gets one
  flow id, drawn from the earliest-joining participant to every other
  member, which renders as the Figure 8 "who waited for whom" arrows.

Timestamps are microseconds (the format's unit); the simulator's seconds
are scaled by 1e6.  ``validate_trace`` is a minimal, dependency-free
schema checker for the subset of the format we emit, used by tests and
available to callers who post-process traces.
"""

from __future__ import annotations

import json
from typing import IO, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.parallel.mesh import DeviceMesh
from repro.sim.engine import Simulator, TraceEvent

#: Microseconds per simulator second.
_US = 1e6

#: Metadata event names we emit (a subset of the format's "M" phase).
_METADATA_NAMES = ("process_name", "process_sort_index", "thread_name",
                   "thread_sort_index")


def _stream_tids(events: Sequence[TraceEvent]) -> Dict[Tuple[int, str], int]:
    """Stable (rank, stream) -> tid mapping; ``compute`` is always tid 0."""
    tids: Dict[Tuple[int, str], int] = {}
    per_rank_streams: Dict[int, List[str]] = {}
    for e in events:
        streams = per_rank_streams.setdefault(e.rank, [])
        if e.stream not in streams:
            streams.append(e.stream)
    for rank, streams in per_rank_streams.items():
        ordered = sorted(streams, key=lambda s: (s != "compute", s))
        for tid, stream in enumerate(ordered):
            tids[(rank, stream)] = tid
    return tids


def _process_name(rank: int, mesh: Optional["DeviceMesh"]) -> str:
    if mesh is None:
        return f"rank {rank}"
    c = mesh.coord_of(rank)
    return f"rank {rank} (dp{c.dp} pp{c.pp} cp{c.cp} tp{c.tp})"


def _metadata_events(
    events: Sequence[TraceEvent],
    tids: Dict[Tuple[int, str], int],
    mesh: Optional["DeviceMesh"],
) -> List[dict]:
    out: List[dict] = []
    for rank in sorted({e.rank for e in events}):
        out.append({
            "name": "process_name", "ph": "M", "pid": rank, "tid": 0,
            "args": {"name": _process_name(rank, mesh)},
        })
        out.append({
            "name": "process_sort_index", "ph": "M", "pid": rank, "tid": 0,
            "args": {"sort_index": rank},
        })
    for (rank, stream), tid in sorted(tids.items(), key=lambda kv: kv[1]):
        out.append({
            "name": "thread_name", "ph": "M", "pid": rank, "tid": tid,
            "args": {"name": stream},
        })
        out.append({
            "name": "thread_sort_index", "ph": "M", "pid": rank, "tid": tid,
            "args": {"sort_index": tid},
        })
    return out


def _flow_events(
    events: Sequence[TraceEvent],
    tids: Dict[Tuple[int, str], int],
) -> List[dict]:
    """One flow per collective instance, from earliest joiner to the rest.

    Events of one instance share (name, end, group) — the invariant the
    trace-analysis blame pass relies on too.
    """
    instances: Dict[Tuple[str, float, Tuple[int, ...]], List[TraceEvent]] = {}
    for e in events:
        if e.group:
            instances.setdefault((e.name, e.end, e.group), []).append(e)
    out: List[dict] = []
    for flow_id, (key, members) in enumerate(sorted(
            instances.items(), key=lambda kv: (kv[0][1], kv[0][0]))):
        if len(members) < 2:
            continue
        members = sorted(members, key=lambda m: (m.start, m.rank))
        head, rest = members[0], members[1:]
        common = {"cat": "collective", "name": key[0], "id": flow_id}
        out.append({
            **common, "ph": "s", "pid": head.rank,
            "tid": tids[(head.rank, head.stream)], "ts": head.start * _US,
        })
        for m in rest:
            out.append({
                **common, "ph": "f", "bp": "e", "pid": m.rank,
                "tid": tids[(m.rank, m.stream)], "ts": m.start * _US,
            })
    return out


def trace_event_dicts(
    sim: Simulator,
    mesh: Optional["DeviceMesh"] = None,
) -> List[dict]:
    """Full ``traceEvents`` list: metadata, duration, and flow events."""
    events = sim.events
    tids = _stream_tids(events)
    rows = _metadata_events(events, tids, mesh)
    for e in events:
        row = {
            "name": e.name,
            "cat": e.kind,
            "ph": "X",
            "ts": e.start * _US,
            "dur": e.duration * _US,
            "pid": e.rank,
            "tid": tids[(e.rank, e.stream)],
            "args": {"stream": e.stream},
        }
        if e.kind == "marker":
            # Markers are points in time, not spans: instant events,
            # scoped to their thread so they draw on the right track.
            del row["dur"]
            row["ph"] = "i"
            row["s"] = "t"
        if e.group:
            row["args"]["group"] = list(e.group)
        if e.tags:
            # Fault injection tags perturbed events "faulted"; surfacing
            # the tags in args makes them searchable in the Perfetto UI.
            row["args"]["tags"] = list(e.tags)
        rows.append(row)
    rows.extend(_flow_events(events, tids))
    return rows


def critical_path_annotations(
    events: Sequence[TraceEvent],
    entries: Sequence,
    rank_map: Optional[Dict[int, int]] = None,
) -> List[dict]:
    """Flow + instant rows marking a critical path in the Perfetto UI.

    Args:
        events: The exported timeline's events (post-remap if the trace
            is remapped) — used to recover (rank, stream) -> tid.
        entries: Chronological path entries from
            :func:`repro.analysis.critical_path.extract_critical_path`
            (duck-typed: ``rank``/``stream``/``start``/``end``).
        rank_map: Applied to entry ranks when the entries are still in
            executor rank space but ``events`` are remapped.

    Returns rows to pass as ``extra_events`` to
    :func:`export_chrome_trace`: one flow chain (``cat``
    ``"critical_path"``, string id ``"critical-path"`` so it can never
    collide with the integer collective flow ids) threading every path
    op, plus an instant event at the makespan-defining op's end.
    """
    tids = _stream_tids(events)
    rank_map = rank_map or {}
    rows: List[dict] = []
    n = len(entries)
    common = {"cat": "critical_path", "name": "critical-path",
              "id": "critical-path"}
    for i, entry in enumerate(entries):
        rank = rank_map.get(entry.rank, entry.rank)
        tid = tids.get((rank, entry.stream), 0)
        if n < 2:
            break
        if i == 0:
            row = {**common, "ph": "s", "pid": rank, "tid": tid,
                   "ts": entry.start * _US}
        elif i == n - 1:
            row = {**common, "ph": "f", "bp": "e", "pid": rank, "tid": tid,
                   "ts": entry.start * _US}
        else:
            row = {**common, "ph": "t", "pid": rank, "tid": tid,
                   "ts": entry.start * _US}
        rows.append(row)
    if entries:
        last = entries[-1]
        rank = rank_map.get(last.rank, last.rank)
        rows.append({
            "name": "critical-path:makespan", "cat": "critical_path",
            "ph": "i", "s": "t", "pid": rank,
            "tid": tids.get((rank, last.stream), 0), "ts": last.end * _US,
        })
    return rows


def export_chrome_trace(
    sim: Simulator,
    path_or_file: Union[str, IO[str]],
    mesh: Optional["DeviceMesh"] = None,
    extra_metadata: Optional[dict] = None,
    extra_events: Optional[List[dict]] = None,
) -> dict:
    """Write a timeline as a ``trace_event`` JSON object file.

    Args:
        sim: Recorded timeline.
        path_or_file: Destination path or open text file.
        mesh: Names each pid with its 4D coordinates when given.
        extra_metadata: Merged into the file's ``otherData`` section
            (e.g. the parallel config the trace came from).
        extra_events: Extra rows appended to ``traceEvents`` (e.g.
            :func:`critical_path_annotations`).

    Returns the written object (JSON-serializable dict).
    """
    obj = {
        "traceEvents": trace_event_dicts(sim, mesh) + list(extra_events or ()),
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs.trace",
            "time_unit": "us",
            **(extra_metadata or {}),
        },
    }
    if hasattr(path_or_file, "write"):
        json.dump(obj, path_or_file)  # type: ignore[arg-type]
    else:
        with open(path_or_file, "w", encoding="utf-8") as f:  # type: ignore[arg-type]
            json.dump(obj, f)
    return obj


def remap_ranks(sim: Simulator, rank_map: Dict[int, int]) -> Simulator:
    """Rewrite event ranks (and collective groups) through ``rank_map``.

    The pipeline executor simulates PP ranks 0..pp-1; remapping through
    :func:`repro.obs.metrics.pp_rank_map` before export names each trace
    process with its true 4D mesh coordinates.  The engine shares group
    tuples between events, so each distinct group is remapped once.
    """
    out = Simulator()
    record = out.record
    rank_of = rank_map.get
    groups: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    for e in sim.events:
        group = groups.get(e.group)
        if group is None:
            group = groups[e.group] = tuple(rank_of(r, r) for r in e.group)
        record(TraceEvent(e.name, e.kind, rank_of(e.rank, e.rank), e.stream,
                          e.start, e.end, group, e.tags))
    return out


def merge_timelines(
    phases: Iterable[Tuple[str, Simulator]],
) -> Simulator:
    """Concatenate timelines end to end into one trace.

    Each phase's events are shifted past the previous phase's makespan and
    renamed ``<label>/<name>`` — how the multi-phase pre-training
    progression (``repro phases --trace``) lands in one Perfetto file.
    """
    merged = Simulator()
    record = merged.record
    offset = 0.0
    for label, sim in phases:
        prefix = f"{label}/" if label else ""
        for e in sim.events:
            record(TraceEvent(prefix + e.name, e.kind, e.rank, e.stream,
                              e.start + offset, e.end + offset, e.group,
                              e.tags))
        offset += sim.makespan()
    return merged


# ----------------------------------------------------------------------
# Minimal schema validation (no external dependency)
# ----------------------------------------------------------------------

def validate_trace(obj: object) -> List[str]:
    """Check an object against the ``trace_event`` JSON format subset we
    emit.  Returns a list of problems; an empty list means valid.

    Accepts both the JSON-object form (``{"traceEvents": [...]}``) and the
    bare JSON-array form the format also allows.
    """
    problems: List[str] = []
    if isinstance(obj, dict):
        events = obj.get("traceEvents")
        if not isinstance(events, list):
            return ["top-level object has no 'traceEvents' list"]
    elif isinstance(obj, list):
        events = obj
    else:
        return [f"trace must be a dict or list, got {type(obj).__name__}"]

    flows: Dict[Tuple[object, object], List[str]] = {}
    for i, e in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(e, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = e.get("ph")
        if not isinstance(ph, str) or not ph:
            problems.append(f"{where}: missing 'ph'")
            continue
        if not isinstance(e.get("name"), str):
            problems.append(f"{where}: missing 'name'")
        for key in ("pid", "tid"):
            if not isinstance(e.get(key), (int, str)):
                problems.append(f"{where}: missing '{key}'")
        if ph == "M":
            if e.get("name") not in _METADATA_NAMES:
                problems.append(
                    f"{where}: unknown metadata event {e.get('name')!r}")
            if not isinstance(e.get("args"), dict):
                problems.append(f"{where}: metadata event without 'args'")
            continue
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: 'ts' must be a non-negative number")
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"{where}: 'X' event needs non-negative 'dur'")
        elif ph == "i":
            if e.get("s") not in (None, "t", "p", "g"):
                problems.append(
                    f"{where}: instant event scope must be 't'|'p'|'g'")
            if "dur" in e:
                problems.append(
                    f"{where}: instant event must not carry 'dur'")
        elif ph in ("s", "t", "f"):
            if not isinstance(e.get("id"), (int, str)):
                problems.append(f"{where}: flow event needs 'id'")
            else:
                flows.setdefault((e.get("cat"), e["id"]), []).append(ph)
        else:
            problems.append(f"{where}: unsupported phase {ph!r}")
    # Flow chains (collective arrows, critical-path threading) must be
    # well-formed per (cat, id): exactly one start, at least one finish,
    # and no step/finish before the start.
    for (cat, flow_id), phases in flows.items():
        label = f"flow (cat={cat!r}, id={flow_id!r})"
        if phases[0] != "s":
            problems.append(
                f"{label}: first phase is {phases[0]!r}, expected 's'")
        elif phases.count("s") != 1:
            problems.append(
                f"{label}: has {phases.count('s')} 's' events, expected 1")
        elif "f" not in phases:
            problems.append(f"{label}: never finishes (no 'f' event)")
    return problems


def assert_valid_trace(obj: object) -> None:
    """Raise ``ValueError`` listing every problem if the trace is invalid."""
    problems = validate_trace(obj)
    if problems:
        raise ValueError(
            "invalid trace_event JSON:\n" + "\n".join(problems))
