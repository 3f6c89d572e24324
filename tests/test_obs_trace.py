"""Tests for the Perfetto trace exporter and its schema checker."""

import json

import pytest

from repro.debug.workload import join_collective
from repro.obs.trace import (
    critical_path_annotations,
    export_chrome_trace,
    merge_timelines,
    remap_ranks,
    trace_event_dicts,
    validate_trace,
    assert_valid_trace,
)
from repro.parallel.config import ParallelConfig
from repro.parallel.mesh import DeviceMesh
from repro.pp.analysis import ScheduleShape, default_nc
from repro.pp.layout import build_layout
from repro.pp.schedule import build_schedule
from repro.sim.engine import Simulator
from repro.train.cost import StageCost
from repro.train.executor import execute_pipeline


def _pipeline_run(pp=4, nmb=8, v=2, p2p=0.05):
    """Small pipeline with real exposed P2P waits (pp=4, nmb=8)."""
    shape = ScheduleShape(pp=pp, v=v, nc=default_nc(pp, nmb), nmb=nmb)
    schedule = build_schedule(shape, "flexible")
    layout = build_layout(pp * v, pp, v)
    cost = StageCost(compute_seconds=1.0, tp_comm_seconds=0.1,
                     cp_comm_seconds=0.0)
    return execute_pipeline(schedule, layout, lambda s: cost, lambda s: cost,
                            p2p_seconds=p2p)


def _events_by_phase(rows, ph):
    return [r for r in rows if r["ph"] == ph]


class TestPipelineRoundTrip:
    def setup_method(self):
        self.run = _pipeline_run()
        self.rows = trace_event_dicts(self.run.sim)

    def test_every_sim_event_exported(self):
        assert len(_events_by_phase(self.rows, "X")) == len(self.run.sim.events)

    def test_exposed_comm_category_preserved(self):
        exposed = [e for e in self.run.sim.events if e.kind == "exposed_comm"]
        assert exposed, "pipeline run should expose some P2P waits"
        exported = [r for r in _events_by_phase(self.rows, "X")
                    if r["cat"] == "exposed_comm"]
        assert len(exported) == len(exposed)
        assert {r["name"] for r in exported} == {e.name for e in exposed}

    def test_timestamps_monotonic_per_thread(self):
        lanes = {}
        for r in _events_by_phase(self.rows, "X"):
            lanes.setdefault((r["pid"], r["tid"]), []).append(r)
        for rows in lanes.values():
            rows.sort(key=lambda r: r["ts"])
            for prev, nxt in zip(rows, rows[1:]):
                assert nxt["ts"] >= prev["ts"] + prev["dur"] - 1e-6

    def test_compute_is_tid_zero(self):
        names = {
            (r["pid"], r["args"]["name"]): r["tid"]
            for r in _events_by_phase(self.rows, "M")
            if r["name"] == "thread_name"
        }
        for (pid, name), tid in names.items():
            if name == "compute":
                assert tid == 0

    def test_validates_clean(self):
        assert validate_trace({"traceEvents": self.rows}) == []

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        written = export_chrome_trace(self.run.sim, str(path))
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(written))
        assert validate_trace(loaded) == []
        assert loaded["otherData"]["source"] == "repro.obs.trace"


class TestCollectiveFlows:
    def setup_method(self):
        from repro.debug.workload import WorkloadSpec, run_synthetic_workload

        self.mesh = DeviceMesh(ParallelConfig(tp=2, cp=2))
        self.sim = run_synthetic_workload(
            self.mesh, WorkloadSpec(steps=1, layers=2))
        self.rows = trace_event_dicts(self.sim, mesh=self.mesh)

    def test_each_flow_id_has_one_start(self):
        starts = _events_by_phase(self.rows, "s")
        finishes = _events_by_phase(self.rows, "f")
        assert starts, "collective workload should produce flows"
        start_ids = [r["id"] for r in starts]
        assert len(start_ids) == len(set(start_ids))
        assert {r["id"] for r in finishes} == set(start_ids)

    def test_flow_starts_at_earliest_join(self):
        x_by_key = {}
        for r in _events_by_phase(self.rows, "X"):
            if "group" in r["args"]:
                x_by_key.setdefault(r["name"], []).append(r)
        for s in _events_by_phase(self.rows, "s"):
            members = x_by_key[s["name"]]
            assert s["ts"] == pytest.approx(min(m["ts"] for m in members))

    def test_mesh_process_names(self):
        names = [r["args"]["name"] for r in _events_by_phase(self.rows, "M")
                 if r["name"] == "process_name"]
        assert "rank 0 (dp0 pp0 cp0 tp0)" in names
        assert "rank 3 (dp0 pp0 cp1 tp1)" in names

    def test_validates_clean(self):
        assert validate_trace({"traceEvents": self.rows}) == []


class TestTimelineSurgery:
    def test_merge_offsets_and_prefixes(self):
        a, b = Simulator(), Simulator()
        a.run(0, "compute", 2.0, "fwd")
        b.run(0, "compute", 1.0, "fwd")
        merged = merge_timelines([("p0", a), ("p1", b)])
        assert [e.name for e in merged.events] == ["p0/fwd", "p1/fwd"]
        assert merged.events[1].start == 2.0
        assert merged.makespan() == 3.0

    def test_remap_ranks_rewrites_groups(self):
        sim = Simulator()
        join_collective(sim, [0, 1], "compute", 1.0, "ag")
        remapped = remap_ranks(sim, {0: 10, 1: 21})
        assert {e.rank for e in remapped.events} == {10, 21}
        assert remapped.events[0].group == (10, 21)


class TestValidator:
    def test_rejects_non_container(self):
        assert validate_trace(42)

    def test_rejects_missing_ph(self):
        problems = validate_trace([{"name": "x", "pid": 0, "tid": 0}])
        assert any("'ph'" in p for p in problems)

    def test_rejects_negative_duration(self):
        row = {"name": "x", "ph": "X", "pid": 0, "tid": 0,
               "ts": 0.0, "dur": -1.0}
        assert any("dur" in p for p in validate_trace([row]))

    def test_rejects_unknown_metadata(self):
        row = {"name": "mystery_meta", "ph": "M", "pid": 0, "tid": 0,
               "args": {}}
        assert any("metadata" in p for p in validate_trace([row]))

    def test_rejects_flow_without_id(self):
        row = {"name": "x", "ph": "s", "pid": 0, "tid": 0, "ts": 0.0}
        assert any("'id'" in p for p in validate_trace([row]))

    def test_accepts_bare_list_form(self):
        assert validate_trace(
            [{"name": "x", "ph": "X", "pid": 0, "tid": 0,
              "ts": 1.0, "dur": 2.0}]
        ) == []

    def test_assert_valid_trace_raises(self):
        with pytest.raises(ValueError, match="invalid trace_event"):
            assert_valid_trace([{"bogus": True}])


class TestInstantValidation:
    """Malformed instant (marker) events must be rejected (PR 6)."""

    def _instant(self, **overrides):
        row = {"name": "mark", "ph": "i", "pid": 0, "tid": 0,
               "ts": 1.0, "s": "t"}
        row.update(overrides)
        return row

    def test_well_formed_instant_accepted(self):
        assert validate_trace([self._instant()]) == []

    def test_instant_with_dur_rejected(self):
        problems = validate_trace([self._instant(dur=5.0)])
        assert any("must not carry 'dur'" in p for p in problems)

    def test_instant_with_bad_scope_rejected(self):
        problems = validate_trace([self._instant(s="galaxy")])
        assert any("scope" in p for p in problems)


class TestFlowChainValidation:
    """Per-(cat, id) flow chains must be s ... t* ... f (PR 6)."""

    def _flow(self, ph, ts, flow_id=7, cat="collective"):
        return {"name": "x", "ph": ph, "pid": 0, "tid": 0, "ts": ts,
                "id": flow_id, "cat": cat}

    def test_well_formed_chain_accepted(self):
        rows = [self._flow("s", 0.0), self._flow("t", 1.0),
                self._flow("f", 2.0)]
        assert validate_trace(rows) == []

    def test_finish_before_start_rejected(self):
        rows = [self._flow("f", 0.0), self._flow("s", 1.0)]
        problems = validate_trace(rows)
        assert any("expected 's'" in p for p in problems)

    def test_duplicate_start_rejected(self):
        rows = [self._flow("s", 0.0), self._flow("s", 1.0),
                self._flow("f", 2.0)]
        problems = validate_trace(rows)
        assert any("'s' events, expected 1" in p for p in problems)

    def test_missing_finish_rejected(self):
        rows = [self._flow("s", 0.0), self._flow("t", 1.0)]
        problems = validate_trace(rows)
        assert any("never finishes" in p for p in problems)

    def test_same_id_different_cat_are_distinct_chains(self):
        rows = [self._flow("s", 0.0, cat="a"), self._flow("f", 1.0, cat="a"),
                self._flow("s", 0.0, cat="b"), self._flow("f", 1.0, cat="b")]
        assert validate_trace(rows) == []


class TestCriticalPathAnnotations:
    """Flow/instant rows from the analyzer must validate cleanly and
    land on the right tracks."""

    def setup_method(self):
        from repro.analysis.critical_path import extract_critical_path
        from repro.hardware.cluster import grand_teton
        from repro.model.config import LLAMA3_8B
        from repro.parallel.config import JobConfig
        from repro.train.step import simulate_step

        par = ParallelConfig(tp=2, cp=1, pp=2, dp=2)
        job = JobConfig(seq=8192, gbs=8, ngpu=8)
        rep = simulate_step(LLAMA3_8B, par, job, grand_teton(8))
        self.sim = rep.run.sim
        self.cp = extract_critical_path(rep.execution.graph,
                                        rep.execution.events,
                                        makespan=rep.step_seconds)
        self.rows = critical_path_annotations(self.sim.events,
                                              self.cp.entries)

    def test_annotated_trace_validates_clean(self):
        obj = export_chrome_trace(self.sim, __import__("io").StringIO(),
                                  extra_events=self.rows)
        assert validate_trace(obj) == []

    def test_one_start_one_finish_one_instant(self):
        phases = [r["ph"] for r in self.rows]
        assert phases.count("s") == 1
        assert phases.count("f") == 1
        assert phases.count("i") == 1

    def test_string_id_cannot_collide_with_collective_flows(self):
        flow_ids = {r["id"] for r in self.rows if r["ph"] in ("s", "t", "f")}
        assert flow_ids == {"critical-path"}

    def test_instant_marks_makespan(self):
        (instant,) = [r for r in self.rows if r["ph"] == "i"]
        assert instant["name"] == "critical-path:makespan"
        assert instant["ts"] == pytest.approx(
            self.cp.makespan_seconds * 1e6)

    def test_rank_map_rewrites_pids(self):
        rows = critical_path_annotations(self.sim.events, self.cp.entries,
                                         rank_map={r: r + 100 for r in
                                                   range(4)})
        assert all(r["pid"] >= 100 for r in rows)


class TestNonContiguousRemap:
    """merge_timelines + remap_ranks round-trips under rank maps with
    holes (PR 6 satellite)."""

    RANK_MAP = {0: 10, 1: 21, 2: 5}

    def _sim(self):
        sim = Simulator()
        sim.run(0, "compute", 1.0, "fwd0")
        sim.run(1, "compute", 2.0, "fwd1")
        join_collective(sim, [0, 1, 2], "tp", 0.5, "ag")
        return sim

    def test_remap_then_merge_preserves_makespan(self):
        sim = self._sim()
        remapped = remap_ranks(sim, self.RANK_MAP)
        assert remapped.makespan() == sim.makespan()
        assert {e.rank for e in remapped.events} == {10, 21, 5}
        merged = merge_timelines([("a", sim), ("b", remapped)])
        assert merged.makespan() == 2 * sim.makespan()

    def test_groups_rewritten_through_holes(self):
        remapped = remap_ranks(self._sim(), self.RANK_MAP)
        coll = [e for e in remapped.events if e.group]
        assert coll and all(e.group == (10, 21, 5) for e in coll)

    def test_round_trip_inverse_map_restores_ranks(self):
        sim = self._sim()
        inverse = {v: k for k, v in self.RANK_MAP.items()}
        restored = remap_ranks(remap_ranks(sim, self.RANK_MAP), inverse)
        assert [e.rank for e in restored.events] == \
            [e.rank for e in sim.events]
        assert [e.start for e in restored.events] == \
            [e.start for e in sim.events]

    def test_exported_remap_validates_clean(self):
        remapped = remap_ranks(self._sim(), self.RANK_MAP)
        obj = export_chrome_trace(remapped, __import__("io").StringIO())
        assert validate_trace(obj) == []
