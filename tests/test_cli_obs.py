"""CLI observability surface: --json, --trace, the trace subcommand, and
usage-error exit codes (including a real subprocess smoke test)."""

import argparse
import json
import os
import re
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.obs.trace import assert_valid_trace

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL_STEP = ["--model", "8b", "--ngpu", "16", "--gbs", "8",
              "--tp", "2", "--cp", "1", "--pp", "4", "--dp", "2"]


def _json_out(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


#: Small arguments for each subcommand whose ``--json`` help names a
#: ``repro.<what>/vN`` schema.
_SCHEMA_HELP_ARGV = {
    "analyze": ["--model", "8b", "--ngpu", "8", "--gbs", "8",
                "--tp", "2", "--cp", "1", "--pp", "2", "--dp", "2"],
    "run": ["--steps", "3", "--mtbf", "1e9"],
    "schedules": [],
}


def _schemas_named_in_json_help():
    """(subcommand, schema) for every ``--json`` help naming a schema."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    named = []
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            match = re.search(r"repro\.[a-z_]+/v\d+", action.help or "")
            if "--json" in action.option_strings and match:
                named.append((command, match.group(0)))
    return named


class TestJsonFlags:
    def test_plan_json(self, capsys):
        assert main(["plan", "--model", "8b", "--ngpu", "16",
                     "--gbs", "8", "--json"]) == 0
        rep = _json_out(capsys)
        assert rep["schema"] == "repro.plan/v2"
        assert rep["job"]["ngpu"] == 16

    def test_step_json(self, capsys):
        assert main(["step", *SMALL_STEP, "--json"]) == 0
        rep = _json_out(capsys)
        assert rep["schema"] == "repro.step/v2"
        assert rep["step_seconds"] > 0
        assert set(rep["groups"]["busy_seconds"]) == {"tp", "cp", "ep", "pp",
                                                      "dp"}

    def test_phases_json_with_phase_filter(self, capsys):
        assert main(["phases", "--phase", "long-context", "--json"]) == 0
        rep = _json_out(capsys)
        assert rep["schema"] == "repro.phases/v2"
        assert [p["name"] for p in rep["phases"]] == ["long-context"]

    def test_imbalance_json(self, capsys):
        assert main(["imbalance", "--ngpu", "256", "--dp", "2",
                     "--steps", "1", "--json"]) == 0
        rep = _json_out(capsys)
        assert rep["schema"] == "repro.imbalance/v2"

    def test_run_json(self, capsys):
        assert main(["run", "--steps", "30", "--mtbf", "120", "--seed", "11",
                     "--wait-for-replacement", "--json"]) == 0
        rep = _json_out(capsys)
        assert rep["schema"] == "repro.resilience/v2"
        assert rep["config"]["steps"] == 30
        assert rep["config"]["elastic"] is False
        assert "productive" in rep["buckets_seconds"]
        assert 0 < rep["goodput"]["fraction"] <= 1

    @pytest.mark.parametrize("command,schema", _schemas_named_in_json_help())
    def test_json_help_names_the_emitted_schema(self, command, schema,
                                                capsys):
        assert main([command, *_SCHEMA_HELP_ARGV[command], "--json"]) == 0
        assert _json_out(capsys)["schema"] == schema


class TestTraceFlags:
    def test_step_trace_flag(self, tmp_path, capsys):
        path = tmp_path / "step.json"
        assert main(["step", *SMALL_STEP, "--trace", str(path)]) == 0
        trace = json.loads(path.read_text())
        assert_valid_trace(trace)
        rows = trace["traceEvents"]
        assert any(r.get("cat") == "exposed_comm" for r in rows)
        # Ranks are remapped onto the 16-GPU mesh's pp axis (tp=2 stride).
        pids = {r["pid"] for r in rows if r["ph"] == "X"}
        assert pids == {0, 2, 4, 6}
        assert "trace written" in capsys.readouterr().out

    def test_phases_trace_merges_all_phases(self, tmp_path, capsys):
        path = tmp_path / "phases.json"
        assert main(["phases", "--trace", str(path)]) == 0
        trace = json.loads(path.read_text())
        assert_valid_trace(trace)
        names = {r["name"] for r in trace["traceEvents"] if r["ph"] == "X"}
        prefixes = {n.split("/")[0] for n in names}
        assert prefixes == {"short-context ramp-up", "short-context main",
                            "long-context"}

    def test_run_trace_has_markers_retries_and_checkpoints(self, tmp_path,
                                                           capsys):
        path = tmp_path / "run.json"
        assert main(["run", "--steps", "60", "--mtbf", "120", "--seed", "11",
                     "--wait-for-replacement", "--trace", str(path)]) == 0
        trace = json.loads(path.read_text())
        assert_valid_trace(trace)
        rows = trace["traceEvents"]
        # Failure markers export as instant events; retry ladders and
        # checkpoint writes keep their tags searchable in Perfetto.
        assert any(r["ph"] == "i" for r in rows)
        tags = [t for r in rows for t in r.get("args", {}).get("tags", ())]
        assert "retry" in tags and "checkpoint" in tags and "restart" in tags
        assert "trace written" in capsys.readouterr().out

    def test_trace_subcommand_workload(self, tmp_path, capsys):
        path = tmp_path / "wl.json"
        assert main(["trace", "--cmd", "workload", "--tp", "4", "--cp", "2",
                     "--pp", "1", "--dp", "1", "--slow-rank", "6",
                     "--out", str(path)]) == 0
        assert_valid_trace(json.loads(path.read_text()))
        out = capsys.readouterr().out
        assert "slow rank: 6" in out

    def test_trace_subcommand_step(self, tmp_path, capsys):
        path = tmp_path / "step.json"
        assert main(["trace", "--cmd", "step", *SMALL_STEP,
                     "--out", str(path)]) == 0
        assert_valid_trace(json.loads(path.read_text()))


class TestUsageErrors:
    def _rc(self, argv, capsys):
        """Exit code and stderr of a rejected invocation: flag checks
        raise ``SystemExit(2)``; a ``ConfigError`` from the library
        (e.g. a malformed fault spec) makes ``main`` return 2."""
        try:
            rc = main(argv)
        except SystemExit as err:
            rc = err.code
        return rc, capsys.readouterr().err

    def test_unknown_model_exits_2(self, capsys):
        rc, stderr = self._rc(["plan", "--model", "9000b"], capsys)
        assert rc == 2
        assert stderr.startswith("repro: error: unknown model '9000b'")
        assert len(stderr.strip().splitlines()) == 1

    def test_unknown_phase_exits_2(self, capsys):
        rc, stderr = self._rc(["phases", "--phase", "warmup"], capsys)
        assert rc == 2
        assert "unknown phase 'warmup'" in stderr
        assert len(stderr.strip().splitlines()) == 1

    def test_inconsistent_world_exits_2(self, capsys):
        rc, stderr = self._rc(
            ["step", "--ngpu", "16", "--tp", "8", "--pp", "16"], capsys)
        assert rc == 2
        assert "must equal ngpu" in stderr

    def test_workload_slow_rank_out_of_range(self, capsys):
        rc, stderr = self._rc(
            ["trace", "--cmd", "workload", "--tp", "4", "--cp", "2",
             "--pp", "1", "--dp", "1", "--slow-rank", "99",
             "--out", "/tmp/x.json"], capsys)
        assert rc == 2
        assert "--slow-rank" in stderr

    def test_workload_world_too_large(self, capsys):
        rc, stderr = self._rc(
            ["trace", "--cmd", "workload", "--out", "/tmp/x.json"], capsys)
        assert rc == 2
        assert "512" in stderr

    def test_malformed_fault_spec_exits_2(self, capsys):
        rc, stderr = self._rc(
            ["faults", "--fault", "straggler:rank=xx"], capsys)
        assert rc == 2
        assert stderr.startswith("repro: error:")
        assert len(stderr.strip().splitlines()) == 1

    def test_unknown_fault_type_exits_2(self, capsys):
        rc, stderr = self._rc(["faults", "--fault", "gremlin:rank=1"], capsys)
        assert rc == 2
        assert "unknown fault type" in stderr

    def test_unknown_fault_preset_exits_2(self, capsys):
        rc, stderr = self._rc(["faults", "--preset", "nope"], capsys)
        assert rc == 2
        assert "unknown fault preset" in stderr

    def test_bad_run_policy_exits_2(self, capsys):
        rc, stderr = self._rc(["run", "--policy", "daily"], capsys)
        assert rc == 2
        assert "unknown policy" in stderr
        rc, stderr = self._rc(["run", "--policy", "fixed:x"], capsys)
        assert rc == 2
        assert "fixed:<steps>" in stderr

    def test_unwritable_trace_path_exits_2(self, capsys):
        rc = main(["step", *SMALL_STEP,
                   "--trace", "/no/such/dir/t.json"])
        assert rc == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("repro: error:")
        assert "No such file" in stderr


class TestSubprocessSmoke:
    """ISSUE-mandated: invoke the real `python -m repro trace` entrypoint."""

    def _run(self, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env, cwd=REPO, timeout=120,
        )

    def test_trace_cmd_step_writes_valid_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        proc = self._run(["trace", "--cmd", "step", *SMALL_STEP,
                          "--out", str(path)])
        assert proc.returncode == 0, proc.stderr
        trace = json.loads(path.read_text())
        assert_valid_trace(trace)
        assert trace["otherData"]["source"] == "repro.obs.trace"
        assert any(r["ph"] == "X" for r in trace["traceEvents"])

    def test_unknown_model_is_one_line_no_traceback(self):
        proc = self._run(["step", "--model", "bogus"])
        assert proc.returncode == 2
        assert proc.stderr.startswith("repro: error:")
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
