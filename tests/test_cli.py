"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestPlan:
    def test_table2_short_context(self, capsys):
        assert main(["plan", "--model", "405b", "--seq", "8192",
                     "--gbs", "2048", "--ngpu", "16384"]) == 0
        out = capsys.readouterr().out
        assert "tp=8 cp=1 pp=16 dp=128" in out

    def test_table2_long_context(self, capsys):
        assert main(["plan", "--model", "405b", "--seq", "131072",
                     "--gbs", "128", "--ngpu", "16384"]) == 0
        out = capsys.readouterr().out
        assert "tp=8 cp=16 pp=16 dp=8" in out

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["plan", "--model", "bogus"])


class TestStep:
    def test_default_405b_step(self, capsys):
        assert main(["step"]) == 0
        out = capsys.readouterr().out
        assert "TFLOPs/GPU" in out
        assert "peak memory" in out
        assert "fits in HBM:    yes" in out

    OVER_HBM = ["step", "--model", "405b", "--ngpu", "16384", "--gbs",
                "2048", "--seq", "8192", "--tp", "8", "--pp", "1", "--dp",
                "2048", "--schedule", "1f1b-noninterleaved"]

    def test_over_hbm_step_says_so(self, capsys):
        assert main(self.OVER_HBM) == 0
        assert "fits in HBM:    NO (80.0 GiB" in capsys.readouterr().out

    def test_over_hbm_step_json(self, capsys):
        assert main(self.OVER_HBM + ["--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["fits"] is False
        assert rep["hbm_capacity_gb"] == 80.0
        assert rep["max_peak_memory_gb"] > 80.0

    def test_world_size_mismatch_rejected(self):
        with pytest.raises(SystemExit):
            main(["step", "--ngpu", "64", "--tp", "8", "--pp", "2",
                  "--dp", "2"])


class TestPhases:
    def test_lists_all_phases(self, capsys):
        assert main(["phases"]) == 0
        out = capsys.readouterr().out
        assert "short-context ramp-up" in out
        assert "long-context" in out
        assert "cp16" in out


class TestOrdering:
    def test_paper_order_marked(self, capsys):
        assert main(["ordering"]) == 0
        out = capsys.readouterr().out
        first_line = out.splitlines()[0]
        assert "TP-CP-PP-DP" in first_line
        assert "<- paper" in first_line


class TestImbalance:
    def test_reports_statistics(self, capsys):
        assert main(["imbalance", "--dp", "4", "--steps", "1"]) == 0
        out = capsys.readouterr().out
        assert "slowest/fastest" in out
        assert "overlap-CP headroom" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestRun:
    def test_failure_free_run_reports_goodput(self, capsys):
        # An astronomically large MTBF: no failures land in 20 steps.
        assert main(["run", "--steps", "20", "--mtbf", "1e9"]) == 0
        out = capsys.readouterr().out
        assert "steps committed: 20/20 (completed)" in out
        assert "goodput:" in out
        assert "failures:        0" in out

    def test_policy_none_never_checkpoints(self, capsys):
        assert main(["run", "--steps", "5", "--mtbf", "1e9",
                     "--policy", "none"]) == 0
        out = capsys.readouterr().out
        assert "no checkpoints" in out
        assert "never (0 written" in out


class TestConfigErrors:
    """Invalid sizes and jobs no layout fits are usage errors
    (:class:`repro.errors.ConfigError`): one ``repro: error:`` line on
    stderr and exit 2, never a traceback."""

    @pytest.mark.parametrize("argv, fragment", [
        (["step", "--gbs", "0"], "gbs must be >= 1"),
        (["step", "--seq", "0"], "seq must be >= 1"),
        (["step", "--ngpu", "7"], "multiple of 8"),
        (["step", "--ngpu", "0"], "must be positive"),
        (["plan", "--ngpu", "7"], "multiple of 8"),
        (["plan", "--gbs", "0"], "gbs must be >= 1"),
        (["phases", "--ngpu", "7"], "multiple of 8"),
        (["imbalance", "--cp", "0"], "seq and cp must be positive"),
        (["plan", "--ngpu", "8", "--gbs", "8"], "nearest is tp=8 pp=1"),
    ])
    def test_exit_2_with_one_line(self, argv, fragment, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert fragment in err
        assert err.count("\n") == 1


class TestRunValidation:
    """Degenerate `repro run` inputs exit 2 with a clear message, never
    a traceback or a hang."""

    @pytest.mark.parametrize("argv, fragment", [
        (["run", "--steps", "0"], "steps"),
        (["run", "--steps", "-3"], "steps"),
        (["run", "--steps", "5", "--mtbf", "0"], "mtbf"),
        (["run", "--steps", "5", "--mtbf", "-10"], "mtbf"),
        (["run", "--steps", "5", "--policy", "bogus"], "policy"),
        (["run", "--steps", "5", "--policy", "fixed:0"], "fixed"),
        (["run", "--steps", "5", "--policy", "tiered:"], "tiered"),
        (["run", "--steps", "5", "--policy", "tiered:tape=3"], "tier"),
        (["run", "--steps", "5", "--taxonomy", "nope"], "taxonomy"),
        (["run", "--steps", "5", "--taxonomy", "node=2.0"], "node"),
        (["run", "--steps", "5", "--topology", "whatever"], "topology"),
        (["run", "--steps", "5", "--detector", "fn=1.5"],
         "false_negative_rate"),
    ])
    def test_bad_inputs_exit_2(self, argv, fragment, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert fragment in capsys.readouterr().err

    def test_good_run_still_exits_0(self, capsys):
        assert main(["run", "--steps", "3", "--mtbf", "1e9"]) == 0


class TestRunResilienceFlags:
    """The PR-10 flags: --taxonomy/--topology/--mitigation/--detector
    and tiered --policy, wired through to the v2 JSON report."""

    def test_tiered_run_reports_tiers(self, capsys):
        assert main(["run", "--steps", "6", "--mtbf", "1e9",
                     "--policy", "tiered:peer=2,remote=3"]) == 0
        out = capsys.readouterr().out
        assert "tiers:" in out
        assert "peer" in out and "remote" in out

    def test_json_schema_is_v2_with_taxonomy(self, capsys):
        assert main(["run", "--steps", "4", "--mtbf", "1e9",
                     "--taxonomy", "rack-correlated", "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["schema"] == "repro.resilience/v2"
        assert rep["config"]["taxonomy"]["rack_loss_fraction"] > 0
        assert rep["config"]["mitigation"] == "tolerate"
        assert "tier_intervals" in rep
        assert "restores" in rep and "mitigations" in rep

    def test_topology_reshapes_the_cluster(self, capsys):
        assert main(["run", "--steps", "3", "--mtbf", "1e9",
                     "--topology", "2x4", "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["schema"] == "repro.resilience/v2"

    def test_mitigation_detect_with_detector_spec(self, capsys):
        assert main(["run", "--steps", "4", "--mtbf", "1e9",
                     "--taxonomy", "gray-heavy", "--mitigation", "detect",
                     "--detector", "latency=1,fn=0.0", "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["config"]["mitigation"] == "detect"
        assert rep["config"]["detector"]["latency_steps"] == 1


class TestTraceDestinations:
    """`repro trace` destination handling (PR 6): --out, --stdout, and
    the exit-2 usage errors when neither or both are given."""

    def test_no_destination_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["trace", "--cmd", "step", "--model", "8b", "--ngpu", "8",
                  "--gbs", "8", "--tp", "2", "--pp", "2", "--dp", "2"])
        assert err.value.code == 2
        assert "destination" in capsys.readouterr().err

    def test_both_destinations_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["trace", "--cmd", "step", "--model", "8b", "--ngpu", "8",
                  "--gbs", "8", "--tp", "2", "--pp", "2", "--dp", "2",
                  "--out", "x.json", "--stdout"])
        assert err.value.code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_stdout_emits_json_trace(self, capsys):
        assert main(["trace", "--cmd", "step", "--model", "8b",
                     "--ngpu", "8", "--gbs", "8", "--tp", "2", "--pp", "2",
                     "--dp", "2", "--stdout"]) == 0
        captured = capsys.readouterr()
        obj = json.loads(captured.out)
        assert obj["traceEvents"]
        # Human-readable step output is diverted to stderr, keeping
        # stdout a clean JSON document for piping into `analyze`.
        assert "step time" in captured.err


class TestSchedules:
    def test_listing_names_every_registered_kind(self, capsys):
        from repro.pp.registry import schedule_kinds

        assert main(["schedules"]) == 0
        out = capsys.readouterr().out
        for kind in schedule_kinds():
            assert kind in out
        assert "split-backward" in out

    def test_names_mode_is_one_kind_per_line(self, capsys):
        from repro.pp.registry import schedule_kinds

        assert main(["schedules", "--names"]) == 0
        out = capsys.readouterr().out
        assert tuple(out.split()) == schedule_kinds()

    def test_json_listing(self, capsys):
        assert main(["schedules", "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["schema"] == "repro.schedules/v1"
        kinds = {s["kind"]: s for s in rep["schedules"]}
        assert kinds["zero-bubble"]["split_backward"] is True
        assert kinds["gpipe"]["family"] == "afab"


class TestScheduleFlag:
    def test_step_accepts_zoo_kinds(self, capsys):
        assert main(["step", "--model", "8b", "--ngpu", "8", "--gbs", "8",
                     "--tp", "2", "--cp", "1", "--pp", "2", "--dp", "2",
                     "--schedule", "zero-bubble"]) == 0
        assert "bubble ratio" in capsys.readouterr().out

    def test_step_stage_preset(self, capsys):
        assert main(["step", "--model", "8b", "--ngpu", "8", "--gbs", "8",
                     "--tp", "2", "--cp", "1", "--pp", "2", "--dp", "2",
                     "--stage-preset", "vit-encoder"]) == 0
        assert "step time" in capsys.readouterr().out

    def test_step_json_reports_built_schedule(self, capsys):
        assert main(["step", "--model", "8b", "--ngpu", "8", "--gbs", "8",
                     "--tp", "2", "--cp", "1", "--pp", "2", "--dp", "2",
                     "--schedule", "gpipe", "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["schedule"] == "gpipe"

    def test_plan_schedule_all_sweeps_cost_aware(self, capsys):
        assert main(["plan", "--model", "8b", "--ngpu", "64", "--gbs", "64",
                     "--seq", "8192", "--cost-aware",
                     "--schedule", "all"]) == 0
        out = capsys.readouterr().out
        assert "schedule=" in out
        assert "[gpipe]" in out  # every kind shows up in the candidates

    def test_verify_schedule_restricts_the_fuzz(self, capsys):
        assert main(["verify", "--fuzz", "5", "--schedule", "gpipe",
                     "--no-oracles", "--no-step-invariants"]) == 0
        assert "0 failed" in capsys.readouterr().out

    def test_run_schedule_pin(self, capsys):
        assert main(["run", "--steps", "5", "--mtbf", "5000", "--seed", "0",
                     "--schedule", "1f1b-noninterleaved"]) == 0
        assert "goodput" in capsys.readouterr().out
