"""Fault-randomizing fuzz mode: determinism, shrinking, CLI wiring.

The campaign property: a dominant compute straggler must be localised to
the exact rank despite benign noise faults.  These tests pin the seeded
determinism contract, prove the shrinker really minimises to the noise
subset that breaks localisation, and exercise the ``repro verify
--faults`` / ``repro faults`` CLI surfaces end to end.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.faults import ComputeStraggler, PeriodicJitter
from repro.obs.report import verify_report
from repro.parallel.mesh import DeviceMesh
from repro.verify.campaign import shrink
from repro.verify.fuzz import (
    FaultScenario,
    check_fault_scenario,
    fault_scenario_neighbours,
    run_fault_fuzz,
    sample_fault_scenario,
)

#: Keep in lockstep with the ci.yml fault-fuzz job invocation.
CI_CASES, CI_SEED = 60, 0


def _json_out(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


class TestCampaign:
    def test_deterministic_per_seed(self):
        a = run_fault_fuzz(8, seed=5)
        b = run_fault_fuzz(8, seed=5)
        assert a.to_dict() == b.to_dict()
        assert run_fault_fuzz(8, seed=6).to_dict() != a.to_dict()

    def test_ci_campaign_is_clean(self):
        result = run_fault_fuzz(CI_CASES, seed=CI_SEED)
        assert result.ok, (
            f"{result.failed_cases} localisation misses; first shrunk "
            f"reproducer: "
            f"{result.failures[0].shrunk.describe() if result.failures else '-'}")
        assert result.cases == CI_CASES

    def test_sampler_draws_valid_scenarios(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            s = sample_fault_scenario(rng)
            mesh = DeviceMesh(s.parallel)
            assert 0 <= s.victim < mesh.world_size
            assert 0.4 <= s.extra_seconds < 0.8
            assert len(s.noise) <= 2
            s.plan.validate(mesh)  # raises on an out-of-mesh fault

    def test_rejects_zero_cases(self):
        with pytest.raises(ValueError):
            run_fault_fuzz(0)


class TestShrinking:
    # A second, stronger straggler in the noise legitimately out-blames
    # the victim -- a genuinely failing scenario to shrink.
    BASE = FaultScenario(tp=4, cp=2, pp=1, dp=1, victim=1,
                         extra_seconds=0.5)
    LOUD = ComputeStraggler(rank=6, extra_seconds=2.0)
    QUIET = PeriodicJitter(rank=0, period=2, extra_seconds=0.01)

    def test_shrinks_to_the_breaking_noise_fault(self):
        import dataclasses

        scenario = dataclasses.replace(self.BASE,
                                       noise=(self.QUIET, self.LOUD))
        ok, score = check_fault_scenario(scenario)
        assert not ok and score.detected_rank == 6

        shrunk = shrink(
            scenario, fault_scenario_neighbours,
            lambda s: not check_fault_scenario(s)[0])
        assert shrunk.noise == (self.LOUD,)
        assert shrunk.cost < scenario.cost

    def test_refuses_to_shrink_a_passing_scenario(self):
        assert check_fault_scenario(self.BASE)[0]
        with pytest.raises(ValueError, match="does not fail"):
            shrink(
                self.BASE, fault_scenario_neighbours,
                lambda s: not check_fault_scenario(s)[0])


class TestReportIntegration:
    def test_verify_report_folds_in_fault_fuzz(self):
        result = run_fault_fuzz(4, seed=0)
        rep = verify_report(None, (), fault_fuzz=result)
        assert rep["ok"] is result.ok
        assert rep["fault_fuzz"]["cases"] == 4
        assert "fuzz" not in rep


class TestCli:
    def test_verify_faults_json(self, capsys):
        rc = main(["verify", "--faults", "--fuzz", "5", "--seed", "0",
                   "--no-oracles", "--no-step-invariants", "--json"])
        rep = _json_out(capsys)
        assert rc == 0 and rep["ok"] is True
        assert rep["schema"] == "repro.verify/v2"
        assert rep["fault_fuzz"]["failed_cases"] == 0
        assert "fuzz" not in rep

    def test_faults_json_with_explicit_spec(self, capsys):
        rc = main(["faults", "--fault", "straggler:rank=6,extra=0.5",
                   "--json"])
        rep = _json_out(capsys)
        assert rc == 0
        assert rep["schema"] == "repro.faults/v2"
        assert rep["faults"] == [{"kind": "compute_straggler", "rank": 6,
                                  "extra_seconds": 0.5, "scale": 1.0}]
        assert rep["detection"]["exact_hit"] is True
        assert rep["goodput"]["fraction"] < 1

    def test_faults_text_output(self, capsys):
        rc = main(["faults"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "goodput fraction" in out and "detection" in out

    def test_faults_rejects_bad_spec(self, capsys):
        assert main(["faults", "--fault", "straggler:bogus=1"]) == 2
        assert capsys.readouterr().err.startswith("repro: error:")

    def test_faults_exports_trace(self, tmp_path, capsys):
        path = tmp_path / "faults.json"
        rc = main(["faults", "--trace", str(path)])
        capsys.readouterr()
        assert rc == 0
        from repro.obs.trace import assert_valid_trace

        obj = json.loads(path.read_text(encoding="utf-8"))
        assert_valid_trace(obj)
        tagged = [e for e in obj["traceEvents"]
                  if e.get("args", {}).get("tags") == ["faulted"]]
        assert tagged, "trace export lost the 'faulted' tags"
