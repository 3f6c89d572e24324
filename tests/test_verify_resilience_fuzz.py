"""The resilience fuzz campaign: sampling determinism, invariant
checking over random taxonomies/policies, and shrinking."""

import dataclasses

import numpy as np
import pytest

from repro.verify.campaign import shrink
from repro.verify.resilience_fuzz import (
    POLICY_POOL,
    ResilienceScenario,
    check_resilience_scenario,
    resilience_scenario_neighbours,
    run_resilience_fuzz,
    sample_resilience_scenario,
)


class TestSampling:
    def test_same_seed_same_scenarios(self):
        a = [sample_resilience_scenario(np.random.default_rng(5))
             for _ in range(1)]
        b = [sample_resilience_scenario(np.random.default_rng(5))
             for _ in range(1)]
        assert a == b

    def test_samples_are_valid_and_varied(self):
        rng = np.random.default_rng(0)
        scenarios = [sample_resilience_scenario(rng) for _ in range(30)]
        assert all(5 <= s.steps <= 25 for s in scenarios)
        assert all(s.policy_spec in POLICY_POOL for s in scenarios)
        assert len({s.policy_spec for s in scenarios}) > 1
        assert len({s.mitigation for s in scenarios}) == 2
        # run_config() must construct without error for every sample.
        for s in scenarios:
            s.run_config()

    def test_describe_is_a_reproduction_recipe(self):
        s = sample_resilience_scenario(np.random.default_rng(1))
        text = s.describe()
        for key in ("steps=", "seed=", "policy=", "tax=("):
            assert key in text


class TestCampaign:
    def test_small_campaign_is_clean(self):
        result = run_resilience_fuzz(8, seed=0)
        assert result.ok
        assert result.cases == 8
        assert result.failed_cases == 0
        assert result.failures == ()

    def test_campaign_is_deterministic(self):
        a = run_resilience_fuzz(4, seed=3)
        b = run_resilience_fuzz(4, seed=3)
        assert a.to_dict() == b.to_dict()

    def test_to_dict_shape(self):
        d = run_resilience_fuzz(2, seed=1).to_dict()
        assert set(d) == {"seed", "cases", "failed_cases", "ok",
                          "failures"}

    def test_cases_must_be_positive(self):
        with pytest.raises(ValueError):
            run_resilience_fuzz(0)


class TestChecker:
    def test_crash_is_reported_not_raised(self):
        scenario = sample_resilience_scenario(np.random.default_rng(2))
        broken = dataclasses.replace(scenario, steps=-1)
        ok, violations = check_resilience_scenario(broken)
        assert not ok
        assert violations[0]["check"] == "crash"
        assert "message" in violations[0]


class TestShrinking:
    def test_shrinks_to_the_minimal_failing_knob(self):
        scenario = ResilienceScenario(
            steps=24, mtbf_seconds=100.0, seed=9,
            taxonomy=dataclasses.replace(
                sample_resilience_scenario(
                    np.random.default_rng(0)).taxonomy),
            policy_spec="tiered:auto", mitigation="detect",
            elastic=True)

        def fails_iff_gray(s):
            return s.taxonomy.gray_fraction > 0

        assert fails_iff_gray(scenario)
        shrunk = shrink(scenario, resilience_scenario_neighbours,
                        fails_iff_gray)
        # Everything irrelevant got simplified away...
        assert shrunk.steps == 5
        assert shrunk.policy_spec == "young-daly"
        assert shrunk.mitigation == "tolerate"
        assert shrunk.taxonomy.rack_loss_fraction == 0.0
        assert shrunk.taxonomy.corruption_fraction == 0.0
        # ...but the failing ingredient survived.
        assert shrunk.taxonomy.gray_fraction > 0
