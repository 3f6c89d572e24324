"""The shared fuzz-campaign runner's contract, pinned on a toy integer
campaign (a case fails when ``x > 3``; its one neighbour is ``x - 1``),
plus the properties every ``repro verify`` campaign inherits from it."""

from dataclasses import dataclass

import pytest

from repro.verify.campaign import MAX_REPRODUCERS, run_campaign, shrink
from repro.verify.engine_fuzz import run_engine_fuzz
from repro.verify.fuzz import run_fault_fuzz, run_fuzz
from repro.verify.resilience_fuzz import run_resilience_fuzz


@dataclass(frozen=True)
class Toy:
    x: int

    def to_dict(self) -> dict:
        return {"x": self.x}


def _sample(rng) -> Toy:
    return Toy(int(rng.integers(0, 20)))


def _check(case: Toy):
    return f"{case.x} > 3" if case.x > 3 else None


def _failing(case: Toy) -> bool:
    return _check(case) is not None


def _step_down(case: Toy):
    return [Toy(case.x - 1)]


def _no_neighbours(case: Toy):
    return []


class TestShrink:
    def test_result_is_minimal(self):
        for x in range(4, 20):
            shrunk = shrink(Toy(x), _step_down, _failing)
            assert _failing(shrunk)
            assert not any(_failing(n) for n in _step_down(shrunk))
            assert shrunk == Toy(4)

    def test_terminates_when_every_neighbour_fails(self):
        calls = []

        def always(case: Toy) -> bool:
            calls.append(case)
            return True

        def down_to_zero(case: Toy):
            return [Toy(case.x - 1)] if case.x > 0 else []

        assert shrink(Toy(500), down_to_zero, always) == Toy(0)
        assert len(calls) == 501

    def test_takes_the_first_failing_neighbour(self):
        def two_ways(case: Toy):
            return [Toy(case.x - 2), Toy(case.x - 1)]

        # From 9: 7, 5, then 3 passes so 4 is taken.
        assert shrink(Toy(9), two_ways, _failing) == Toy(4)

    def test_rejects_a_start_case_that_does_not_fail(self):
        with pytest.raises(ValueError, match="does not fail"):
            shrink(Toy(2), _step_down, _failing)


class TestRunCampaign:
    def test_dedups_equal_reproducers(self):
        result = run_campaign(50, 0, _sample, _check, _step_down)
        assert result.failed_cases > 1
        assert [f.shrunk for f in result.failures] == [Toy(4)]
        failure = result.failures[0]
        assert failure.finding == _check(failure.case)
        assert failure.shrunk_finding == "4 > 3"

    def test_caps_reproducers_but_counts_every_failure(self):
        def always_failing(rng) -> Toy:
            return Toy(int(rng.integers(4, 10**6)))

        result = run_campaign(40, 0, always_failing, _check, _no_neighbours)
        assert MAX_REPRODUCERS == 10
        assert len(result.failures) == MAX_REPRODUCERS
        assert len({f.shrunk for f in result.failures}) == MAX_REPRODUCERS
        assert result.failed_cases == 40
        assert not result.ok

    def test_same_seed_same_result(self):
        a = run_campaign(30, 4, _sample, _check, _no_neighbours)
        b = run_campaign(30, 4, _sample, _check, _no_neighbours)
        assert a == b
        assert a != run_campaign(30, 5, _sample, _check, _no_neighbours)

    def test_rejects_non_positive_cases(self):
        for cases in (0, -1):
            with pytest.raises(ValueError, match="cases must be >= 1"):
                run_campaign(cases, 0, _sample, _check, _step_down)

    def test_failure_entries_use_the_campaign_nouns(self):
        result = run_campaign(20, 0, _sample, _check, _step_down,
                              nouns=("toy", "reason"), finding_json=str)
        d = result.to_dict()
        assert set(d) == {"seed", "cases", "failed_cases", "ok",
                          "failures"}
        assert d["failures"][0]["shrunk_toy"] == {"x": 4}
        assert d["failures"][0]["shrunk_reason"] == "4 > 3"
        assert set(d["failures"][0]) == {"toy", "reason", "shrunk_toy",
                                         "shrunk_reason"}


@pytest.mark.parametrize("run", [run_fuzz, run_fault_fuzz, run_engine_fuzz,
                                 run_resilience_fuzz],
                         ids=lambda run: run.__name__)
def test_every_campaign_uses_the_runner(run):
    with pytest.raises(ValueError, match="cases must be >= 1"):
        run(0)
    a, b = run(2, seed=3), run(2, seed=3)
    assert a.to_dict() == b.to_dict()
    assert a.cases == 2
