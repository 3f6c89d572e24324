"""The goldens hold under Python 3.12's compensated ``sum()``.

:mod:`tests.harness.py312_sum` emulates 3.12's ``sum`` on any version.
These tests check the emulator (against the real built-in when the
interpreter is 3.12 or later) and re-run, with ``builtins.sum`` swapped
for it, the golden and differential cases whose floats a compensated
``sum()`` would change.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tests.harness.py312_sum import emulated_py312_sum, py312_sum

ROOT = Path(__file__).resolve().parents[2]

#: Cases that fail when any float sum on their path is compensated.
SUM_SENSITIVE_CASES = (
    "tests/harness/test_differential.py::TestWorkloadEquivalence::"
    "test_bitwise_equivalent[step_tp4_pp4_dp2]",
    "tests/harness/test_differential.py::TestWorkloadEquivalence::"
    "test_bitwise_equivalent[step_faulted]",
    "tests/harness/test_differential.py::TestWorkloadEquivalence::"
    "test_bitwise_equivalent[pipeline_interleaved]",
    "tests/harness/test_differential.py::TestWorkloadEquivalence::"
    "test_bitwise_equivalent[record_splices]",
    "tests/harness/test_differential.py::TestEngineFuzzEquivalence::"
    "test_fuzz_500_sequences",
    "tests/test_verify_engine_fuzz.py::TestCampaign::"
    "test_ci_campaign_is_clean",
    "tests/test_cli_analyze.py::TestGolden::test_matches_golden_bytes",
    "tests/test_comm_overlap_golden.py::TestCommOverlapGolden::"
    "test_case_matches_golden[dense-tp8-pp2-dp4|straggler]",
    "tests/test_parallel_search.py::test_matches_golden[autotune]",
    "tests/test_resilience_paths.py::TestResiliencePathsGolden::"
    "test_case_matches_golden[stress|tiered:auto]",
)


def _random_lists(n: int, seed: int = 0):
    """Float-only and mixed int/float lists, with the odd huge int."""
    rng = random.Random(seed)

    def value(mixed: bool):
        if mixed and rng.random() < 0.4:
            return rng.choice([rng.randint(-10, 10), True,
                               rng.randint(-2 ** 70, 2 ** 70)])
        return rng.choice([rng.uniform(-1.0, 1.0), 0.1, -0.0,
                           rng.random() * 10.0 ** rng.randint(-20, 20)])

    for _ in range(n):
        mixed = rng.random() < 0.5
        xs = [value(mixed) for _ in range(rng.randint(0, 40))]
        yield xs, rng.choice([0, 0.0, -0.0, 1.5])


class TestEmulator:
    def test_floats_are_compensated(self):
        assert py312_sum([0.1] * 10) == 1.0
        assert py312_sum([1e100, 1.0, -1e100]) == 1.0

    def test_ints_are_added_uncompensated(self):
        assert py312_sum([1e100, 1, -1e100]) == 0.0

    def test_types_of_the_int_path(self):
        assert py312_sum([]) == 0 and type(py312_sum([])) is int
        assert py312_sum([1, 2, True]) == 4
        # A big int leaves both fast paths: the rest is summed plainly.
        assert py312_sum([2 ** 70, 1e100, 1.0, -1e100]) == 0.0

    def test_sign_of_zero_and_non_float_starts(self):
        assert math.copysign(1.0, py312_sum([], -0.0)) == -1.0
        assert math.copysign(1.0, py312_sum([-0.0], -0.0)) == -1.0
        assert py312_sum([[1], [2]], []) == [1, 2]

    def test_patch_is_scoped(self):
        outer = sum
        with emulated_py312_sum():
            assert sum is py312_sum
        assert sum is outer

    @pytest.mark.skipif(sys.version_info < (3, 12),
                        reason="needs the real Python 3.12 sum()")
    def test_matches_the_real_sum(self):
        for xs, start in _random_lists(3000):
            want, got = sum(xs, start), py312_sum(xs, start)
            assert type(got) is type(want) and repr(got) == repr(want), (
                xs, start)


def test_goldens_hold_under_py312_sum():
    """Re-run the sum-sensitive cases with the emulator as a plugin."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH"))
        if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "tests.harness.py312_sum", *SUM_SENSITIVE_CASES],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
