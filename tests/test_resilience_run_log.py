"""The run log is kept as rows and built into a timeline on first read.

:func:`repro.resilience.run.simulate_run` appends each timeline entry to
``RunResult.log`` as a flat row; ``RunResult.sim`` replays the rows
through :meth:`repro.sim.engine.Simulator.record` the first time it is
read.  Over the ``tests/test_resilience_paths.py`` grid (every policy
form under every taxonomy preset, elastic and waiting, detect on and
off, and the stress runs) these tests pin that a run builds no run-log
:class:`~repro.sim.engine.TraceEvent` until ``sim`` is read, that the
built timeline equals one recorded entry by entry as the run went, field
for field and in order, that a second read builds nothing, and that
``repro run --trace`` writes the same bytes as when the log was built
during the run.
"""

from __future__ import annotations

import hashlib

import pytest

import repro.resilience.run as run_module
from repro.cli import main
from repro.sim.engine import Simulator, TraceEvent
from tests.harness.diffing import compare_simulators
from tests.test_resilience_paths import CASES, run_case


class _CountingEvent(TraceEvent):
    """TraceEvent that counts its constructions."""

    __slots__ = ()
    built = 0

    def __init__(self, *args, **kwargs) -> None:
        type(self).built += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def counting(monkeypatch):
    monkeypatch.setattr(_CountingEvent, "built", 0)
    monkeypatch.setattr(run_module, "TraceEvent", _CountingEvent)
    return _CountingEvent


def _recorded_as_it_ran(log) -> Simulator:
    """The timeline the run loop used to record entry by entry: each
    entry on rank 0, starting where the previous one ended."""
    sim = Simulator()
    end = 0.0
    for name, kind, stream, entry_end, group, tags in log:
        start, end = end, entry_end
        sim.record(TraceEvent(name, kind, 0, stream, start, end, group, tags))
    return sim


@pytest.mark.parametrize("name", sorted(CASES))
def test_log_is_built_on_first_read(counting, name):
    result = run_case(CASES[name])
    assert counting.built == 0
    sim = result.sim
    events = sim.events
    assert counting.built == len(events) == len(result.log) > 0
    problems = compare_simulators(_recorded_as_it_ran(result.log), sim)
    assert not problems, "\n".join(problems)
    assert all(b.start == a.end for a, b in zip(events, events[1:]))
    assert sim.makespan() == pytest.approx(result.elapsed_seconds, abs=1e-9)
    assert result.sim is sim
    assert counting.built == len(events)


#: sha256 of ``repro run --trace`` files, written while the run log was
#: still built during the run: the CI detect-mitigate smoke, and a
#: 4,096-GPU run that replans through 15 fleet sizes.
TRACE_SHA256 = {
    "detect-smoke": (
        ["--steps", "50", "--mtbf", "100", "--seed", "2", "--taxonomy",
         "gray-heavy", "--mitigation", "detect", "--policy", "tiered:auto"],
        "59cd97bd589de3d9e9304457c85b81f68cb89b3ff4b51b6eee494118430e9e10"),
    "replans-4096": (
        ["--ngpu", "4096", "--gbs", "2048", "--steps", "400", "--mtbf", "20",
         "--seed", "5", "--taxonomy", "production", "--policy",
         "tiered:auto", "--mitigation", "detect"],
        "f2c469c422a4e8996f0fc61a34d1a1fa86281608b47b106dffa66561e0d9486b"),
}


@pytest.mark.parametrize("case", sorted(TRACE_SHA256))
def test_run_trace_file_is_unchanged(tmp_path, capsys, case):
    flags, sha = TRACE_SHA256[case]
    path = tmp_path / "run.json"
    assert main(["run"] + flags + ["--trace", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha
