"""Collective timeout→retry→backoff semantics on the run timeline.

:func:`repro.resilience.simulate_run` logs each retry ladder on rank 0's
``dp`` stream: a failed attempt occupies it for the retry policy's
watchdog timeout (``{name}#try{k}``, tagged ``retry``), each positive
inter-attempt gap is a backoff entry (``{name}#backoff{k}``, tagged
``retry`` + ``backoff``), and the successful attempt is the zero-length,
untagged ``{name}``.  Because the ladder entries are ``comm``-kind with
nothing overlapping them, they surface verbatim in the per-stream
exposed-communication accounting — which is how ``repro run`` reports
charge retry time against goodput.
"""

import functools

import pytest

from repro.faults.goodput import exposed_comm_by_stream
from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.parallel.config import JobConfig
from repro.resilience import FailureTaxonomy, NoCheckpoint, RunConfig, simulate_run
from repro.sim.collectives import (
    DEFAULT_COLLECTIVE_TIMEOUT_SECONDS,
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
)
from repro.sim.engine import Simulator, TraceEvent

#: Small, hand-checkable ladder: timeout 2 s, backoffs 1 s then 2 s.
POLICY = RetryPolicy(max_retries=3, timeout_seconds=2.0,
                     backoff_base_seconds=1.0, backoff_multiplier=2.0)


class TestRetryPolicy:
    def test_default_timeout_is_the_shared_constant(self):
        assert (DEFAULT_RETRY_POLICY.timeout_seconds
                == DEFAULT_COLLECTIVE_TIMEOUT_SECONDS)

    def test_backoff_grows_exponentially(self):
        assert [POLICY.backoff_seconds(k) for k in range(3)] == [1.0, 2.0, 4.0]

    def test_retry_overhead_sums_timeouts_and_backoffs(self):
        # 2 failures: (2 + 1) + (2 + 2)
        assert POLICY.retry_overhead_seconds(2) == pytest.approx(7.0)
        assert POLICY.retry_overhead_seconds(0) == 0.0

    def test_exhaustion_boundary(self):
        assert not POLICY.exhausted_by(3)
        assert POLICY.exhausted_by(4)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_seconds=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_seconds=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)

    def test_to_dict_round_trips(self):
        assert RetryPolicy(**POLICY.to_dict()) == POLICY


#: Every arrival is a collective retry; half of them need more than one
#: attempt, and one in eight exhausts POLICY's budget of three.
RETRY_ONLY = FailureTaxonomy(node_loss_fraction=0.0, retry_fraction=1.0,
                             retry_success_p=0.5)


@functools.lru_cache(maxsize=None)
def _run(backoff_base_seconds: float = 1.0):
    policy = RetryPolicy(max_retries=3, timeout_seconds=2.0,
                         backoff_base_seconds=backoff_base_seconds,
                         backoff_multiplier=2.0)
    return simulate_run(
        LLAMA3_8B, JobConfig(seq=8192, gbs=32, ngpu=32), grand_teton(32),
        RunConfig(steps=120, mtbf_seconds=15.0, seed=5, policy=NoCheckpoint(),
                  taxonomy=RETRY_ONLY, retry_policy=policy))


def _ladders(result):
    """``[(entries, k)]`` per ladder: its log entries and failed attempts."""
    events = result.sim.events
    out = []
    for i, event in enumerate(events):
        if event.stream == "dp" and "#" not in event.name:
            entries = [event]
            j = i - 1
            while j >= 0 and events[j].name.startswith(event.name + "#"):
                entries.insert(0, events[j])
                j -= 1
            out.append((entries, sum("#try" in e.name for e in entries)))
    return out


class TestRetryLadder:
    def test_ladder_timing_names_and_tags(self):
        result = _run()
        policy = result.config.retry_policy
        ladders = _ladders(result)
        # The counters count logged ladders: one inside a step that a
        # later arrival aborts is rework, neither logged nor counted.
        assert 0 < len(ladders) == result.counters["retry_ladders"]
        assert result.counters["retry_attempts"] == sum(
            "#try" in e.name for e in result.sim.events)
        assert {k for _, k in ladders} >= {1, 2}
        for entries, k in ladders:
            name = entries[-1].name
            expected = []
            for i in range(k):
                expected += [f"{name}#try{i}", f"{name}#backoff{i}"]
            assert [e.name for e in entries] == expected + [name]
            for e in entries:
                if "#try" in e.name:
                    assert (e.tags, e.group) == (("retry",), (0,))
                    assert e.duration == policy.timeout_seconds
                elif "#backoff" in e.name:
                    assert (e.tags, e.group) == (("retry", "backoff"), ())
            assert all(e.kind == "comm" and e.rank == 0 for e in entries)
            for a, b in zip(entries, entries[1:]):
                assert b.start == a.end
            span = entries[-1].end - entries[0].start
            assert span == pytest.approx(
                policy.retry_overhead_seconds(k), abs=1e-9)

    def test_zero_backoff_logs_no_backoff_entries(self):
        result = _run(backoff_base_seconds=0.0)
        ladders = _ladders(result)
        assert ladders
        for entries, k in ladders:
            assert not any("#backoff" in e.name for e in entries)
            assert len(entries) == k + 1

    def test_successful_attempt_is_untagged(self):
        for entries, _ in _ladders(_run()):
            last = entries[-1]
            assert last.duration == 0.0
            assert (last.tags, last.group) == ((), (0,))

    def test_after_gates_the_first_attempt(self):
        """A ladder is chained on the run log: its first attempt starts
        where the previous entry ended, and the step follows it."""
        events = _run().sim.events
        firsts = [i for i, e in enumerate(events) if e.name.endswith("#try0")]
        assert firsts
        for i in firsts:
            assert i > 0 and events[i].start == events[i - 1].end
        for a, b in zip(events, events[1:]):
            assert b.start == a.end

    def test_exhausted_budget_aborts_the_step(self):
        result = _run()
        assert result.counters["retry_exhaustions"] > 0
        markers = [e for e in result.sim.events
                   if e.name == "failure:retry_exhausted"]
        assert len(markers) == result.counters["retry_exhaustions"]
        assert all(k <= result.config.retry_policy.max_retries
                   for _, k in _ladders(result))

    def test_retry_ladder_counts_as_exposed_comm(self):
        """The whole ladder is comm time with no compute overlapping it,
        so it lands in the per-stream exposed-comm accounting."""
        result = _run()
        spans = [entries[-1].end - entries[0].start
                 for entries, _ in _ladders(result)]
        exposed = exposed_comm_by_stream(result.sim)
        assert exposed["dp"] == pytest.approx(sum(spans))

    def test_overlapped_ladder_is_not_exposed(self):
        sim = Simulator()
        sim.run(0, "compute", 10.0, "fwd")
        for name, start, end, tags in (
                ("grads#try0", 0.0, 2.0, ("retry",)),
                ("grads#backoff0", 2.0, 3.0, ("retry", "backoff")),
                ("grads", 3.0, 3.0, ())):
            sim.record(TraceEvent(name, "comm", 0, "dp", start, end,
                                  (0,) if "backoff" not in name else (),
                                  tags))
        assert exposed_comm_by_stream(sim).get("dp", 0.0) == pytest.approx(0.0)
