"""Checkpoint policies, checkpoint pricing, and the failure process."""

import math

import pytest

from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B, LLAMA3_70B
from repro.model.flops import model_params
from repro.model.memory import training_state_bytes
from repro.resilience import (
    FailureProcess,
    FailureTaxonomy,
    FixedInterval,
    NoCheckpoint,
    YoungDaly,
    checkpoint_bytes,
    parse_policy,
    shard_transfer_seconds,
    tier_read_seconds,
    tier_write_seconds,
)

#: Failure taxonomy kinds, in classification-band order.
FAILURE_KINDS = ("node_loss", "collective_retry", "rack_loss", "pod_loss",
                 "gray", "silent_corruption", "transient_straggler")

CLUSTER = grand_teton(32)


def _remote_write(cluster, ngpu):
    """A single-tier policy's checkpoint price: the remote tier's."""
    return tier_write_seconds("remote", LLAMA3_8B, cluster, ngpu)


class TestCheckpointPricing:
    def test_payload_is_weights_plus_optimizer_state(self):
        # BF16 weights (2 B/param) + FP32 master/Adam state (12 B/param).
        assert checkpoint_bytes(LLAMA3_8B) == pytest.approx(
            14 * model_params(LLAMA3_8B))
        assert training_state_bytes(LLAMA3_70B) > training_state_bytes(
            LLAMA3_8B)

    def test_write_shards_across_nodes(self):
        # Twice the nodes write the same payload twice as fast.
        assert _remote_write(CLUSTER, 16) == pytest.approx(
            2 * _remote_write(CLUSTER, 32))

    def test_write_bounded_by_per_node_bandwidth(self):
        nodes = 32 // CLUSTER.gpus_per_node
        expected = (checkpoint_bytes(LLAMA3_8B) / nodes
                    / CLUSTER.checkpoint_bandwidth_per_node())
        assert _remote_write(CLUSTER, 32) == pytest.approx(expected)

    def test_read_symmetric_to_write(self):
        assert tier_read_seconds("remote", LLAMA3_8B, CLUSTER, 32) \
            == _remote_write(CLUSTER, 32)

    def test_invalid_ngpu_rejected(self):
        with pytest.raises(ValueError):
            _remote_write(CLUSTER, 0)


class TestShardTransferDegenerates:
    """Satellite: degenerate pricing inputs get well-defined answers —
    zero bytes transfer in zero seconds, zero bandwidth is a clear
    ValueError, never a ZeroDivisionError."""

    def test_zero_bytes_is_free(self):
        assert shard_transfer_seconds(0.0, 4, 1e9) == 0.0

    def test_zero_bytes_never_touches_the_bandwidth(self):
        # Even a broken (zero) bandwidth is fine when nothing moves.
        assert shard_transfer_seconds(0.0, 4, 0.0) == 0.0

    def test_zero_bandwidth_is_a_clear_error(self):
        with pytest.raises(ValueError) as err:
            shard_transfer_seconds(1e9, 4, 0.0)
        assert "bandwidth" in str(err.value)
        assert not isinstance(err.value, ZeroDivisionError)

    def test_zero_cluster_bandwidth_names_the_quantity(self):
        # ClusterSpec itself refuses zero bandwidth, so exercise the
        # pricing guard with a duck-typed stand-in.
        class BrokenCluster:
            gpus_per_node = 8

            def checkpoint_bandwidth_per_node(self):
                return 0.0

        with pytest.raises(ValueError) as err:
            _remote_write(BrokenCluster(), 32)
        assert "checkpoint bandwidth" in str(err.value)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            shard_transfer_seconds(-1.0, 4, 1e9)
        with pytest.raises(ValueError):
            shard_transfer_seconds(1e9, 0, 1e9)


class TestPolicies:
    def test_no_checkpoint_never_checkpoints(self):
        assert NoCheckpoint().interval_steps(1.0, 10.0, 3600.0) is None

    def test_fixed_interval_is_mtbf_blind(self):
        p = FixedInterval(every_steps=7)
        assert p.interval_steps(1.0, 10.0, 60.0) == 7
        assert p.interval_steps(9.0, 0.1, 1e9) == 7
        with pytest.raises(ValueError):
            FixedInterval(every_steps=0)

    def test_young_daly_matches_the_formula(self):
        step, c, mtbf = 0.9, 3.5, 150.0
        expected = max(1, round(math.sqrt(2 * c * mtbf) / step))
        assert YoungDaly().interval_steps(step, c, mtbf) == expected

    def test_young_daly_floors_at_one_step(self):
        assert YoungDaly().interval_steps(100.0, 0.001, 1.0) == 1

    def test_young_daly_interval_grows_with_mtbf(self):
        yd = YoungDaly()
        assert yd.interval_steps(1.0, 10.0, 3600.0) \
            > yd.interval_steps(1.0, 10.0, 60.0)

    def test_young_daly_validation(self):
        with pytest.raises(ValueError):
            YoungDaly().interval_steps(0.0, 10.0, 60.0)
        with pytest.raises(ValueError):
            YoungDaly().interval_steps(1.0, 10.0, 0.0)

    def test_parse_policy_all_forms(self):
        assert parse_policy("none") == NoCheckpoint()
        assert parse_policy("young-daly") == YoungDaly()
        assert parse_policy("young_daly") == YoungDaly()
        assert parse_policy("fixed:25") == FixedInterval(every_steps=25)

    @pytest.mark.parametrize("bad", ["", "daily", "fixed:", "fixed:x",
                                     "fixed:0", "fixed:-3"])
    def test_parse_policy_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_policy(bad)


class TestFailureProcess:
    def _draw(self, seed, n=10, **kw):
        proc = FailureProcess(mtbf_seconds=100.0, seed=seed,
                              taxonomy=FailureTaxonomy(**kw))
        return [proc.next_failure() for _ in range(n)]

    def test_same_seed_same_sequence(self):
        assert self._draw(7) == self._draw(7)

    def test_different_seed_different_sequence(self):
        assert self._draw(7) != self._draw(8)

    def test_times_strictly_increase_and_kinds_are_known(self):
        events = self._draw(0, n=50)
        times = [e.time_seconds for e in events]
        assert times == sorted(times) and times[0] > 0
        assert {e.kind for e in events} <= set(FAILURE_KINDS)
        assert all(0.0 <= e.where_fraction < 1.0 for e in events)
        assert all(e.failed_attempts >= 1 for e in events)

    def test_kind_fractions_are_respected_at_the_extremes(self):
        only_loss = self._draw(0, node_loss_fraction=1.0, retry_fraction=0.0)
        assert {e.kind for e in only_loss} == {"node_loss"}
        only_retry = self._draw(0, node_loss_fraction=0.0, retry_fraction=1.0)
        assert {e.kind for e in only_retry} == {"collective_retry"}

    def test_mean_gap_tracks_mtbf(self):
        events = [FailureProcess(50.0, seed=3).next_failure()
                  for _ in range(1)]
        proc = FailureProcess(50.0, seed=3)
        events = [proc.next_failure() for _ in range(2000)]
        mean_gap = events[-1].time_seconds / len(events)
        assert mean_gap == pytest.approx(50.0, rel=0.1)

    def test_where_scales_onto_fleet(self):
        proc = FailureProcess(100.0, seed=0)
        ev = proc.next_failure()
        assert 0 <= ev.index(4) < 4
        assert 0 <= ev.index(32) < 32
        with pytest.raises(ValueError):
            ev.index(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FailureProcess(0.0)
        with pytest.raises(ValueError):
            FailureTaxonomy(node_loss_fraction=1.5)
        with pytest.raises(ValueError):
            # Fractions must fit in the unit interval together.
            FailureTaxonomy(node_loss_fraction=0.8, retry_fraction=0.5)
        with pytest.raises(ValueError):
            FailureTaxonomy(retry_success_p=0.0)
