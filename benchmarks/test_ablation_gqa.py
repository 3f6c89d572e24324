"""Ablation: why all-gather CP is cheap — GQA shrinks the K/V payload.

Section 4's first efficiency argument: "due to GQA, the number of KV heads
is smaller than the number of heads, resulting in smaller K and V tensors
compared to the Q tensor".  We sweep the GQA ratio at fixed model width
and measure the exposed all-gather share and relative HFU of CP attention:
with MHA-sized K/V the all-gather would cost ``n_heads / n_kv_heads`` times
more.
"""

from repro.cp.perf import AttentionShape, allgather_cp_perf
from repro.hardware.cluster import grand_teton
from repro.hardware.gpu import H100_HBM3

CLUSTER = grand_teton(8, H100_HBM3)
SEQ, CP = 16384, 4
HEADS, HEAD_DIM = 16, 128  # per-TP-rank shard of the 405B attention


def test_gqa_ablation(report, benchmark):
    rows = []
    results = {}
    for kv_heads in (1, 2, 4, 8, 16):
        shape = AttentionShape(heads=HEADS, kv_heads=kv_heads,
                               head_dim=HEAD_DIM)
        r = allgather_cp_perf(CLUSTER, SEQ, CP, shape)
        results[kv_heads] = r
        rows.append((
            f"{HEADS // kv_heads}:1",
            kv_heads,
            f"{r.comm_seconds * 1e6:.0f}",
            f"{r.comm_seconds / r.total_seconds * 100:.1f}%",
            f"{r.relative_hfu * 100:.1f}",
        ))

    report.line("GQA-ratio ablation for all-gather CP attention "
                f"(seq {SEQ}, cp {CP}, {HEADS} query heads per rank)")
    report.table(
        ["GQA ratio", "KV heads", "AG time us", "exposed comm share",
         "rel HFU %"], rows,
    )
    report.line()
    report.line("paper (Section 4): GQA makes K/V gqa-ratio-times smaller"
                " than Q, keeping the exposed all-gather cheap")

    # More KV heads -> linearly more all-gather time, lower relative HFU.
    ag = [results[kv].comm_seconds for kv in (1, 2, 4, 8, 16)]
    assert all(b > a for a, b in zip(ag, ag[1:]))
    # Payload grows 16x; achieved time grows somewhat less because the
    # larger message uses the link more efficiently.
    assert results[16].comm_seconds > 5 * results[1].comm_seconds
    assert results[1].relative_hfu > results[16].relative_hfu
    # At the production 16:1 ratio the exposed comm share stays small.
    share = results[1].comm_seconds / results[1].total_seconds
    assert share < 0.10

    benchmark(
        allgather_cp_perf, CLUSTER, SEQ, CP,
        AttentionShape(heads=HEADS, kv_heads=1, head_dim=HEAD_DIM),
    )
