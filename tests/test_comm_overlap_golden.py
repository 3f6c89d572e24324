"""Exposed-comm accounting and fault detection, pinned per fault kind.

``repro faults`` prices a fault two ways: the Section 7.3.1
exposed-communication delta of one healthy and one faulted step
(:func:`repro.faults.goodput.exposed_comm_by_stream`) and the Section
6.1 top-down slow-rank search on the synthetic Figure 8 workload
(:class:`repro.faults.detect.DetectionScore`).  This golden pins both
for every fault kind the benchmark's ``faults-analyze`` workload draws,
on that workload's 64-GPU dense mesh and on a 16-GPU MoE mesh with
cp > 1 and ep > 1: per case, the ``float.hex`` of every stream's exposed
seconds, healthy and faulted, and the detection score's dict.

Regenerate after an intentional behaviour change with::

    PYTHONPATH=src python tests/test_comm_overlap_golden.py --regen
"""

import json
from pathlib import Path

import pytest

from repro.faults import FaultPlan, run_goodput
from repro.faults.models import (
    CollectiveRetry,
    ComputeStraggler,
    DegradedLink,
    HungRank,
    PeriodicJitter,
)
from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.parallel.config import JobConfig, ParallelConfig, ZeroStage

GOLDEN = Path(__file__).parent / "golden" / "comm_overlap.json"

#: (model, parallel, job, victim rank) per mesh.
MESHES = {
    "dense-tp8-pp2-dp4": (
        LLAMA3_8B, ParallelConfig(tp=8, cp=1, pp=2, dp=4, zero=ZeroStage(2)),
        JobConfig(seq=8192, gbs=16, ngpu=64), 13),
    "moe-tp2-cp2-ep2-pp2": (
        LLAMA3_8B.moe_variant(8), ParallelConfig(tp=2, cp=2, ep=2, pp=2, dp=1),
        JobConfig(seq=8192, gbs=8, ngpu=16), 11),
}
FAULT_KINDS = ("straggler", "link-tp", "link-pp", "link-dp", "jitter",
               "retry", "hang")


def _fault(kind: str, rank: int):
    if kind == "straggler":
        return ComputeStraggler(rank=rank, extra_seconds=0.0, scale=1.25)
    if kind.startswith("link-"):
        return DegradedLink(kind[len("link-"):], rank=rank)
    if kind == "jitter":
        return PeriodicJitter(rank=rank)
    if kind == "retry":
        return CollectiveRetry("dp", rank=rank)
    return HungRank(rank=rank)


CASES = {f"{mesh}|{kind}": (mesh, kind)
         for mesh in MESHES for kind in FAULT_KINDS}


def _hex(by_stream: dict) -> dict:
    return {stream: value.hex() for stream, value in sorted(by_stream.items())}


def _record(name: str) -> dict:
    mesh, kind = CASES[name]
    model, parallel, job, rank = MESHES[mesh]
    report = run_goodput(model, parallel, job, grand_teton(job.ngpu),
                         plan=FaultPlan((_fault(kind, rank),)))
    return {"healthy": _hex(report.healthy_exposed_by_stream),
            "faulted": _hex(report.faulted_exposed_by_stream),
            "detection": report.detection.to_dict()}


def _golden_payload() -> str:
    records = {name: _record(name) for name in CASES}
    return json.dumps(records, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


class TestCommOverlapGolden:
    def test_golden_covers_every_case(self, golden):
        assert sorted(golden) == sorted(CASES)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_case_matches_golden(self, golden, name):
        # A JSON round trip keeps the detection floats exact (repr).
        assert json.loads(json.dumps(_record(name))) == golden[name], (
            f"fault case {name!r} changed; if intentional, regenerate with "
            "`PYTHONPATH=src python tests/test_comm_overlap_golden.py "
            "--regen`")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN.write_text(_golden_payload(), encoding="utf-8")
        print(f"wrote {GOLDEN}")
    else:
        print("usage: python tests/test_comm_overlap_golden.py --regen")
