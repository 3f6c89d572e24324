"""Every run-simulator path, pinned by hash.

``tests/golden/resilience_run.json`` pins one iid / Young-Daly report.
This golden pins the rest of the run simulator's surface: every policy
form (no checkpoints, Young-Daly, a fixed interval, and three tiered
compositions) under every taxonomy preset, elastic and
wait-for-replacement, with the detect–mitigate loop off and on — plus
five harsh runs that reach evictions, corruption rollbacks, retry
exhaustion, pod loss and local-tier restores.  Per case it stores the
sha256 of the ``repro.resilience/v2`` report and of the run timeline
(every event's name, kind, rank, stream, exact ``float.hex`` start/end,
group and tags).

The report hash leaves out the three top-level ``config`` keys that
mirror ``config.taxonomy`` (``node_loss_fraction``, ``retry_fraction``,
``retry_success_p``); ``tests/test_resilience_run.py`` pins those
against the taxonomy directly.

Regenerate after an intentional behaviour change with::

    PYTHONPATH=src python tests/test_resilience_paths.py --regen
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.obs.report import render_json, resilience_report
from repro.parallel.config import JobConfig
from repro.resilience import (
    TAXONOMY_PRESETS,
    RunConfig,
    parse_policy,
    parse_taxonomy,
    simulate_run,
)

GOLDEN = Path(__file__).parent / "golden" / "resilience_paths.json"

JOB = JobConfig(seq=8192, gbs=32, ngpu=64)
CLUSTER = grand_teton(64)

POLICIES = ("none", "young-daly", "fixed:7", "tiered:auto",
            "tiered:peer=2,remote=young-daly", "tiered:local=3")

#: Harsh enough to evict, roll back a corruption, exhaust a retry
#: ladder and lose a pod within 300 steps; the last policy restores
#: from the local tier.
STRESS_TAXONOMY = ("node=0.05,retry=0.2,pod=0.02,gray=0.4,corruption=0.2,"
                   "gray-compute-scale=4,gray-link-scale=6,retry-p=0.3")
STRESS_POLICIES = ("young-daly", "tiered:auto", "none", "fixed:7",
                   "tiered:local=3,remote=young-daly")

#: Top-level report keys that mirror ``config.taxonomy``.
TAXONOMY_MIRROR_KEYS = ("node_loss_fraction", "retry_fraction",
                        "retry_success_p")


def _cases() -> dict:
    cases = {}
    for policy in POLICIES:
        for taxonomy in sorted(TAXONOMY_PRESETS):
            for elastic in (True, False):
                for mitigation in ("tolerate", "detect"):
                    name = (f"{policy}|{taxonomy}|"
                            f"{'elastic' if elastic else 'wait'}|"
                            f"{mitigation}")
                    cases[name] = dict(
                        steps=40, mtbf_seconds=120.0, seed=3,
                        policy=policy, taxonomy=taxonomy, elastic=elastic,
                        mitigation=mitigation)
    for policy in STRESS_POLICIES:
        cases[f"stress|{policy}"] = dict(
            steps=300, mtbf_seconds=30.0, seed=5, policy=policy,
            taxonomy=STRESS_TAXONOMY, elastic=True, mitigation="detect")
    return cases


CASES = _cases()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_case(case: dict):
    """Simulate one case of :data:`CASES`."""
    config = RunConfig(
        steps=case["steps"], mtbf_seconds=case["mtbf_seconds"],
        policy=parse_policy(case["policy"]), seed=case["seed"],
        elastic=case["elastic"], replacement_seconds=300.0,
        taxonomy=parse_taxonomy(case["taxonomy"]),
        mitigation=case["mitigation"])
    return simulate_run(LLAMA3_8B, JOB, CLUSTER, config)


def _digests(case: dict) -> dict:
    result = run_case(case)
    report = resilience_report(result)
    for key in TAXONOMY_MIRROR_KEYS:
        del report["config"][key]
    events = [(e.name, e.kind, e.rank, e.stream, e.start.hex(),
               e.end.hex(), e.group, e.tags) for e in result.sim.events]
    return {"report": _sha(render_json(report)),
            "events": _sha(json.dumps(events))}


def _golden_payload() -> str:
    digests = {name: _digests(case) for name, case in CASES.items()}
    return json.dumps(digests, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


class TestResiliencePathsGolden:
    def test_golden_covers_every_case(self, golden):
        assert sorted(golden) == sorted(CASES)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_case_matches_golden(self, golden, name):
        assert _digests(CASES[name]) == golden[name], (
            f"run path {name!r} changed; if intentional, regenerate with "
            "`PYTHONPATH=src python tests/test_resilience_paths.py --regen`")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN.write_text(_golden_payload(), encoding="utf-8")
        print(f"wrote {GOLDEN}")
    else:
        print("usage: python tests/test_resilience_paths.py --regen")
