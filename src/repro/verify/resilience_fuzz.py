"""Taxonomy-sampling fuzz for the resilient-run simulator.

The Section 6.2 methodology applied to :mod:`repro.resilience`: sample
random failure taxonomies (correlated-domain fractions, gray shapes,
corruption), checkpoint policies (single-tier and tiered), mitigation
strategies, and seeds; run :func:`repro.resilience.run.simulate_run` on
a small fixed workload; and check the invariants that must hold for
*every* configuration:

* **accounting** — ``sum(buckets) == elapsed`` to float tolerance, all
  buckets non-negative, and goodput non-negative;
* **progress** — ``steps_completed <= steps``, with equality exactly
  when ``completed``;
* **determinism** — the same scenario re-run produces bit-identical
  elapsed/buckets/failure-count (the seeded-simulation contract);
* **fixed draws** — under one seed, a ``none``-policy run sees the
  same absolute failure arrival times as the scenario's own policy (the
  contract that makes cross-policy comparisons exact), compared over
  the shared prefix.

Failures shrink toward a minimal scenario (fewer steps, taxonomy
fractions zeroed, simpler policy) through the shared campaign runner
(:mod:`repro.verify.campaign`), so a seed plus the shrunk scenario is a
complete reproduction recipe for ``repro verify --resilience``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.parallel.config import JobConfig
from repro.resilience.failures import FailureTaxonomy
from repro.resilience.policy import parse_policy
from repro.resilience.run import RunConfig, simulate_run
from repro.verify.campaign import CampaignResult, run_campaign

#: Small fixed workload: 2 nodes of the paper's 8B shape keeps a full
#: multi-step run (and its replans) to a handful of step pricings.
RESILIENCE_FUZZ_MODEL = LLAMA3_8B
RESILIENCE_FUZZ_JOB = JobConfig(seq=8192, gbs=16, ngpu=16)
RESILIENCE_FUZZ_CLUSTER = grand_teton(16)

#: Policy specs the sampler draws from.
POLICY_POOL = ("none", "young-daly", "fixed:3",
               "tiered:auto", "tiered:peer=2,remote=8")


@dataclass(frozen=True)
class ResilienceScenario:
    """One sampled resilient-run configuration."""

    steps: int
    mtbf_seconds: float
    seed: int
    taxonomy: FailureTaxonomy
    policy_spec: str
    mitigation: str
    elastic: bool

    @property
    def cost(self) -> float:
        """Size measure the shrinker minimises."""
        tax = self.taxonomy
        knobs = sum(1 for v in (
            tax.rack_loss_fraction, tax.pod_loss_fraction,
            tax.gray_fraction, tax.corruption_fraction) if v > 0)
        return (self.steps + 10 * knobs
                + (5 if self.policy_spec != "young-daly" else 0)
                + (3 if self.mitigation != "tolerate" else 0))

    def run_config(self) -> RunConfig:
        return RunConfig(
            steps=self.steps,
            mtbf_seconds=self.mtbf_seconds,
            policy=parse_policy(self.policy_spec),
            seed=self.seed,
            elastic=self.elastic,
            taxonomy=self.taxonomy,
            mitigation=self.mitigation,
        )

    def describe(self) -> str:
        tax = self.taxonomy
        return (f"steps={self.steps} mtbf={self.mtbf_seconds:.0f}s "
                f"seed={self.seed} policy={self.policy_spec} "
                f"mitigation={self.mitigation} "
                f"elastic={self.elastic} "
                f"tax=(node={tax.node_loss_fraction:.2f} "
                f"retry={tax.retry_fraction:.2f} "
                f"rack={tax.rack_loss_fraction:.2f} "
                f"pod={tax.pod_loss_fraction:.2f} "
                f"gray={tax.gray_fraction:.2f} "
                f"corr={tax.corruption_fraction:.2f})")

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "mtbf_seconds": self.mtbf_seconds,
            "seed": self.seed,
            "taxonomy": self.taxonomy.to_dict(),
            "policy_spec": self.policy_spec,
            "mitigation": self.mitigation,
            "elastic": self.elastic,
        }


def sample_resilience_scenario(
    rng: np.random.Generator,
) -> ResilienceScenario:
    """Draw one scenario: short run, harsh-ish MTBF, random taxonomy
    (fraction mass split across all six bands, leaving straggler
    remainder), random policy/mitigation/elasticity."""
    raw = rng.random(6)
    mass = 0.2 + 0.7 * float(rng.random())  # total classified fraction
    fractions = raw / raw.sum() * mass
    taxonomy = FailureTaxonomy(
        node_loss_fraction=float(fractions[0]),
        retry_fraction=float(fractions[1]),
        rack_loss_fraction=float(fractions[2]),
        pod_loss_fraction=float(fractions[3]),
        gray_fraction=float(fractions[4]),
        corruption_fraction=float(fractions[5]),
    )
    return ResilienceScenario(
        steps=int(rng.integers(5, 26)),
        mtbf_seconds=50.0 + 350.0 * float(rng.random()),
        seed=int(rng.integers(0, 2**16)),
        taxonomy=taxonomy,
        policy_spec=POLICY_POOL[int(rng.integers(len(POLICY_POOL)))],
        mitigation="detect" if rng.random() < 0.5 else "tolerate",
        elastic=bool(rng.random() < 0.8),
    )


def check_resilience_scenario(
    scenario: ResilienceScenario,
) -> Tuple[bool, List[dict]]:
    """Run one scenario (three times) and collect invariant violations."""
    violations: List[dict] = []

    def violate(check: str, message: str) -> None:
        violations.append({"check": check, "message": message})

    try:
        config = scenario.run_config()
        result = simulate_run(RESILIENCE_FUZZ_MODEL, RESILIENCE_FUZZ_JOB,
                              RESILIENCE_FUZZ_CLUSTER, config)
    except Exception as err:  # any crash is a finding
        violate("crash", f"simulate_run raised {type(err).__name__}: {err}")
        return False, violations

    total = sum(result.buckets.values())
    if not np.isclose(total, result.elapsed_seconds,
                      rtol=1e-9, atol=1e-6):
        violate("accounting",
                f"sum(buckets)={total!r} != elapsed="
                f"{result.elapsed_seconds!r}")
    for name, value in result.buckets.items():
        if value < 0:
            violate("accounting", f"bucket {name} negative: {value!r}")
    if result.goodput_fraction < 0:
        violate("accounting",
                f"negative goodput {result.goodput_fraction!r}")
    if result.steps_completed > config.steps:
        violate("progress",
                f"steps_completed {result.steps_completed} > "
                f"steps {config.steps}")
    if result.completed != (result.steps_completed == config.steps
                            and result.truncated_reason is None):
        violate("progress",
                f"completed={result.completed} inconsistent with "
                f"steps_completed={result.steps_completed}, "
                f"truncated={result.truncated_reason!r}")

    rerun = simulate_run(RESILIENCE_FUZZ_MODEL, RESILIENCE_FUZZ_JOB,
                         RESILIENCE_FUZZ_CLUSTER, scenario.run_config())
    if (rerun.elapsed_seconds != result.elapsed_seconds
            or rerun.buckets != result.buckets
            or len(rerun.failures) != len(result.failures)):
        violate("determinism",
                "identical scenario diverged on re-run: "
                f"elapsed {result.elapsed_seconds!r} vs "
                f"{rerun.elapsed_seconds!r}")

    baseline = simulate_run(
        RESILIENCE_FUZZ_MODEL, RESILIENCE_FUZZ_JOB,
        RESILIENCE_FUZZ_CLUSTER,
        replace(scenario.run_config(), policy=parse_policy("none")))
    shared = min(len(result.failures), len(baseline.failures))
    for i in range(shared):
        if (result.failures[i]["time_seconds"]
                != baseline.failures[i]["time_seconds"]
                or result.failures[i]["kind"]
                != baseline.failures[i]["kind"]):
            violate("fixed_draws",
                    f"failure #{i} diverged across policies under seed "
                    f"{scenario.seed}: "
                    f"{result.failures[i]} vs {baseline.failures[i]}")
            break
    return not violations, violations


def resilience_scenario_neighbours(
    scenario: ResilienceScenario,
) -> List[ResilienceScenario]:
    """Strictly-smaller neighbours: fewer steps, taxonomy bands zeroed,
    simpler policy/mitigation."""
    out: List[ResilienceScenario] = []

    def add(candidate: ResilienceScenario) -> None:
        if candidate.cost < scenario.cost and candidate not in out:
            out.append(candidate)

    if scenario.steps > 5:
        add(replace(scenario, steps=max(5, scenario.steps // 2)))
        add(replace(scenario, steps=scenario.steps - 1))
    tax = scenario.taxonomy
    for field_name in ("rack_loss_fraction", "pod_loss_fraction",
                       "gray_fraction", "corruption_fraction"):
        if getattr(tax, field_name) > 0:
            add(replace(scenario,
                        taxonomy=replace(tax, **{field_name: 0.0})))
    if scenario.policy_spec != "young-daly":
        add(replace(scenario, policy_spec="young-daly"))
    if scenario.mitigation != "tolerate":
        add(replace(scenario, mitigation="tolerate"))
    return sorted(out, key=lambda s: s.cost)


def run_resilience_fuzz(
    cases: int,
    seed: int = 0,
) -> CampaignResult[ResilienceScenario, Tuple[dict, ...]]:
    """Fuzz ``cases`` resilient-run scenarios; shrink every violation."""

    def check(scenario: ResilienceScenario) -> Optional[Tuple[dict, ...]]:
        ok, violations = check_resilience_scenario(scenario)
        return None if ok else tuple(violations)

    return run_campaign(cases, seed, sample_resilience_scenario, check,
                        resilience_scenario_neighbours,
                        nouns=("scenario", "violations"))


__all__ = [
    "POLICY_POOL",
    "ResilienceScenario",
    "check_resilience_scenario",
    "resilience_scenario_neighbours",
    "run_resilience_fuzz",
    "sample_resilience_scenario",
]
