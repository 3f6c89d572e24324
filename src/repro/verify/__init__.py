"""Verification subsystem: invariant checkers, differential oracles, and
a seeded property-fuzz harness.

Correctness as a first-class, reusable subsystem (see
``docs/verification.md``):

* :mod:`repro.verify.invariants` — machine-checkable schedule/timeline
  semantics: stream exclusivity, conservation, dependency ordering,
  Section 3.1.1 warm-up depth, and the Section 3.1.3 ZeRO pairing rule.
* :mod:`repro.verify.oracles` — differential oracles: flexible-PP AFAB
  degeneration, CP head/tail sharding vs. unsharded attention, and
  pipeline numerics vs. the order-matched sequential baseline.
* :mod:`repro.verify.campaign` — the one fuzz-campaign runner:
  seeded sampling, greedy shrinking to a minimal reproducer,
  deduplication by shrunk reproducer, a cap of
  :data:`~repro.verify.campaign.MAX_REPRODUCERS`, and the
  :class:`~repro.verify.campaign.CampaignResult` every campaign returns.
  Each campaign below supplies only its case type, sampler, checker and
  neighbour function:

  - :mod:`repro.verify.fuzz` — schedule configs checked against the
    invariant suite (``repro verify``), and fault scenarios checked for
    exact straggler localisation (``repro verify --faults``);
  - :mod:`repro.verify.engine_fuzz` — random submission sequences
    replayed through the fast engine and the frozen reference engine
    (``tests/harness/reference_engine.py``), asserting bitwise-equal
    observables (``repro verify --engine``);
  - :mod:`repro.verify.resilience_fuzz` — random failure taxonomies,
    tiered policies and mitigation strategies checked against
    accounting/progress/determinism/fixed-draw invariants
    (``repro verify --resilience``).

The same machinery backs ``python -m repro verify`` (CI and local) and
the test suite (``tests/test_verify_*.py``).
"""

from repro.verify.campaign import (
    MAX_REPRODUCERS,
    CampaignFailure,
    CampaignResult,
    run_campaign,
    shrink,
)
from repro.verify.engine_fuzz import (
    EngineFuzzCase,
    case_neighbours,
    check_case,
    compare_engines,
    load_reference_simulator,
    run_engine_fuzz,
    sample_case,
)
from repro.verify.fuzz import (
    FuzzConfig,
    check_config,
    config_neighbours,
    run_fuzz,
    sample_config,
)
from repro.verify.invariants import (
    InvariantReport,
    Violation,
    check_conservation,
    check_program_order,
    check_send_before_recv,
    check_stream_overlap,
    check_warmup_depth,
    check_zero_schedule,
    run_invariants,
)
from repro.verify.resilience_fuzz import (
    ResilienceScenario,
    check_resilience_scenario,
    resilience_scenario_neighbours,
    run_resilience_fuzz,
    sample_resilience_scenario,
)
from repro.verify.oracles import (
    OracleResult,
    oracle_afab_degeneration,
    oracle_cp_attention,
    oracle_pp_numerics,
    run_default_oracles,
)

__all__ = [
    "CampaignFailure",
    "CampaignResult",
    "EngineFuzzCase",
    "FuzzConfig",
    "InvariantReport",
    "MAX_REPRODUCERS",
    "OracleResult",
    "ResilienceScenario",
    "Violation",
    "case_neighbours",
    "check_case",
    "check_config",
    "check_conservation",
    "check_program_order",
    "check_resilience_scenario",
    "check_send_before_recv",
    "check_stream_overlap",
    "check_warmup_depth",
    "check_zero_schedule",
    "compare_engines",
    "config_neighbours",
    "load_reference_simulator",
    "oracle_afab_degeneration",
    "oracle_cp_attention",
    "oracle_pp_numerics",
    "resilience_scenario_neighbours",
    "run_campaign",
    "run_default_oracles",
    "run_engine_fuzz",
    "run_fuzz",
    "run_invariants",
    "run_resilience_fuzz",
    "sample_case",
    "sample_config",
    "sample_resilience_scenario",
    "shrink",
]
