"""Seeded stochastic failure process with a correlated-domain taxonomy.

Failures arrive as a Poisson process at the fleet MTBF (exponential
inter-arrival times), on a simulated clock — nothing here reads the wall
clock.  Each arrival is classified by a :class:`FailureTaxonomy` into one
of the production failure shapes Section 6 lives with at 16K GPUs:

* ``node_loss`` — a host drops out permanently (iid fail-stop);
* ``rack_loss`` / ``pod_loss`` — a *correlated* fail-stop: a leaf switch,
  PDU, or spine event takes out every node in the rack (or every rack in
  the pod) at once — the topology comes from
  :class:`repro.hardware.cluster.ClusterSpec`;
* ``gray`` — a gray failure: nothing crashes, but a persistent degraded
  component (a throttled GPU or a flaky link) taxes every surviving step
  until the Section 6.1 detect–mitigate loop notices and acts
  (:mod:`repro.resilience.mitigation`);
* ``silent_corruption`` — state silently corrupts and is detected only at
  the next validation point, forcing a rollback *past* every checkpoint
  written after the corruption;
* ``transient_straggler`` — one GPU throttles for a step (the
  ``straggler-default`` preset shape) and recovers;
* ``collective_retry`` — a transient network fault fails one or more
  collective attempts; the retry ladder of
  :class:`repro.sim.collectives.RetryPolicy` absorbs it unless the
  attempt count exceeds the budget, which escalates to an abort.

Determinism contract: :meth:`FailureProcess.next_failure` consumes a
fixed number of RNG draws per event (exactly four, in a fixed order) and
takes no state-dependent arguments, so every checkpoint policy evaluated
against the same seed sees the *identical* absolute failure sequence —
the property that makes policy comparisons (and the golden reports)
exact rather than noisy.  The classification bands nest: a taxonomy
whose correlated/gray/corruption fractions are all zero reproduces the
legacy iid fail-stop sequence bitwise (``tests/test_resilience_run.py``
pins this through the v1-numbers golden).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigError

#: Fail-stop kinds that destroy hardware (and checkpoint tiers with it),
#: from the smallest failure domain to the largest.
CORRELATED_DOMAINS = ("node_loss", "rack_loss", "pod_loss")


@dataclass(frozen=True)
class FailureTaxonomy:
    """Per-arrival classification probabilities plus gray-fault shapes.

    The bands are laid out on one uniform draw in a fixed order —
    ``node_loss``, ``collective_retry``, ``rack_loss``, ``pod_loss``,
    ``gray``, ``silent_corruption`` — with ``transient_straggler`` taking
    the remainder.  The first two bands match the legacy (PR 5) process
    exactly, so zeroing every new fraction reproduces the legacy draw
    classification bitwise under the same seed.

    Gray faults carry a shape: a fraction ``gray_compute_fraction`` of
    them are persistently throttled GPUs (step tax priced from a
    ``scale=gray_compute_scale`` :class:`repro.faults.models.
    ComputeStraggler`), the rest are degraded gradient-sync links
    (priced from a ``scale=gray_link_scale`` :class:`repro.faults.models.
    DegradedLink` on the dp dimension).  The subtype is derived from the
    kind draw's position *within* the gray band, so it costs no extra
    RNG draw (the fixed-draws contract).
    """

    node_loss_fraction: float = 0.4
    retry_fraction: float = 0.3
    rack_loss_fraction: float = 0.0
    pod_loss_fraction: float = 0.0
    gray_fraction: float = 0.0
    corruption_fraction: float = 0.0
    retry_success_p: float = 0.6
    gray_compute_fraction: float = 0.6
    gray_compute_scale: float = 1.3
    gray_link_scale: float = 2.5

    def __post_init__(self) -> None:
        for name in ("node_loss_fraction", "retry_fraction",
                     "rack_loss_fraction", "pod_loss_fraction",
                     "gray_fraction", "corruption_fraction",
                     "gray_compute_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1] (got {value})")
        total = (self.node_loss_fraction + self.retry_fraction
                 + self.rack_loss_fraction + self.pod_loss_fraction
                 + self.gray_fraction + self.corruption_fraction)
        if total > 1.0 + 1e-12:
            raise ConfigError(
                f"classification fractions sum to {total:.3f} > 1 "
                "(the remainder must be left for transient stragglers)")
        if not 0.0 < self.retry_success_p <= 1.0:
            raise ConfigError("retry_success_p must be in (0, 1]")
        if self.gray_compute_scale <= 1.0 or self.gray_link_scale <= 1.0:
            raise ConfigError("gray scales must be > 1 (1.0 = healthy)")

    @property
    def has_gray(self) -> bool:
        """Whether this taxonomy can produce gray failures at all — the
        gate that arms the detect–mitigate loop (a legacy taxonomy keeps
        ``simulate_run`` on the bitwise v1 path)."""
        return self.gray_fraction > 0.0

    def classify(self, u_kind: float) -> tuple:
        """Map one uniform kind draw to ``(kind, gray_subtype)``."""
        edge = self.node_loss_fraction
        if u_kind < edge:
            return "node_loss", ""
        if u_kind < (edge := edge + self.retry_fraction):
            return "collective_retry", ""
        if u_kind < (edge := edge + self.rack_loss_fraction):
            return "rack_loss", ""
        if u_kind < (edge := edge + self.pod_loss_fraction):
            return "pod_loss", ""
        if u_kind < edge + self.gray_fraction:
            # Position inside the gray band is itself uniform — reuse it
            # for the subtype split instead of spending a fifth draw.
            sub = (u_kind - edge) / self.gray_fraction
            return "gray", ("compute" if sub < self.gray_compute_fraction
                            else "link")
        if u_kind < edge + self.gray_fraction + self.corruption_fraction:
            return "silent_corruption", ""
        return "transient_straggler", ""

    def to_dict(self) -> dict:
        return {
            "node_loss_fraction": self.node_loss_fraction,
            "retry_fraction": self.retry_fraction,
            "rack_loss_fraction": self.rack_loss_fraction,
            "pod_loss_fraction": self.pod_loss_fraction,
            "gray_fraction": self.gray_fraction,
            "corruption_fraction": self.corruption_fraction,
            "retry_success_p": self.retry_success_p,
            "gray_compute_fraction": self.gray_compute_fraction,
            "gray_compute_scale": self.gray_compute_scale,
            "gray_link_scale": self.gray_link_scale,
        }


#: Named taxonomies for the CLI (`repro run --taxonomy NAME`) and tests.
TAXONOMY_PRESETS: Dict[str, FailureTaxonomy] = {
    # The PR 5 process: iid fail-stop node losses, retries, stragglers.
    "iid": FailureTaxonomy(),
    # Rack/switch-correlated outages alongside node losses: the shape
    # that makes peer-replica checkpoints insufficient on their own.
    "rack-correlated": FailureTaxonomy(
        node_loss_fraction=0.25, retry_fraction=0.25,
        rack_loss_fraction=0.2),
    # Mostly gray degradation: nothing crashes, goodput silently rots —
    # the detect–mitigate loop's home turf.
    "gray-heavy": FailureTaxonomy(
        node_loss_fraction=0.1, retry_fraction=0.15, gray_fraction=0.5),
    # Everything at once: the fleet behaviour Section 6 describes.
    "production": FailureTaxonomy(
        node_loss_fraction=0.2, retry_fraction=0.2,
        rack_loss_fraction=0.1, pod_loss_fraction=0.02,
        gray_fraction=0.2, corruption_fraction=0.05),
}

#: ``--taxonomy`` spec keys -> (FailureTaxonomy field, parser).
_TAXONOMY_KEYS = {
    "node": "node_loss_fraction",
    "retry": "retry_fraction",
    "rack": "rack_loss_fraction",
    "pod": "pod_loss_fraction",
    "gray": "gray_fraction",
    "corruption": "corruption_fraction",
    "retry-p": "retry_success_p",
    "gray-compute": "gray_compute_fraction",
    "gray-compute-scale": "gray_compute_scale",
    "gray-link-scale": "gray_link_scale",
}


def parse_taxonomy(spec: str) -> FailureTaxonomy:
    """Parse a CLI taxonomy: a preset name or ``key=value[,key=value...]``.

    Presets: ``iid`` (the legacy fail-stop process), ``rack-correlated``,
    ``gray-heavy``, ``production``.  Spec keys: ``node``, ``retry``,
    ``rack``, ``pod``, ``gray``, ``corruption`` (classification
    fractions), ``retry-p``, ``gray-compute``, ``gray-compute-scale``,
    ``gray-link-scale``.  A spec starts from the ``iid`` defaults and
    overrides the named fields.  Raises :class:`~repro.errors.ConfigError`
    with a usage hint on any malformed spec.
    """
    spec = spec.strip()
    if spec in TAXONOMY_PRESETS:
        return TAXONOMY_PRESETS[spec]
    if "=" not in spec:
        raise ConfigError(
            f"unknown taxonomy {spec!r}; choose a preset from "
            f"{sorted(TAXONOMY_PRESETS)} or give key=value pairs "
            f"({sorted(_TAXONOMY_KEYS)})")
    overrides = {}
    for part in filter(None, (p.strip() for p in spec.split(","))):
        key, eq, value = part.partition("=")
        field = _TAXONOMY_KEYS.get(key.strip())
        if not eq or field is None:
            raise ConfigError(
                f"bad taxonomy field {part!r}; expected one of "
                f"{sorted(_TAXONOMY_KEYS)}")
        try:
            overrides[field] = float(value.strip())
        except ValueError:
            raise ConfigError(
                f"cannot parse taxonomy value {part!r} as a number"
            ) from None
    try:
        return replace(FailureTaxonomy(), **overrides)
    except ValueError as err:
        raise ConfigError(f"invalid taxonomy {spec!r}: {err}") from None


@dataclass(frozen=True)
class FailureEvent:
    """One failure arrival, location-free until applied to a fleet.

    ``where_fraction`` is a uniform draw in [0, 1) the consumer scales
    onto whatever is being hit (a node index for ``node_loss``, a rack
    for ``rack_loss``, a rank for ``transient_straggler`` or ``gray``) —
    keeping the event valid across replans that change the fleet size.
    """

    time_seconds: float
    kind: str
    where_fraction: float
    #: ``collective_retry`` only: how many attempts the fault eats.
    failed_attempts: int
    #: ``gray`` only: which degraded component — ``"compute"`` (a
    #: persistently throttled GPU) or ``"link"`` (a degraded link).
    gray_kind: str = ""

    def index(self, n: int) -> int:
        """The slot this failure lands on among ``n`` of whatever it hits
        (nodes, racks, pods or ranks of the current fleet)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return min(int(self.where_fraction * n), n - 1)


class FailureProcess:
    """Poisson failure arrivals with a fixed per-event draw budget.

    Args:
        mtbf_seconds: Fleet-level mean time between failures (of any
            kind).  The paper's operational premise: at 16K GPUs this is
            hours, not days.
        seed: RNG seed; same seed → same absolute failure sequence.
        taxonomy: Per-arrival classification (default: the ``iid``
            preset, the legacy fail-stop process).
    """

    def __init__(
        self,
        mtbf_seconds: float,
        seed: int = 0,
        taxonomy: Optional[FailureTaxonomy] = None,
    ) -> None:
        if mtbf_seconds <= 0:
            raise ValueError("mtbf_seconds must be > 0")
        self.mtbf_seconds = mtbf_seconds
        self.seed = seed
        self.taxonomy = taxonomy if taxonomy is not None else FailureTaxonomy()
        self._rng = np.random.default_rng(seed)
        self._clock = 0.0

    def next_failure(self) -> FailureEvent:
        """Draw the next arrival on the absolute failure clock.

        Exactly four draws per event, in a fixed order (gap, kind,
        location, retry attempts) regardless of the classification
        outcome — the contract that keeps the sequence identical across
        policies and taxonomy-irrelevant config changes.
        """
        gap = float(self._rng.exponential(self.mtbf_seconds))
        u_kind = float(self._rng.random())
        where = float(self._rng.random())
        attempts = int(self._rng.geometric(self.taxonomy.retry_success_p))
        self._clock += gap
        kind, gray_kind = self.taxonomy.classify(u_kind)
        return FailureEvent(
            time_seconds=self._clock,
            kind=kind,
            where_fraction=where,
            failed_attempts=attempts,
            gray_kind=gray_kind,
        )

    def to_dict(self) -> dict:
        return {
            "mtbf_seconds": self.mtbf_seconds,
            "seed": self.seed,
            "taxonomy": self.taxonomy.to_dict(),
        }
