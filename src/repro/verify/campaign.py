"""The one fuzz-campaign runner behind every ``repro verify`` mode.

A campaign is four campaign-specific pieces — a case type, a sampler, a
checker and a neighbour function — plugged into :func:`run_campaign`,
which owns everything the campaigns share: the ``cases >= 1`` check, the
seeded RNG, the greedy :func:`shrink` loop, deduplication by shrunk
reproducer, and the :data:`MAX_REPRODUCERS` cap.

Contract of the pieces:

* ``sample(rng)`` draws one case from a ``np.random.Generator``; the
  same seed visits the same cases in the same order everywhere, so a
  failure's seed plus its shrunk case is a complete reproduction recipe.
* ``check(case)`` returns ``None`` when the case passes, else a
  *finding* (the campaign's description of what went wrong).
* ``neighbours(case)`` lists strictly smaller cases (lower ``cost``) in
  the order the shrinker should try them; that strict decrease is what
  makes :func:`shrink` terminate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

C = TypeVar("C")
F = TypeVar("F")

#: Distinct shrunk reproducers a campaign collects (and shrinks toward)
#: before it only counts further failures: a systematic bug fails
#: hundreds of cases that all shrink to the same handful of minimal ones.
MAX_REPRODUCERS = 10


def shrink(
    case: C,
    neighbours: Callable[[C], Sequence[C]],
    failing: Callable[[C], bool],
) -> C:
    """Greedily minimise a failing case.

    Moves to the first failing neighbour and repeats until no neighbour
    fails; terminates because every neighbour is strictly smaller.
    Raises ``ValueError`` when ``case`` itself does not fail.
    """
    if not failing(case):
        raise ValueError(f"case {case!r} does not fail")
    current = case
    while True:
        for candidate in neighbours(current):
            if failing(candidate):
                current = candidate
                break
        else:
            return current


@dataclass(frozen=True)
class CampaignFailure(Generic[C, F]):
    """One failing case with its minimal shrunk reproducer."""

    case: C
    finding: F
    shrunk: C
    shrunk_finding: F


@dataclass(frozen=True)
class CampaignResult(Generic[C, F]):
    """Outcome of one fuzz campaign.

    ``nouns`` name the case and the finding in each failure's JSON
    entry (``<case>``, ``<finding>``, ``shrunk_<case>``,
    ``shrunk_<finding>``); ``finding_json`` renders a finding for it.
    ``checks_run``, when set, is reported as the union of checks the
    campaign's checker ran.
    """

    seed: int
    cases: int
    failed_cases: int
    failures: Tuple[CampaignFailure[C, F], ...]
    nouns: Tuple[str, str]
    finding_json: Callable[[F], object] = field(compare=False, repr=False)
    checks_run: Optional[Tuple[str, ...]] = None

    @property
    def ok(self) -> bool:
        return self.failed_cases == 0

    def to_dict(self) -> dict:
        case_key, finding_key = self.nouns
        out = {
            "seed": self.seed,
            "cases": self.cases,
            "failed_cases": self.failed_cases,
            "ok": self.ok,
        }
        if self.checks_run is not None:
            out["checks_run"] = list(self.checks_run)
        out["failures"] = [{
            case_key: f.case.to_dict(),
            finding_key: self.finding_json(f.finding),
            f"shrunk_{case_key}": f.shrunk.to_dict(),
            f"shrunk_{finding_key}": self.finding_json(f.shrunk_finding),
        } for f in self.failures]
        return out


def run_campaign(
    cases: int,
    seed: int,
    sample: Callable[[np.random.Generator], C],
    check: Callable[[C], Optional[F]],
    neighbours: Callable[[C], Sequence[C]],
    nouns: Tuple[str, str] = ("case", "finding"),
    finding_json: Callable[[F], object] = list,
) -> CampaignResult[C, F]:
    """Sample ``cases`` cases from ``seed``, check each, and shrink
    every failure until :data:`MAX_REPRODUCERS` distinct reproducers
    are collected; ``failed_cases`` still counts every failure."""
    if cases < 1:
        raise ValueError("cases must be >= 1")
    rng = np.random.default_rng(seed)
    failures: List[CampaignFailure[C, F]] = []
    failed_cases = 0
    for _ in range(cases):
        case = sample(rng)
        finding = check(case)
        if finding is None:
            continue
        failed_cases += 1
        if len(failures) >= MAX_REPRODUCERS:
            continue
        shrunk = shrink(case, neighbours, lambda c: check(c) is not None)
        if any(f.shrunk == shrunk for f in failures):
            continue
        failures.append(CampaignFailure(case, finding, shrunk, check(shrunk)))
    return CampaignResult(seed=seed, cases=cases, failed_cases=failed_cases,
                          failures=tuple(failures), nouns=nouns,
                          finding_json=finding_json)
