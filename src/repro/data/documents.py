"""Document-structured synthetic batches.

A training sequence of length ``seq`` is a concatenation of documents; the
attention mask lets a token attend only within its own document (the "block
causal" / document mask).  Document lengths follow a clipped geometric
distribution with a configurable mean (the paper's CP experiments use an
average document length of 1K tokens, Section 7.2); with probability
``p_full_sequence`` the whole sequence is a single document — the
"no eos_id" worst case that bounds the slowest CP rank (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class DocumentBatch:
    """One sequence's document structure.

    Attributes:
        seq: Total tokens.
        doc_lens: Document lengths; sums to ``seq``.
    """

    seq: int
    doc_lens: tuple

    def __post_init__(self) -> None:
        if sum(self.doc_lens) != self.seq:
            raise ValueError("doc_lens must sum to seq")
        if any(l <= 0 for l in self.doc_lens):
            raise ValueError("doc_lens must be positive")

    @property
    def doc_ids(self) -> np.ndarray:
        return doc_ids_from_lengths(self.doc_lens)

    def attended_per_row(self) -> np.ndarray:
        """Number of attended key positions for each query row under the
        document mask: ``i - doc_start(i) + 1``."""
        ids = self.doc_ids
        starts = np.zeros(self.seq, dtype=np.int64)
        boundary = np.flatnonzero(np.diff(ids)) + 1
        starts[boundary] = boundary
        starts = np.maximum.accumulate(starts)
        return np.arange(self.seq, dtype=np.int64) - starts + 1


def sample_document_lengths(
    seq: int,
    mean_doc_len: float,
    rng: np.random.Generator,
    p_full_sequence: float = 0.0,
    sigma: float = 0.0,
) -> List[int]:
    """Sample document lengths that partition a sequence.

    With ``sigma == 0`` lengths are geometric with the requested mean.
    With ``sigma > 0`` they are lognormal (same mean, log-space standard
    deviation ``sigma``) — a heavy-tailed corpus where occasional very
    long documents span many CP chunks, the regime that drives the
    Section 7.3.2 fleet imbalance.  Either way lengths are clipped below
    at 16 tokens (``min_doc_len``) and the final document absorbs the
    remainder.
    """
    min_doc_len = 16
    if seq <= 0:
        raise ConfigError("seq must be positive")
    if mean_doc_len <= min_doc_len:
        raise ConfigError("mean_doc_len must exceed min_doc_len")
    if not 0.0 <= p_full_sequence <= 1.0:
        raise ConfigError("p_full_sequence must be a probability")
    if sigma < 0.0:
        raise ConfigError("sigma must be non-negative")
    if p_full_sequence and rng.random() < p_full_sequence:
        return [seq]
    lengths: List[int] = []
    remaining = seq
    p = 1.0 / (mean_doc_len - min_doc_len + 1)
    mu = np.log(mean_doc_len) - sigma**2 / 2.0
    while remaining > 0:
        if sigma > 0.0:
            draw = max(int(rng.lognormal(mu, sigma)), min_doc_len)
        else:
            draw = min_doc_len + int(rng.geometric(p)) - 1
        draw = min(draw, remaining)
        if remaining - draw < min_doc_len:
            draw = remaining
        lengths.append(draw)
        remaining -= draw
    return lengths


def doc_ids_from_lengths(doc_lens: Sequence[int]) -> np.ndarray:
    """Per-token document ids (0-based) from document lengths."""
    if not doc_lens:
        raise ValueError("doc_lens must be non-empty")
    return np.repeat(np.arange(len(doc_lens)), np.asarray(doc_lens))



def make_batch(
    seq: int,
    mean_doc_len: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
) -> DocumentBatch:
    """Convenience constructor: a single-document batch when
    ``mean_doc_len`` is None, otherwise sampled documents."""
    if mean_doc_len is None:
        return DocumentBatch(seq=seq, doc_lens=(seq,))
    if rng is None:
        rng = np.random.default_rng(0)
    lens = sample_document_lengths(seq, mean_doc_len, rng)
    return DocumentBatch(seq=seq, doc_lens=tuple(lens))
