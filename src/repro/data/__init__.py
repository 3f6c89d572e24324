"""Synthetic training data: document-structured token batches.

Llama 3's document-mask attention makes the computation pattern of every
batch depend on where end-of-sequence tokens fall (Section 4).  This package
generates document-length structures with controllable statistics so the CP
imbalance experiments (Figures 11 and 14) have realistic inputs.
"""

from repro.data.loader import (
    GlobalBatch,
    CpLocalView,
    TokenBatchLoader,
    cp_local_view,
    reassemble_from_cp_views,
)
from repro.data.documents import (
    DocumentBatch,
    sample_document_lengths,
    doc_ids_from_lengths,
    make_batch,
)

__all__ = [
    "GlobalBatch",
    "CpLocalView",
    "TokenBatchLoader",
    "cp_local_view",
    "reassemble_from_cp_views",
    "DocumentBatch",
    "sample_document_lengths",
    "doc_ids_from_lengths",
    "make_batch",
]
