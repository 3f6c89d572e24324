"""Tests for document-structured synthetic batches."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.documents import (
    DocumentBatch,
    doc_ids_from_lengths,
    make_batch,
    sample_document_lengths,
)


class TestDocumentBatch:
    def test_doc_ids(self):
        b = DocumentBatch(seq=6, doc_lens=(2, 4))
        assert b.doc_ids.tolist() == [0, 0, 1, 1, 1, 1]

    def test_attended_per_row(self):
        b = DocumentBatch(seq=5, doc_lens=(2, 3))
        assert b.attended_per_row().tolist() == [1, 2, 1, 2, 3]

    def test_single_document_is_causal(self):
        b = DocumentBatch(seq=4, doc_lens=(4,))
        assert b.attended_per_row().tolist() == [1, 2, 3, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            DocumentBatch(seq=5, doc_lens=(2, 2))
        with pytest.raises(ValueError):
            DocumentBatch(seq=2, doc_lens=(2, 0))


class TestSampling:
    def test_lengths_partition_sequence(self):
        rng = np.random.default_rng(0)
        lens = sample_document_lengths(8192, 1024.0, rng)
        assert sum(lens) == 8192
        assert all(l > 0 for l in lens)

    def test_mean_roughly_controlled(self):
        rng = np.random.default_rng(1)
        all_lens = []
        for _ in range(50):
            all_lens += sample_document_lengths(8192, 1024.0, rng)
        mean = np.mean(all_lens)
        assert 600 < mean < 1600

    def test_full_sequence_probability(self):
        rng = np.random.default_rng(2)
        full = sum(
            sample_document_lengths(1024, 128.0, rng, p_full_sequence=1.0)
            == [1024]
            for _ in range(10)
        )
        assert full == 10

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_document_lengths(0, 100.0, rng)
        with pytest.raises(ValueError):
            sample_document_lengths(100, 8.0, rng)  # mean <= min_doc_len
        with pytest.raises(ValueError):
            sample_document_lengths(100, 50.0, rng, p_full_sequence=2.0)

    @settings(max_examples=30, deadline=None)
    @given(
        seq=st.integers(min_value=64, max_value=4096),
        mean=st.floats(min_value=20.0, max_value=500.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_partition_property(self, seq, mean, seed):
        lens = sample_document_lengths(seq, mean,
                                       np.random.default_rng(seed))
        assert sum(lens) == seq
        assert min(lens) > 0


class TestHelpers:
    def test_doc_ids_from_lengths(self):
        assert doc_ids_from_lengths([1, 2]).tolist() == [0, 1, 1]
        with pytest.raises(ValueError):
            doc_ids_from_lengths([])

    def test_make_batch_defaults(self):
        b = make_batch(128)
        assert b.doc_lens == (128,)
        b2 = make_batch(128, mean_doc_len=32.0)
        assert sum(b2.doc_lens) == 128
