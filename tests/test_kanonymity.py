"""Unit tests for repro.anonymize.kanonymity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.anonymize.base import build_release
from repro.anonymize.kanonymity import (
    anonymity_level,
    class_size_histogram,
    is_k_anonymous,
    quasi_identifier_signature,
    release_class_labels,
)
from repro.anonymize.mdav import MDAVAnonymizer
from repro.dataset.generalization import SUPPRESSED


class TestSignatures:
    def test_identical_generalized_rows_share_signature(self, simple_table):
        classes = np.array([0, 0, 0, 1, 1, 1])
        release = build_release(simple_table, classes, k=3)
        assert quasi_identifier_signature(release, 0) == quasi_identifier_signature(release, 1)
        assert quasi_identifier_signature(release, 0) != quasi_identifier_signature(release, 3)

    def test_signature_handles_suppressed(self, simple_table):
        release = simple_table.release_view().replace_column("age", [SUPPRESSED] * 6)
        signatures = {quasi_identifier_signature(release, i) for i in range(3)}
        assert len(signatures) > 0

    def test_integer_and_float_cells_compare_equal(self, simple_table):
        as_float = simple_table.replace_column("age", [25.0, 31, 37, 44, 52, 58])
        assert quasi_identifier_signature(simple_table, 0) == quasi_identifier_signature(
            as_float, 0
        )


class TestReleaseClasses:
    def test_classes_recovered_from_release(self, simple_table):
        classes = np.array([0, 0, 0, 1, 1, 1])
        release = build_release(simple_table, classes, k=3)
        assert release_class_labels(release).tolist() == [0, 0, 0, 1, 1, 1]

    def test_anonymity_level(self, simple_table):
        raw_release = simple_table.release_view()
        assert anonymity_level(raw_release) == 1  # every row distinct
        classes = np.array([0, 0, 0, 1, 1, 1])
        generalized = build_release(simple_table, classes, k=3)
        assert anonymity_level(generalized) >= 3

    def test_is_k_anonymous(self, simple_table):
        classes = np.array([0, 0, 0, 1, 1, 1])
        release = build_release(simple_table, classes, k=3)
        assert is_k_anonymous(release, 3)
        assert is_k_anonymous(release, 2)
        assert not is_k_anonymous(release, 4)
        assert is_k_anonymous(release, 1)

    def test_class_size_histogram(self, simple_table):
        classes = np.array([0, 0, 0, 1, 1, 1])
        release = build_release(simple_table, classes, k=3)
        assert class_size_histogram(release) == {3: 2}


class TestAgainstAnonymizers:
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_mdav_release_is_k_anonymous(self, faculty_population, k):
        result = MDAVAnonymizer().anonymize(faculty_population.private, k)
        assert is_k_anonymous(result.release, k)
        assert anonymity_level(result.release) >= k
