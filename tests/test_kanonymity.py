"""Unit tests for repro.anonymize.kanonymity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.anonymize.base import build_release
from repro.anonymize.kanonymity import (
    anonymity_level,
    is_k_anonymous,
    release_class_labels,
    release_signature_codes,
)
from repro.anonymize.mdav import MDAVAnonymizer
from repro.dataset.generalization import SUPPRESSED


class TestSignatures:
    def test_identical_generalized_rows_share_signature(self, simple_table):
        classes = np.array([0, 0, 0, 1, 1, 1])
        release = build_release(simple_table, classes, k=3)
        codes = release_signature_codes(release)
        assert codes[0] == codes[1]
        assert codes[0] != codes[3]

    def test_signature_handles_suppressed(self, simple_table):
        release = simple_table.release_view().replace_column("age", [SUPPRESSED] * 6)
        # Every age is suppressed, so rows match exactly when their cities do.
        codes = release_signature_codes(release)
        assert codes[0] == codes[1] == codes[4]
        assert codes[2] == codes[3] == codes[5]
        assert codes[0] != codes[2]

    def test_integer_and_float_cells_compare_equal(self, simple_table):
        # Rows 0 and 1 share a city; their ages are 25 and 25.0 in one object column.
        mixed = simple_table.replace_column("age", [25, 25.0, 37, 44, 52, SUPPRESSED])
        assert mixed.column_array("age").dtype == object
        codes = release_signature_codes(mixed)
        assert codes[0] == codes[1]


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


class TestAgainstAnonymizers:
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_mdav_release_is_k_anonymous(self, faculty_population, k):
        result = MDAVAnonymizer().anonymize(faculty_population.private, k)
        assert is_k_anonymous(result.release, k)
        assert anonymity_level(result.release) >= k
