"""Golden equivalence: the columnar pipeline reproduces the seed bit for bit.

The columnar refactor (typed numpy column storage, mask-based MDAV,
index-array Mondrian, bulk release generalization, ``np.unique`` class
extraction) is required to be a pure performance change: partitions and
release tables must be **identical** to what the seed list-backed
implementation produced.  These tests re-implement the seed's algorithms from
its original code paths (per-row Python loops over ``column``/``cell``) and
compare them with the live pipeline on the seeded faculty and census
datasets — classes element for element, release tables value for value and
rendered byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.anonymize.base import build_release
from repro.anonymize.clustering import GreedyClusterAnonymizer
from repro.anonymize.datafly import DataflyAnonymizer, default_hierarchies
from repro.anonymize.kanonymity import release_class_labels
from repro.anonymize.mdav import MDAVAnonymizer
from repro.anonymize.mondrian import MondrianAnonymizer
from repro.data.census import CensusConfig, generate_census
from repro.dataset.generalization import (
    CategorySet,
    Interval,
    Suppressed,
    SUPPRESSED,
    cover_values,
)
from repro.dataset.statistics import standardize_matrix
from repro.dataset.table import Table

from builders import generalize_value
from mdav_reference import seed_mdav_groups
from partitions import classes_of


@pytest.fixture(scope="module")
def census_table() -> Table:
    return generate_census(CensusConfig(count=80, seed=23)).private


# --------------------------------------------------------------------------
# Seed reference implementations (the original per-row loops).
# --------------------------------------------------------------------------


def seed_mdav_partition(table: Table, k: int) -> list[tuple[int, ...]]:
    standardized, _, _ = standardize_matrix(table.quasi_identifier_matrix())
    return [tuple(sorted(group)) for group in seed_mdav_groups(standardized, k)]


def seed_mondrian_partition(table: Table, k: int) -> list[tuple[int, ...]]:
    matrix = table.quasi_identifier_matrix()
    spans = matrix.max(axis=0) - matrix.min(axis=0)
    spans = np.where(spans <= 0, 1.0, spans)
    classes: list[tuple[int, ...]] = []

    def split(indices: list[int]) -> None:
        if len(indices) < 2 * k:
            classes.append(tuple(sorted(indices)))
            return
        subset = matrix[indices]
        normalized = (subset.max(axis=0) - subset.min(axis=0)) / spans
        for dimension in np.argsort(normalized)[::-1]:
            dimension = int(dimension)
            if normalized[dimension] <= 0:
                break
            values = subset[:, dimension]
            median = float(np.median(values))
            left = [i for i, v in zip(indices, values) if v <= median]
            right = [i for i, v in zip(indices, values) if v > median]
            if len(left) >= k and len(right) >= k:
                split(left)
                split(right)
                return
        classes.append(tuple(sorted(indices)))

    split(list(range(table.num_rows)))
    return classes


def seed_cluster_partition(table: Table, k: int) -> list[tuple[int, ...]]:
    points, _, _ = standardize_matrix(table.quasi_identifier_matrix())
    centroid = points.mean(axis=0)
    remaining = list(range(points.shape[0]))
    clusters: list[list[int]] = []
    while len(remaining) >= 2 * k:
        subset = points[remaining]
        seed_local = int(np.argmax(((subset - centroid) ** 2).sum(axis=1)))
        seed_global = remaining[seed_local]
        distances = ((subset - points[seed_global]) ** 2).sum(axis=1)
        order = np.argsort(distances, kind="stable")
        chosen = [remaining[int(i)] for i in order[:k]]
        clusters.append(chosen)
        remaining = [i for i in remaining if i not in set(chosen)]
    if remaining:
        if len(remaining) >= k or not clusters:
            clusters.append(list(remaining))
        else:
            for index in remaining:
                nearest = min(
                    range(len(clusters)),
                    key=lambda c: float(
                        ((points[clusters[c]] - points[index]) ** 2).sum(axis=1).min()
                    ),
                )
                clusters[nearest].append(index)
    return [tuple(sorted(cluster)) for cluster in clusters]


def seed_build_release(table: Table, classes, k: int, style: str = "interval") -> Table:
    release = table.drop_columns(list(table.schema.sensitive_attributes))
    qi_names = release.schema.quasi_identifiers
    new_columns = {name: release.column(name) for name in release.schema.names}
    for indices in classes:
        for name in qi_names:
            attribute = release.schema[name]
            values = [table.cell(i, name) for i in indices]
            if attribute.is_numeric and style == "centroid":
                generalized: object = float(np.mean(np.array([float(v) for v in values])))
            else:
                generalized = cover_values(values)
            for i in indices:
                new_columns[name][i] = generalized
    return Table(release.schema, new_columns)


def _seed_cell_signature(value):
    if isinstance(value, Interval):
        return ("interval", value.low, value.high)
    if isinstance(value, CategorySet):
        return ("categories", value.members)
    if isinstance(value, Suppressed):
        return ("suppressed",)
    if isinstance(value, float) and value.is_integer():
        return ("value", int(value))
    return ("value", value)


def seed_equivalence_classes(release: Table) -> list[tuple[int, ...]]:
    groups: dict[tuple, list[int]] = {}
    for i in range(release.num_rows):
        signature = tuple(
            _seed_cell_signature(release.cell(i, name))
            for name in release.schema.quasi_identifiers
        )
        groups.setdefault(signature, []).append(i)
    return [tuple(indices) for indices in groups.values()]


def seed_datafly(table: Table, k: int, max_suppression_fraction: float):
    from collections import Counter

    hierarchies = default_hierarchies(table)
    qi_names = [n for n in table.schema.quasi_identifiers if n in hierarchies]
    levels = {name: 0 for name in qi_names}
    max_suppressed = int(max_suppression_fraction * table.num_rows)

    def generalize() -> Table:
        release = table.release_view()
        for name, level in levels.items():
            hierarchy = hierarchies[name]
            capped = min(level, hierarchy.levels - 1)
            generalized = [generalize_value(hierarchy, v, capped) for v in table.column(name)]
            release = release.replace_column(name, generalized)
        return release

    def rows_below_k(release: Table) -> list[int]:
        signatures = [
            tuple(
                _seed_cell_signature(release.cell(i, name))
                for name in release.schema.quasi_identifiers
            )
            for i in range(release.num_rows)
        ]
        counts = Counter(signatures)
        return [i for i, s in enumerate(signatures) if counts[s] < k]

    while True:
        release = generalize()
        small_rows = rows_below_k(release)
        if len(small_rows) <= max_suppressed or k <= 1:
            break
        candidates = [
            n for n in qi_names if levels[n] < hierarchies[n].levels - 1
        ]
        if not candidates:
            break
        distinct = {n: len({str(v) for v in release.column(n)}) for n in candidates}
        levels[max(candidates, key=lambda n: distinct[n])] += 1

    suppressed = sorted(set(small_rows if k > 1 else []))
    for name in release.schema.quasi_identifiers:
        column = release.column(name)
        for i in suppressed:
            column[i] = SUPPRESSED
        release = release.replace_column(name, column)
    return release, tuple(suppressed), seed_equivalence_classes(release)


# --------------------------------------------------------------------------
# Golden comparisons.
# --------------------------------------------------------------------------


def _assert_release_identical(columnar: Table, reference: Table) -> None:
    assert columnar == reference
    assert columnar.to_text(max_rows=None) == reference.to_text(max_rows=None)


class TestMDAVGolden:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_faculty_partition_and_release(self, faculty_population, k):
        table = faculty_population.private
        result = MDAVAnonymizer().anonymize(table, k)
        expected_classes = seed_mdav_partition(table, k)
        assert classes_of(result.labels) == expected_classes
        _assert_release_identical(
            result.release, seed_build_release(table, expected_classes, k)
        )

    @pytest.mark.parametrize("k", [3, 4])
    def test_census_partition_and_release(self, census_table, k):
        result = MDAVAnonymizer().anonymize(census_table, k)
        expected_classes = seed_mdav_partition(census_table, k)
        assert classes_of(result.labels) == expected_classes
        _assert_release_identical(
            result.release, seed_build_release(census_table, expected_classes, k)
        )

    def test_centroid_release(self, faculty_population):
        table = faculty_population.private
        result = MDAVAnonymizer(release_style="centroid").anonymize(table, 4)
        expected_classes = seed_mdav_partition(table, 4)
        _assert_release_identical(
            result.release,
            seed_build_release(table, expected_classes, 4, style="centroid"),
        )


class TestMondrianGolden:
    def test_faculty_partition_and_release(self, faculty_population):
        table = faculty_population.private
        result = MondrianAnonymizer().anonymize(table, 3)
        expected_classes = seed_mondrian_partition(table, 3)
        assert classes_of(result.labels) == expected_classes
        _assert_release_identical(
            result.release, seed_build_release(table, expected_classes, 3)
        )

    def test_census_partition(self, census_table):
        result = MondrianAnonymizer().anonymize(census_table, 4)
        assert classes_of(result.labels) == seed_mondrian_partition(
            census_table, 4
        )


class TestClusteringGolden:
    @pytest.mark.parametrize("k", [2, 4])
    def test_faculty_partition(self, faculty_population, k):
        table = faculty_population.private
        result = GreedyClusterAnonymizer().anonymize(table, k)
        assert classes_of(result.labels) == seed_cluster_partition(table, k)

    def test_census_partition(self, census_table):
        result = GreedyClusterAnonymizer().anonymize(census_table, 3)
        assert classes_of(result.labels) == seed_cluster_partition(
            census_table, 3
        )


class TestDataflyGolden:
    @pytest.mark.parametrize("k", [2, 3])
    def test_faculty_release_classes_and_suppression(self, faculty_population, k):
        table = faculty_population.private
        result = DataflyAnonymizer(max_suppression_fraction=0.1).anonymize(table, k)
        expected_release, expected_suppressed, expected_classes = seed_datafly(
            table, k, max_suppression_fraction=0.1
        )
        assert result.suppressed == expected_suppressed
        assert classes_of(result.labels) == expected_classes
        _assert_release_identical(result.release, expected_release)

    def test_census_release(self, census_table):
        result = DataflyAnonymizer(max_suppression_fraction=0.2).anonymize(
            census_table, 3
        )
        expected_release, expected_suppressed, _ = seed_datafly(
            census_table, 3, max_suppression_fraction=0.2
        )
        assert result.suppressed == expected_suppressed
        _assert_release_identical(result.release, expected_release)


class TestReleaseClassExtractionGolden:
    def test_class_extraction_matches_seed_grouping(self, faculty_population):
        table = faculty_population.private
        release = build_release(table, MDAVAnonymizer().partition(table, 4), k=4)
        assert classes_of(release_class_labels(release)) == seed_equivalence_classes(
            release
        )


class TestServiceGolden:
    """The HTTP service serves the same bytes the direct pipeline produces.

    The seeded faculty and census tables are uploaded through the HTTP API
    (streamed CSV ingest) and their releases requested over the wire; the
    response must be byte-identical to rendering the release built by calling
    the anonymizer → :func:`build_release` path directly.  This pins the
    whole serving stack — fingerprint registration, cache, CSV rendering —
    as a pure transport around the golden pipeline above.
    """

    @staticmethod
    def _serve_release(client, table, algorithm, k):
        import json

        from repro.dataset.io import render_csv

        status, _, body = client.post_raw(
            "/datasets", render_csv(table).encode(), "text/csv"
        )
        assert status in (200, 201)
        fingerprint = json.loads(body)["fingerprint"]
        status, _, payload = client.post_json(
            "/release", {"dataset": fingerprint, "k": k, "algorithm": algorithm}
        )
        assert status == 200
        return payload.decode("utf-8")

    @pytest.mark.parametrize(
        "algorithm, anonymizer_class, k",
        [
            ("mdav", MDAVAnonymizer, 3),
            ("mondrian", MondrianAnonymizer, 3),
            ("greedy-cluster", GreedyClusterAnonymizer, 4),
        ],
    )
    def test_faculty_release_over_http_is_byte_identical(
        self, service_client, faculty_population, algorithm, anonymizer_class, k
    ):
        from repro.dataset.io import render_csv

        table = faculty_population.private
        direct = anonymizer_class().anonymize(table, k).release
        served = self._serve_release(service_client, table, algorithm, k)
        assert served == render_csv(direct)

    @pytest.mark.parametrize(
        "algorithm, anonymizer_class, k",
        [("mdav", MDAVAnonymizer, 4), ("mondrian", MondrianAnonymizer, 4)],
    )
    def test_census_release_over_http_is_byte_identical(
        self, service_client, census_table, algorithm, anonymizer_class, k
    ):
        from repro.dataset.io import render_csv

        direct = anonymizer_class().anonymize(census_table, k).release
        served = self._serve_release(service_client, census_table, algorithm, k)
        assert served == render_csv(direct)

    def test_served_release_matches_direct_build_release(
        self, service_client, faculty_population
    ):
        from repro.dataset.io import render_csv

        table = faculty_population.private
        classes = MDAVAnonymizer().partition(table, 5)
        direct = build_release(table, classes, k=5)
        served = self._serve_release(service_client, table, "mdav", 5)
        assert served == render_csv(direct)

    def test_cached_and_uncached_responses_are_identical(
        self, service_client, faculty_population
    ):
        table = faculty_population.private
        first = self._serve_release(service_client, table, "mdav", 3)
        second = self._serve_release(service_client, table, "mdav", 3)
        assert first == second
        # Two entries: the release artifact and its cached CSV bytes.
        assert service_client.server.service.stats()["cache"]["computations"] == 2